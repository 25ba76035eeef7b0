"""Emptied: the traceback classes that lived here are gone.

AITF learns the attack path from the route-record shim alone: border routers
stamp :attr:`repro.net.packet.Packet.route_record` and the victim's host
agent reads ``sample_packet.recorded_path`` into its filtering request.  The
probabilistic edge-marking alternative had no caller outside its own tests.

The package name stays only because ``bench/layers.py`` maps every package
under ``src/repro/``; it goes when that map drops the ``traceback`` entry.
"""
