"""Topology builders.

* :class:`~repro.topology.base.Topology` — the generic construction kit
  (nodes, links, routes).
* :func:`~repro.topology.figure1.build_figure1` — the paper's Figure 1
  example network.
* :func:`~repro.topology.tree.build_provider_tree` — a provider with many
  client networks (resource-provisioning experiments).
* :func:`~repro.topology.tree.build_dumbbell` — many zombies against one
  victim (flood and goodput experiments).
* :func:`~repro.topology.powerlaw.build_powerlaw_internet` — Internet-like
  AS graphs (scalability).

Import each name from its module: the package imports nothing, so a run
loads only the builders its spec names.
"""
