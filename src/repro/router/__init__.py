"""Router data plane and base node classes.

The paper's key resource argument (Section IV-B/C) is about the difference
between *wire-speed filters* — a scarce hardware resource, a few thousand
slots — and *DRAM* — effectively unlimited but not usable for per-packet
filtering.  This package models both, plus the rest of a border router's
pipeline:

* :class:`FilterTable` — bounded wire-speed filter slots with expiry.
* :class:`ShadowCache` — the DRAM log of filtering requests (O(N) entries)
  the victim's gateway uses to catch on-off attackers.
* :mod:`repro.router.label_index` — the one hash index and expiry heap
  under both of the above.
* :class:`TokenBucket` — request-rate policing for filtering contracts.
* :class:`RoutingTable` — longest-prefix-match static routing.
* :class:`NetworkNode`, :class:`Host`, :class:`BorderRouter` — the node
  classes every scenario is built from; the AITF protocol engine in
  :mod:`repro.core` attaches to these.
"""

from repro.router.filter_table import FilterEntry, FilterTable, FilterTableFullError
from repro.router.shadow_cache import ShadowCache, ShadowEntry
from repro.router.policer import TokenBucket
from repro.router.routing import RoutingTable, Route
from repro.router.nodes import BorderRouter, Host, NetworkNode
from repro.router.ingress import IngressFilter

__all__ = [
    "FilterEntry",
    "FilterTable",
    "FilterTableFullError",
    "ShadowCache",
    "ShadowEntry",
    "TokenBucket",
    "RoutingTable",
    "Route",
    "NetworkNode",
    "Host",
    "BorderRouter",
    "IngressFilter",
]
