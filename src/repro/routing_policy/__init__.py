"""Valley-free (Gao–Rexford) policy routing over tiered AS topologies.

See :mod:`repro.routing_policy.valley_free` for the route-selection rules
and the pinned determinism tie-break, :mod:`repro.routing_policy.manager`
for lazy per-anchor table materialisation, and
:mod:`repro.topology.hierarchy` for the tiered-topology builder that uses
both.
"""

from repro.routing_policy.relationships import RelationshipMap
from repro.routing_policy.valley_free import (
    CUSTOMER,
    PEER,
    PROVIDER,
    PolicyRoute,
    valley_free_routes,
)
from repro.routing_policy.manager import PolicyRoutingManager

__all__ = [
    "CUSTOMER",
    "PEER",
    "PROVIDER",
    "PolicyRoute",
    "PolicyRoutingManager",
    "RelationshipMap",
    "valley_free_routes",
]
