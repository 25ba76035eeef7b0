"""Filtering contracts between AITF networks and their clients/peers.

Section II-A: "A filtering contract between networks A and B specifies
(i) the filtering request rate R1 at which A accepts filtering requests to
block certain traffic to B, and (ii) the filtering request rate R2 at which
A can send filtering requests to get B to block certain traffic from coming
into A."  Contracts bound both the CPU cost of processing requests and the
number of filters a router must provision (Section IV-B/C).
"""

from repro.contracts.contract import ContractBook, ContractStats, FilteringContract

__all__ = [
    "FilteringContract",
    "ContractBook",
    "ContractStats",
]
