"""Baselines AITF is compared against (Section V, Related Work).

* :mod:`repro.baselines.pushback` — the cooperative pushback mechanism of
  Mahajan et al. [MBF+01]: hop-by-hop, rate-limits whole aggregates, relies
  on upstream goodwill.
* :mod:`repro.baselines.manual` — what operators do today: a human installs
  a filter at the edge router minutes after the attack starts, then phones
  the ISP.
* :mod:`repro.baselines.ingress_dpf` — route-based/ingress packet filtering
  in the spirit of DPF [PL01]: proactively drops spoofed packets at every
  provider edge, but cannot stop non-spoofed floods.

Import each name from its module: the package imports nothing.
"""
