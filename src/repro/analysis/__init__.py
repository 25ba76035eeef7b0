"""Analysis: formulas, measurement instruments and report tables.

* :mod:`repro.analysis.formulas` — the closed-form expressions of Section IV
  plus the paper's worked numeric examples.
* :mod:`repro.analysis.metrics` — flow meters, goodput meters and occupancy
  samplers the experiments attach to the simulation.
* :mod:`repro.analysis.report` — paper-style result tables.

Import each name from its module: the package imports nothing.
"""
