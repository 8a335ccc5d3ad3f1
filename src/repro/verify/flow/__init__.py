"""Dataflow analyses over Python ASTs (the ``repro check --flow`` layer).

The per-statement determinism linter (:mod:`repro.verify.lint`) flags
hazard *sites*; this package tracks hazard *values* through a module:

- :mod:`repro.verify.flow.cfg` — control-flow graphs over function ASTs,
- :mod:`repro.verify.flow.absint` — a forward worklist solver over
  those graphs,
- :mod:`repro.verify.flow.taint` — the taint determinism analysis,
  run by :func:`~repro.verify.flow.taint.run_taint`.

Its findings share the :mod:`repro.verify.report` types with every
other ``repro check`` pass.
"""
