"""Experiment harness: one driver per paper figure.

Each ``figure*`` function in :mod:`repro.experiments.figures`
regenerates the corresponding table/figure data; the matching pytest
benchmark in ``benchmarks/`` runs it and prints the same rows/series
the paper reports (the paper-claims tests; README "Tests & CI" says
how to run them). :mod:`repro.experiments.cli` exposes everything as
the ``repro-sched`` command.

Import from the defining module (``runner``, ``parallel``, ``store``,
``storage``, ...): this package imports nothing, so a cold
``repro-sched run`` loads only the modules it runs.
"""
