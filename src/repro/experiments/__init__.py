"""Experiment harness: one module per paper table/figure, plus profiles.

==================  =============================================
module              reproduces
==================  =============================================
``preliminary``     Figure 5 (response time vs EBs, 2-second rule)
``migration_time``  Figure 6 and Table 2
``performance``     Figures 7 and 8 (timelines during migration)
``dbsize``          Figure 9 and Table 3
``multitenant``     Figures 10-19 and the Section 5.6 answer
``costmodel``       Section 4.5.2 (Equations 2-4)
``chaos``           robustness: migration under injected faults
``soak``            robustness: failure-model chaos soak (days)
``rebalance``       control plane: shifting-hotspot kv fleet
``bench``           perf harness: BENCH_*.json artifacts
``common``          the shared harness: ``build_testbed`` (TPC-W),
                    ``build_kv_testbed`` (kv fleets), ``Testbed``
==================  =============================================

Every runnable scenario is one row of ``repro.cli.SCENARIOS``: a
``run(profile, *, seed=None, trace_dir=None)`` returning a
:class:`~repro.experiments.common.Report` (the paper modules' ``run``
plus ``migration_time.run_table2`` / ``dbsize.run_table3``,
``bench.run``, ``chaos.run_all``, ``soak.run_soak`` and
``rebalance.run_rebalance``), whose traces and JSON artifacts land
together in the run's trace directory.  The TPC-W modules run their
migrations through ``Testbed.migrate``; the kv-fleet scenarios
(``bench``'s router scenario, ``soak``, ``rebalance``) share one
``Testbed`` builder, one client loop
(:func:`repro.workload.simplekv.run_kv_clients`), one verdict
(:func:`repro.check.judge`: owners, the acknowledged-increment ledger
and every migration report) and one artifact writer; each supplies only
its fleet shape, load shape and report.
"""

from .common import TenantSetup, build_testbed
from .profiles import SMOKE, get_profile

__all__ = ["SMOKE", "TenantSetup", "build_testbed", "get_profile"]
