"""Metrics: report formatting for the experiment harness.

:mod:`repro.metrics.report` renders the tables and series the paper's
figures report.  The time-series probes those series come from are
:mod:`repro.sim.monitor`, and the counter/gauge/histogram instruments
are :mod:`repro.obs.metrics`; import each from its defining module.
"""
