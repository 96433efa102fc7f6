"""Tests for propagation policies (Table 2), report formatting, and the
cost model of Section 4.5.2."""

import math

import pytest

from repro.core import (ALL_POLICIES, B_ALL, B_CON, B_MIN, MADEUS,
                        feature_matrix, policy_by_name)
from repro.experiments.costmodel import (CostParameters, cost_all,
                                         cost_gap, cost_madeus,
                                         gap_identity_holds,
                                         gap_is_monotone_in_load,
                                         parameters_from_run)
from repro.metrics.report import format_series, format_table, sparkline


class TestPolicies:
    def test_table2_matrix(self):
        """Table 2, exactly."""
        matrix = feature_matrix()
        assert matrix["B-ALL"] == {"MIN": False, "CON-FW": False,
                                   "CON-COM": False}
        assert matrix["B-MIN"] == {"MIN": True, "CON-FW": False,
                                   "CON-COM": False}
        assert matrix["B-CON"] == {"MIN": True, "CON-FW": True,
                                   "CON-COM": False}
        assert matrix["Madeus"] == {"MIN": True, "CON-FW": True,
                                    "CON-COM": True}

    def test_feature_ordering_is_cumulative(self):
        """Each middleware adds exactly one feature over the previous."""
        counts = [sum(feature_matrix()[p.name].values())
                  for p in ALL_POLICIES]
        assert counts == [0, 1, 2, 3]

    def test_policy_by_name(self):
        assert policy_by_name("madeus") is MADEUS
        assert policy_by_name("B-con") is B_CON
        with pytest.raises(ValueError):
            policy_by_name("nope")

    def test_only_bcon_pays_commit_mutex(self):
        assert B_CON.commit_mutex_penalty > 0
        assert MADEUS.commit_mutex_penalty == 0
        assert B_ALL.commit_mutex_penalty == 0
        assert B_MIN.commit_mutex_penalty == 0


class TestCostModel:
    def _params(self, **overrides):
        defaults = dict(read_cost=0.002, write_cost=0.003,
                        commit_cost=0.004, group_commit_cost=0.001,
                        reads_per_txn=3.0, writes_per_txn=2.0,
                        total_txns=1000, group_commits=600)
        defaults.update(overrides)
        return CostParameters(**defaults)

    def test_equation4_is_eq3_minus_eq2(self):
        assert gap_identity_holds(self._params())

    def test_gap_nonnegative(self):
        """The paper's claim: C_madeus never exceeds C_ALL."""
        assert cost_gap(self._params()) >= 0
        assert cost_all(self._params()) >= cost_madeus(self._params())

    def test_gap_zero_when_no_extra_reads_or_groups(self):
        params = self._params(reads_per_txn=1.0, group_commits=0)
        assert cost_gap(params) == pytest.approx(0.0)

    def test_gap_monotone_in_load(self):
        assert gap_is_monotone_in_load(self._params())

    def test_validation_rejects_blind_write_world(self):
        with pytest.raises(ValueError, match="N_r"):
            cost_all(self._params(reads_per_txn=0.5))

    def test_validation_rejects_expensive_group_commit(self):
        with pytest.raises(ValueError, match="C'_c"):
            cost_madeus(self._params(group_commit_cost=0.005))

    def test_validation_rejects_excess_groups(self):
        with pytest.raises(ValueError):
            cost_madeus(self._params(group_commits=2000))

    def test_parameters_from_run_counts_groups(self):
        params = parameters_from_run(total_txns=100, reads_per_txn=2.0,
                                     writes_per_txn=1.5, flush_count=40,
                                     fsync_latency=0.004)
        assert params.group_commits == 60
        assert gap_identity_holds(params)


class TestReportFormatting:
    def test_format_table_aligns_and_rules(self):
        text = format_table(["a", "long_header"], [[1, 2.5], [33, None]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert "long_header" in lines[0]
        assert set(lines[1]) <= {"-", " "}
        assert "N/A" in lines[3]

    def test_format_table_nan_renders_na(self):
        text = format_table(["x"], [[math.nan]])
        assert "N/A" in text

    def test_format_table_wrong_arity_raises(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [[1]])

    def test_format_table_title(self):
        text = format_table(["a"], [[1]], title="My Table")
        assert text.splitlines()[0] == "My Table"

    def test_format_series_downsamples(self):
        points = [(float(i), float(i)) for i in range(1000)]
        text = format_series("s", points, max_points=10)
        assert len(text.splitlines()) <= 110

    def test_sparkline_shape(self):
        flat = sparkline([(0, 1.0), (1, 1.0), (2, 1.0)])
        assert len(set(flat)) == 1
        spike = sparkline([(0, 0.0), (1, 10.0), (2, 0.0)])
        assert len(set(spike)) > 1

    def test_sparkline_empty(self):
        assert sparkline([]) == "(empty)"
