"""Section 4.5.2: the analytic cost model of the LSIR (Equations 2-4).

The paper derives:

* ``C_madeus = N_total (C_r + N_w C_w) + N' C'_c + (N_total - N') C_c``
* ``C_ALL    = N_total (N_r C_r + N_w C_w + C_c)``
* ``C_ALL - C_madeus = N_total (N_r - 1) C_r + N' (C_c - C'_c)``

with ``N_r >= 1``, ``N' >= 0``, ``C_c > C'_c``, so Madeus's cost never
exceeds C_ALL, and the gap grows with the workload (``N_total``, ``N'``).

This module implements the closed forms and cross-checks them against
*measured* counters from a real propagation run: the number of replayed
operations and WAL flushes on the slave must satisfy the same
inequalities the algebra predicts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .common import Report, seeded
from .profiles import Profile, get_profile


@dataclass(frozen=True)
class CostParameters:
    """Inputs of Equations 2-4."""

    #: Cost of one read / write / commit operation (seconds).
    read_cost: float
    write_cost: float
    commit_cost: float
    #: Cost of one *group* commit (must be < commit_cost per member;
    #: this is the cost of the whole grouped flush).
    group_commit_cost: float
    #: Reads / writes per transaction.
    reads_per_txn: float
    writes_per_txn: float
    #: Total transactions and group-commit operations.
    total_txns: int
    group_commits: int

    def validate(self) -> None:
        """Check the preconditions the derivation assumes."""
        if self.reads_per_txn < 1:
            raise ValueError("N_r must be >= 1 (no blind writes: the "
                             "first operation is a read)")
        if self.group_commits < 0:
            raise ValueError("N' must be >= 0")
        if self.group_commits > self.total_txns:
            raise ValueError("N' cannot exceed N_total")
        if self.group_commit_cost >= self.commit_cost:
            raise ValueError("C'_c must be < C_c (a group commit is "
                             "cheaper than an individual one)")


def cost_madeus(params: CostParameters) -> float:
    """Equation 2: total propagation cost under Madeus."""
    params.validate()
    return (params.total_txns * (params.read_cost
                                 + params.writes_per_txn
                                 * params.write_cost)
            + params.group_commits * params.group_commit_cost
            + (params.total_txns - params.group_commits)
            * params.commit_cost)


def cost_all(params: CostParameters) -> float:
    """Equation 3: total propagation cost with no LSIR rules."""
    params.validate()
    return params.total_txns * (params.reads_per_txn * params.read_cost
                                + params.writes_per_txn
                                * params.write_cost
                                + params.commit_cost)


def cost_gap(params: CostParameters) -> float:
    """Equation 4: C_ALL - C_madeus (always >= 0)."""
    return (params.total_txns * (params.reads_per_txn - 1)
            * params.read_cost
            + params.group_commits * (params.commit_cost
                                      - params.group_commit_cost))


def gap_identity_holds(params: CostParameters,
                       tolerance: float = 1e-9) -> bool:
    """Check Eq. 4 == Eq. 3 - Eq. 2 (the paper's algebra), exactly."""
    direct = cost_all(params) - cost_madeus(params)
    return abs(direct - cost_gap(params)) <= tolerance * max(
        1.0, abs(direct))


def gap_is_monotone_in_load(params: CostParameters,
                            factor: float = 2.0) -> bool:
    """Heavier workload (larger N_total and N') widens the gap."""
    heavier = CostParameters(
        read_cost=params.read_cost, write_cost=params.write_cost,
        commit_cost=params.commit_cost,
        group_commit_cost=params.group_commit_cost,
        reads_per_txn=params.reads_per_txn,
        writes_per_txn=params.writes_per_txn,
        total_txns=int(params.total_txns * factor),
        group_commits=int(params.group_commits * factor))
    return cost_gap(heavier) >= cost_gap(params)


def parameters_from_run(total_txns: int, reads_per_txn: float,
                        writes_per_txn: float, flush_count: int,
                        fsync_latency: float, read_cost: float = 0.003,
                        write_cost: float = 0.004) -> CostParameters:
    """Build cost parameters from measured propagation counters.

    ``flush_count`` is the slave's WAL flush count during replay; the
    grouped commits are those that shared a flush with another commit.
    """
    group_commits = max(0, total_txns - flush_count)
    return CostParameters(
        read_cost=read_cost, write_cost=write_cost,
        commit_cost=fsync_latency,
        group_commit_cost=fsync_latency * 0.2,
        reads_per_txn=max(1.0, reads_per_txn),
        writes_per_txn=writes_per_txn,
        total_txns=total_txns, group_commits=group_commits)


def run(profile: Optional[Profile] = None, *,
        seed: Optional[int] = None,
        trace_dir: Optional[str] = None) -> Report:
    """Uniform entry point for the analytic cost model.

    The model is closed-form (no simulation), so ``seed`` only stamps
    the report and ``trace_dir`` is accepted for uniformity.
    """
    del trace_dir
    profile = seeded(profile or get_profile(), seed)
    params = CostParameters(
        read_cost=0.003, write_cost=0.004, commit_cost=0.004,
        group_commit_cost=0.0008, reads_per_txn=2.2, writes_per_txn=2.4,
        total_txns=4400, group_commits=3000)
    lines = [
        "Section 4.5.2 cost model (heavy workload, 800 MB run):",
        "  C_madeus = %.1f s" % cost_madeus(params),
        "  C_ALL    = %.1f s" % cost_all(params),
        "  gap (Eq 4) = %.1f s" % cost_gap(params),
        "  identity holds: %s" % gap_identity_holds(params),
        "  monotone in load: %s" % gap_is_monotone_in_load(params),
    ]
    return Report(experiment="costmodel", profile=profile.name,
                  seed=profile.seed, text="\n".join(lines), data=params)
