"""Propagation policies: Madeus and the three baselines of Table 2.

One parameterised propagator covers all four middlewares; the flags map
exactly to the paper's feature matrix:

===========  =====  ========  =========
middleware    MIN    CON-FW    CON-COM
===========  =====  ========  =========
B-ALL         no     no        no
B-MIN         yes    no        no
B-CON         yes    yes       no
Madeus        yes    yes       yes
===========  =====  ========  =========

* **MIN** — propagate only the minimum query set (mapping function,
  Definition 2) instead of every operation of every transaction.
* **CON-FW** — propagate first reads and writes concurrently, coordinated
  by the conductor's rounds.
* **CON-COM** — propagate commit operations concurrently too, enabling
  group commit on the slave.  Without it, commits are serialised in
  master commit order and every player competes for a commit mutex at
  every commit time (the overhead the paper measures for B-CON).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class PropagationPolicy:
    """Feature switches of a live-migration propagation protocol.

    Note on B-ALL: *aborted and read-only* transactions produce nothing
    to synchronise under any middleware (they change no data), so even
    B-ALL discards them; what B-ALL lacks is the *minimum query set* —
    it ships every read of every update transaction, where the MIN
    policies keep only the snapshot-creating first read.  This matches
    the paper's cost model (Eq. 3 charges ``N_r`` reads per transaction)
    and its measured B-ALL convergence under heavy workload.
    """

    name: str
    #: MIN: send the minimum query set (first read + writes + commit of
    #: committed update transactions only).
    minimum_set: bool
    #: CON-FW: concurrent propagation of first reads and writes.
    concurrent_first_writes: bool
    #: CON-COM: concurrent propagation of commit operations.
    concurrent_commits: bool
    #: Per-player mutex hand-off cost when commits are serialised while
    #: players run concurrently (B-CON only; seconds).  Every player in
    #: the pool competes for the pthread mutex at every commit time, so
    #: each serial commit pays ``penalty * (PLAYER_POOL - 1)``
    #: (:data:`repro.core.propagation.PLAYER_POOL`).
    commit_mutex_penalty: float = 0.0


#: Serial propagation of *all* operations of *all* committed transactions,
#: in commit order (the naive baseline).
B_ALL = PropagationPolicy("B-ALL", minimum_set=False,
                          concurrent_first_writes=False,
                          concurrent_commits=False)

#: Serial propagation of minimum syncsets (Ganymed/FAS-style [36, 37]).
B_MIN = PropagationPolicy("B-MIN", minimum_set=True,
                          concurrent_first_writes=False,
                          concurrent_commits=False)

#: Concurrent first reads/writes but serial commits in master commit
#: order (Daudjee-Salem-style [24]); pays the commit-mutex competition.
B_CON = PropagationPolicy("B-CON", minimum_set=True,
                          concurrent_first_writes=True,
                          concurrent_commits=False,
                          commit_mutex_penalty=0.00075)

#: The full LSIR: minimum set, concurrent first reads/writes, and
#: concurrent commits (group commit on the slave).
MADEUS = PropagationPolicy("Madeus", minimum_set=True,
                           concurrent_first_writes=True,
                           concurrent_commits=True)

#: All four, in the order the paper's figures list them.
ALL_POLICIES = (B_ALL, B_MIN, B_CON, MADEUS)


def policy_by_name(name: str) -> PropagationPolicy:
    """Look up one of the standard policies by its display name."""
    for policy in ALL_POLICIES:
        if policy.name.lower() == name.lower():
            return policy
    raise ValueError("unknown policy %r (expected one of %s)"
                     % (name, ", ".join(p.name for p in ALL_POLICIES)))


def feature_matrix() -> dict:
    """Table 2 as data: policy name -> feature flags."""
    return {
        policy.name: {
            "MIN": policy.minimum_set,
            "CON-FW": policy.concurrent_first_writes,
            "CON-COM": policy.concurrent_commits,
        }
        for policy in ALL_POLICIES
    }
