"""Crash-offset sweep over a *resumed* migration (satellite 3).

The first crash parks the migration with a populated journal; the
source restarts and ``resume_migration`` re-enters.  A second crash is
then injected at a swept set of offsets across the resumed attempt's
whole duration — hitting the re-dump, restore, catch-up, and handover
windows — and after each crash the loop restarts and resumes again
until the migration completes.  At every offset the invariants must
hold: exactly one routing owner after every crash, no committed
transaction lost on the final owner, and no chunk ever shipped twice
(the network stays healthy in this sweep, so a duplicate entry in the
journal's install log could only come from resume re-shipping work the
destination already applied).
"""

import pytest

from repro.core import MigrationOptions
from repro.core.middleware import JOURNAL_COMPLETED
from repro.errors import SourceCrashed

from _helpers import drive, latest_value
from test_fault_tolerance import RATES, build, seed_tenant

CHUNK_MB = 1.0
#: Second-crash offsets as fractions of a clean resume's duration.
#: 1.02 lands after the handover committed (crash on the *old* source
#: right after it stopped being the owner).
SWEEP = (0.05, 0.15, 0.3, 0.45, 0.6, 0.75, 0.85, 0.95, 1.02)
MAX_RESUMES = 6


def _options():
    return MigrationOptions(rates=RATES, chunk_mb=CHUNK_MB)


def _launch(env, middleware, *, resume):
    holder = {}

    def main(env):
        try:
            if resume:
                holder["report"] = yield from middleware.resume_migration(
                    "A", _options())
            else:
                holder["report"] = yield from middleware.migrate(
                    "A", "node1", _options())
        except SourceCrashed as exc:
            holder["error"] = exc
    env.process(main(env))
    return holder


def _park_first_attempt(env, cluster, middleware, crash_after=2.5):
    workload = seed_tenant(env, cluster, middleware, overhead_mb=10.0,
                           clients=3, txns=200, think_time=0.2)
    holder = _launch(env, middleware, resume=False)
    env.run(until=env.now + crash_after)
    assert "report" not in holder
    cluster.node("node0").instance.crash()
    env.run()
    assert "error" in holder
    return workload


def _clean_resume_duration():
    """Measure how long an uninterrupted resume takes (same scenario)."""
    from repro.sim import Environment
    env = Environment()
    cluster, middleware = build(env, nodes=2, resume=True)
    _park_first_attempt(env, cluster, middleware)
    drive(env, cluster.node("node0").instance.restart())
    started = env.now
    holder = _launch(env, middleware, resume=True)
    env.run()
    assert holder["report"].outcome == "ok"
    return holder["report"].ended_at - started


@pytest.fixture(scope="module")
def resume_duration():
    return _clean_resume_duration()


def _assert_one_owner(middleware):
    owners = middleware.owners("A")
    assert len(owners) == 1, "split brain: %r" % (owners,)


def _assert_no_lost_commits(cluster, middleware, workload):
    owner = middleware.route("A")
    table = cluster.node(owner).instance.tenant("A").table("kv")
    for key, increments in workload.committed_increments.items():
        assert latest_value(table, key) == increments, \
            "key %d lost increments on owner %s" % (key, owner)


@pytest.mark.parametrize("fraction", SWEEP)
def test_second_crash_during_resume(env, fraction, resume_duration):
    cluster, middleware = build(env, nodes=2, resume=True)
    workload = _park_first_attempt(env, cluster, middleware)
    _assert_one_owner(middleware)
    source = cluster.node("node0").instance

    drive(env, source.restart())
    holder = _launch(env, middleware, resume=True)
    crash_at = env.now + fraction * resume_duration
    env.run(until=crash_at)
    # Past-1.0 offsets land after the handover committed: the crash
    # hits the *former* source, which must not disturb the new owner.
    source.crash()
    env.run()
    _assert_one_owner(middleware)

    # Restart-and-resume until the migration finally lands.
    resumes = 0
    while "report" not in holder or \
            holder.get("report") and holder["report"].outcome != "ok":
        if "error" in holder or (
                "report" in holder
                and holder["report"].outcome != "ok"):
            assert resumes < MAX_RESUMES, \
                "migration did not land after %d resumes" % resumes
            resumes += 1
            drive(env, source.restart())
            holder = _launch(env, middleware, resume=True)
            env.run()
            _assert_one_owner(middleware)
        else:  # pragma: no cover - defensive
            env.run()

    report = holder["report"]
    assert report.outcome == "ok"
    assert report.resumed is True
    assert report.consistent is True
    _assert_one_owner(middleware)
    assert middleware.route("A") in ("node0", "node1")

    journal = middleware.migration_journal("A")
    assert journal.state == JOURNAL_COMPLETED
    dest = middleware.route("A")
    if dest == "node1":
        log = journal.chunk_log["node1"]
        # No chunk double-shipped across first attempt + every resume,
        # and together the installs cover the frozen plan exactly.
        assert len(log) == len(set(log)), \
            "double-shipped chunks at offset %.2f: %r" % (fraction, log)
        assert sorted(log) == list(range(journal.total_chunks))

    # Let the workload settle, then check nothing committed was lost.
    env.run()
    _assert_no_lost_commits(cluster, middleware, workload)
