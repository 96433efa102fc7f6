"""A deterministic budget for the request path: calls, never timings.

The perf ladder's world (two nodes, a ``Middleware``, a 200-key
``simplekv`` tenant) runs 50 ``BEGIN / SELECT / UPDATE / COMMIT``
transactions under ``sys.setprofile`` and counts Python-level ``call``
events (generator resumptions included).  The shared box cannot time a
5 % change; a count repeats exactly, so this is what keeps the request
path from growing a frame at a time.  The kernel events of the same
transactions are pinned as literals: a change that lowers the cost of
an event must not move their number.
"""

import sys
from collections import Counter

import pytest

from repro.cluster.cluster import Cluster
from repro.core.middleware import Middleware
from repro.engine.session import Session
from repro.sim import Environment
from repro.workload.simplekv import setup_kv_tenant

from _helpers import drive

KEYS = 200
TXNS = 50
#: Kernel events one transaction costs at each edge, plus what driving
#: the measured process itself costs (its start and its exit).
DRIVER_EVENTS = 2
SESSION_EVENTS = 13
SUBMIT_EVENTS = 22
#: Python calls per transaction, the harness's own frames included:
#: ~5 % above what 3.11 counts (96 through the session, 153 through
#: the middleware; 126 and 226 before a wait that is the kernel's next
#: dispatch ran ahead in place instead of being yielded through every
#: frame, 143 and 243 before the engine's statement and commit waits
#: moved into ``Session.execute`` and the critical region stopped being
#: a generator, 205 and 375 before that; 3.12 inlines comprehensions
#: and can only count fewer).
SESSION_CALLS = 101
SUBMIT_CALLS = 161


def _txn(submit, key):
    for sql in ("BEGIN",
                "SELECT v FROM kv WHERE k = %d" % key,
                "UPDATE kv SET v = v + 1 WHERE k = %d" % key,
                "COMMIT"):
        result = yield from submit(sql)
        assert result.ok, result.error


def _world():
    env = Environment()
    cluster = Cluster(env)
    for name in ("node0", "node1"):
        cluster.add_node(name)
    middleware = Middleware(env, cluster)
    instance = cluster.node("node0").instance
    drive(env, setup_kv_tenant(instance, "A", KEYS))
    middleware.register_tenant("A", "node0")
    return env, middleware, instance


def _measure(env, submit):
    """(kernel events, calls per function) of ``TXNS`` transactions."""

    def batch():
        for key in range(TXNS):
            yield from _txn(submit, key)

    drive(env, batch())             # warm: parse caches, Timeout pool
    calls = Counter()

    def profiler(frame, event, _arg):
        if event == "call":
            code = frame.f_code
            calls["%s:%s" % (code.co_filename.rsplit("/", 1)[-1],
                             getattr(code, "co_qualname",
                                     code.co_name))] += 1

    events = env.events_processed
    process = env.process(batch())
    sys.setprofile(profiler)
    try:
        env.run()
    finally:
        sys.setprofile(None)
    assert process.ok
    return env.events_processed - events, calls


def _histogram(calls):
    return "\n".join("%8.2f  %s" % (count / TXNS, name)
                     for name, count in calls.most_common())


@pytest.mark.parametrize("edge, events_per_txn, budget", [
    ("session", SESSION_EVENTS, SESSION_CALLS),
    ("submit", SUBMIT_EVENTS, SUBMIT_CALLS),
])
def test_calls_and_events_per_transaction(edge, events_per_txn, budget):
    env, middleware, instance = _world()
    if edge == "session":
        submit = Session(instance, "A").execute
    else:
        conn = middleware.connect("A")

        def submit(sql):
            return middleware.submit(conn, sql)

    events, calls = _measure(env, submit)
    assert events == TXNS * events_per_txn + DRIVER_EVENTS
    per_txn = sum(calls.values()) / TXNS
    assert per_txn <= budget, (
        "%s edge: %.1f Python calls per transaction, budget %d; calls "
        "per transaction by function:\n%s"
        % (edge, per_txn, budget, _histogram(calls)))
