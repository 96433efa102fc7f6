"""Edge cases of the middleware proxy: routing, registration,
autocommit statements, and the suspension gate."""

import pytest

from repro.cluster import Cluster
from repro.core import (MADEUS, Middleware, MiddlewareConfig,
                        MigrationOptions, Operation, OpKind)
from repro.engine import ExecResult, SessionResult, parse
from repro.engine.dump import TransferRates
from repro.errors import RoutingError
from repro.sim import Environment
from repro.workload.simplekv import setup_kv_tenant

from _helpers import drive


@pytest.fixture
def rig(env):
    cluster = Cluster(env)
    cluster.add_node("node0")
    cluster.add_node("node1")
    middleware = Middleware(env, cluster,
                            MiddlewareConfig(policy=MADEUS))
    drive(env, setup_kv_tenant(cluster.node("node0").instance, "A", 10))
    middleware.register_tenant("A", "node0")
    return cluster, middleware


class TestRouting:
    def test_route_known_tenant(self, rig):
        _cluster, middleware = rig
        assert middleware.route("A") == "node0"

    def test_route_unknown_tenant_raises(self, rig):
        _cluster, middleware = rig
        with pytest.raises(RoutingError):
            middleware.route("ghost")

    def test_connect_unknown_tenant_raises(self, rig):
        _cluster, middleware = rig
        with pytest.raises(RoutingError):
            middleware.connect("ghost")

    def test_duplicate_registration_raises(self, rig):
        _cluster, middleware = rig
        with pytest.raises(RoutingError):
            middleware.register_tenant("A", "node1")

    def test_register_on_unknown_node_raises(self, env):
        cluster = Cluster(env)
        cluster.add_node("node0")
        middleware = Middleware(env, cluster, MiddlewareConfig())
        with pytest.raises(RoutingError):
            middleware.register_tenant("B", "ghost-node")


class TestAutocommitStatements:
    def test_autocommit_read_passes_through(self, env, rig):
        _cluster, middleware = rig
        conn = middleware.connect("A")

        def proc(env):
            result = yield from middleware.submit(
                conn, "SELECT v FROM kv WHERE k = 1")
            return result
        result = drive(env, proc(env))
        assert result.ok
        assert result.rows[0]["v"] == 0

    def test_autocommit_read_creates_no_ssb(self, env, rig):
        _cluster, middleware = rig
        conn = middleware.connect("A")

        def proc(env):
            yield from middleware.submit(
                conn, "SELECT v FROM kv WHERE k = 1")
        drive(env, proc(env))
        assert conn.ssb is None
        state = middleware.tenant_state("A")
        assert len(state.open_ssbs) == 0


class TestSuspensionGate:
    def test_new_transactions_blocked_while_gate_closed(self, env, rig):
        _cluster, middleware = rig
        state = middleware.tenant_state("A")
        state.gate.close()
        conn = middleware.connect("A")
        started = []

        def client(env):
            yield from middleware.submit(conn, "BEGIN")
            started.append(env.now)
            yield from middleware.submit(
                conn, "SELECT v FROM kv WHERE k = 0")
            yield from middleware.submit(conn, "COMMIT")

        def opener(env):
            yield env.timeout(1.0)
            state.gate.open()
        env.process(client(env))
        env.process(opener(env))
        env.run()
        assert started and started[0] >= 1.0

    def test_statements_of_running_txn_pass_closed_gate(self, env, rig):
        """Suspension blocks transaction *starts*; in-flight
        transactions drain (otherwise Step 4 would deadlock)."""
        _cluster, middleware = rig
        state = middleware.tenant_state("A")
        conn = middleware.connect("A")
        finished = []

        def client(env):
            yield from middleware.submit(conn, "BEGIN")
            state.gate.close()
            yield from middleware.submit(
                conn, "SELECT v FROM kv WHERE k = 0")
            result = yield from middleware.submit(conn, "COMMIT")
            finished.append((env.now, result.ok))
            state.gate.open()
        env.process(client(env))
        env.run(until=5.0)
        assert finished and finished[0][1] is True


class TestConnectionStats:
    def test_statement_and_error_counters(self, env, rig):
        _cluster, middleware = rig
        conn = middleware.connect("A")

        def proc(env):
            yield from middleware.submit(conn, "BEGIN")
            yield from middleware.submit(
                conn, "SELECT v FROM kv WHERE k = 0")
            yield from middleware.submit(conn, "SELECT v FROM nowhere")
        drive(env, proc(env))
        assert conn.statements == 3
        assert conn.errors == 1

    def test_session_rebinds_after_switchover(self, env, rig):
        cluster, middleware = rig
        conn = middleware.connect("A")

        def proc(env):
            yield from middleware.submit(
                conn, "SELECT v FROM kv WHERE k = 0")
            first = conn.session().instance.name
            yield from middleware.migrate(
                "A", "node1", MigrationOptions(
                    rates=TransferRates(dump_mb_s=50.0,
                                        restore_mb_s=20.0)))
            yield from middleware.submit(
                conn, "SELECT v FROM kv WHERE k = 0")
            return first, conn.session().instance.name
        before, after = drive(env, proc(env))
        assert before == "node0"
        assert after == "node1"


_READ_SQL = "SELECT v FROM kv WHERE k = 1"
_WRITE_SQL = "UPDATE kv SET v = v + 1 WHERE k = 1"
SUBMIT_ENDINGS = ("ok", "engine_abort", "customer_hop_down",
                  "master_hop_down")
#: What ``submit`` leaves behind: (result.ok, conn.errors,
#: conn.in_active_txn, tracker.in_txn, active_txns, commits_seen,
#: read_only_commits, aborts_seen, mlc, entries in conn.ssb,
#: ssl.open_count(), region.busy) — recorded once, at PR 17, from the
#: six generator wrappers (``_forward``, ``_first_read``, ...) that one
#: ``submit`` replaced.
_OPEN = (True, 0, True, True, 1, 0, 0, 0, 0)
_LOST = (False, 1, False, False, 0, 0, 0, 1, 0, None, 0, False)
_LOST_BEGIN = (False, 0) + _LOST[2:]    # never counted in conn.errors
_ROLLED_BACK = (True, 0) + _LOST[2:]
#: kind -> (statements before it, the statement, outcome per ending).
SUBMIT_CASES = {
    "begin": ((), "BEGIN",
              (_OPEN + (None, 0, False), _LOST_BEGIN, _LOST, _LOST_BEGIN)),
    "first_read": (("BEGIN",), _READ_SQL,
                   (_OPEN + (1, 1, False), _LOST, _LOST, _LOST)),
    # Madeus keeps the minimum set: a later read is not saved.
    "read": (("BEGIN", _READ_SQL), _READ_SQL,
             (_OPEN + (1, 1, False), _LOST, _LOST, _LOST)),
    "write": (("BEGIN", _READ_SQL), _WRITE_SQL,
              (_OPEN + (2, 1, False), _LOST, _LOST, _LOST)),
    "commit": (("BEGIN", _READ_SQL, _WRITE_SQL), "COMMIT",
               ((True, 0, False, False, 0, 1, 0, 0, 1, None, 0, False),
                _LOST, _LOST, _LOST)),
    "read_only_commit": (("BEGIN", _READ_SQL), "COMMIT",
                         ((True, 0, False, False, 0, 1, 1, 0, 0, None, 0,
                           False), _LOST, _LOST, _LOST)),
    # A rollback reaches no code that asks whether the node is up.
    "abort": (("BEGIN", _READ_SQL, _WRITE_SQL), "ROLLBACK",
              (_ROLLED_BACK, _ROLLED_BACK, _LOST, _LOST)),
}


class TestSubmitOutcomes:
    """Every kind of statement x every way it can end."""

    @staticmethod
    def _spoil(env, cluster, ending):
        """Arrange for the next statement to end in ``ending``."""
        network = cluster.network
        if ending == "engine_abort":
            cluster.node("node0").instance.crash()
        elif ending == "customer_hop_down":
            network.fail_link()
        elif ending == "master_hop_down":
            # A hop is 0.0002 s: down in the middle of the second one.
            def outage(env):
                yield env.timeout(0.0003)
                network.fail_link()
            env.process(outage(env))

    @pytest.mark.parametrize("ending", SUBMIT_ENDINGS)
    @pytest.mark.parametrize("kind", sorted(SUBMIT_CASES))
    def test_state_after_the_call(self, env, rig, kind, ending):
        cluster, middleware = rig
        conn = middleware.connect("A")
        state = middleware.tenant_state("A")
        prelude, sql, outcomes = SUBMIT_CASES[kind]

        def proc(env):
            for statement in prelude:
                result = yield from middleware.submit(conn, statement)
                assert result.ok, result.error
            self._spoil(env, cluster, ending)
            return (yield from middleware.submit(conn, sql))
        result = drive(env, proc(env))
        assert (result.ok, conn.errors, conn.in_active_txn,
                conn.tracker.in_txn, state.active_txns,
                state.commits_seen, state.read_only_commits,
                state.aborts_seen, state.mlc,
                len(conn.ssb.entries) if conn.ssb is not None else None,
                len(state.open_ssbs), state.region.busy
                ) == outcomes[SUBMIT_ENDINGS.index(ending)]

    @pytest.mark.parametrize("kind", ["first_read", "commit"])
    def test_region_is_left_when_execute_raises(self, env, rig, kind):
        _cluster, middleware = rig
        conn = middleware.connect("A")
        state = middleware.tenant_state("A")
        prelude, sql, _outcomes = SUBMIT_CASES[kind]

        def broken(statement, cpu_cost=None):
            assert state.region.busy
            raise RuntimeError("backend bug")
            yield

        def proc(env):
            for statement in prelude:
                yield from middleware.submit(conn, statement)
            conn.session().execute = broken
            with pytest.raises(RuntimeError):
                yield from middleware.submit(conn, sql)
        drive(env, proc(env))
        assert not state.region.busy


class TestPerStatementRecords:
    """The three records built per statement are slotted; they keep
    the construction, ``repr`` and ``==`` ``@dataclass`` gave them."""

    def test_session_result(self):
        result = SessionResult("rows", [{"v": 1}])
        assert result == SessionResult(kind="rows", rows=[{"v": 1}])
        assert result != SessionResult(kind="rows")
        assert result != ("rows", [{"v": 1}])
        assert repr(SessionResult(kind="error", error="boom")) == (
            "SessionResult(kind='error', rows=[], affected=0, "
            "error='boom', commit_csn=None)")
        assert result.ok and not SessionResult(kind="error").ok
        assert SessionResult("ok").rows is not SessionResult("ok").rows

    def test_exec_result(self):
        assert ExecResult([{"v": 1}], 0) == ExecResult(rows=[{"v": 1}])
        assert ExecResult(affected=2) != ExecResult(affected=3)
        assert repr(ExecResult(affected=2)) == \
            "ExecResult(rows=[], affected=2)"

    def test_operation(self):
        statement = parse("COMMIT")
        operation = Operation(OpKind.COMMIT, "COMMIT", statement, 0.5)
        assert operation == Operation(kind=OpKind.COMMIT, sql="COMMIT",
                                      statement=statement, cpu_cost=0.5,
                                      txn_label=None)
        assert operation != Operation(OpKind.ABORT, "COMMIT", statement)
        assert repr(operation) == (
            "Operation(kind=<OpKind.COMMIT: 'commit'>, sql='COMMIT', "
            "statement=Commit(), cpu_cost=0.5, txn_label=None)")

    @pytest.mark.parametrize("record", [
        SessionResult("ok"), ExecResult(),
        Operation(OpKind.BEGIN, "BEGIN", parse("BEGIN"))])
    def test_unknown_attribute_is_rejected(self, record):
        with pytest.raises(AttributeError):
            record.extra = 1
        with pytest.raises(TypeError):
            hash(record)
