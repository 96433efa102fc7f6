"""Using the engine + middleware API directly: a custom tenant schema.

Shows the lower-level public API a downstream user would build on:

* defining a schema with the mini-SQL DDL,
* driving transactions through the middleware proxy (classification,
  SSB bookkeeping and all),
* inspecting snapshot-isolation behaviour (a first-updater-wins abort),
* live-migrating the tenant and then verifying the slave's state
  yourself with ``repro.check.states_equal``.

Run with::

    python examples/build_your_own_tenant.py
"""

from repro import (Cluster, Environment, Middleware, MiddlewareConfig,
                   MigrationOptions, TransferRates)
from repro.check import states_equal
from repro.engine import Session


def main() -> None:
    env = Environment()
    cluster = Cluster(env)
    source = cluster.add_node("node0")
    destination = cluster.add_node("node1")
    middleware = Middleware(env, cluster, MiddlewareConfig())  # Madeus

    notes = []

    def scenario(env):
        # --- schema + seed data via a direct engine session ----------
        instance = source.instance
        instance.create_tenant("ledger")
        admin = Session(instance, "ledger")
        yield from admin.execute(
            "CREATE TABLE account (id INT PRIMARY KEY, owner VARCHAR, "
            "balance INT)")
        yield from admin.execute(
            "CREATE INDEX idx_owner ON account (owner)")
        yield from admin.execute("BEGIN")
        for account_id, owner in enumerate(["ada", "bob", "cyd"]):
            yield from admin.execute(
                "INSERT INTO account (id, owner, balance) "
                "VALUES (%d, '%s', 100)" % (account_id, owner))
        yield from admin.execute("COMMIT")
        middleware.register_tenant("ledger", "node0")

        # --- a transfer through the middleware ------------------------
        conn = middleware.connect("ledger")
        yield from middleware.submit(conn, "BEGIN")
        yield from middleware.submit(
            conn, "SELECT balance FROM account WHERE id = 0")
        yield from middleware.submit(
            conn, "UPDATE account SET balance = balance - 30 WHERE id = 0")
        yield from middleware.submit(
            conn, "SELECT balance FROM account WHERE id = 1")
        yield from middleware.submit(
            conn, "UPDATE account SET balance = balance + 30 WHERE id = 1")
        result = yield from middleware.submit(conn, "COMMIT")
        notes.append("transfer committed: %s" % result.ok)

        # --- a write-write conflict: first-updater-wins ---------------
        red = middleware.connect("ledger")
        blue = middleware.connect("ledger")

        def red_txn(env):
            yield from middleware.submit(red, "BEGIN")
            yield from middleware.submit(
                red, "SELECT balance FROM account WHERE id = 2")
            yield from middleware.submit(
                red, "UPDATE account SET balance = balance - 1 "
                     "WHERE id = 2")
            yield env.timeout(0.05)
            result = yield from middleware.submit(red, "COMMIT")
            notes.append("red commit ok: %s" % result.ok)
        env.process(red_txn(env))
        yield env.timeout(0.01)
        yield from middleware.submit(blue, "BEGIN")
        yield from middleware.submit(
            blue, "SELECT balance FROM account WHERE id = 2")
        result = yield from middleware.submit(
            blue, "UPDATE account SET balance = balance + 1 WHERE id = 2")
        notes.append("blue update aborted by first-updater-wins: %s"
                     % (not result.ok))
        yield env.timeout(0.1)

        # --- live migration + explicit consistency check --------------
        report = yield from middleware.migrate(
            "ledger", "node1", MigrationOptions(
                rates=TransferRates(dump_mb_s=5.0, restore_mb_s=2.0)))
        equal, differences = states_equal(
            source.instance.tenant("ledger"),
            destination.instance.tenant("ledger"))
        notes.append("migration time: %.4f s" % report.migration_time)
        notes.append("states equal after switch-over: %s" % equal)
        if differences:
            notes.extend(differences)

    env.process(scenario(env))
    env.run()
    for note in notes:
        print(note)
    print("ledger is now served by:", middleware.route("ledger"))


if __name__ == "__main__":
    main()
