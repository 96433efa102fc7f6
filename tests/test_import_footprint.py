"""What the simulator process loads: ``repro`` runs without ``hashlib``.

``hashlib`` maps OpenSSL's libcrypto, ~3.7 MB of RSS in every process,
and the one hash the package needs (substream seeds, ``repro.sim.rand``)
comes from the interpreter's built-in SHA-256.  A structural check, not
an RSS figure: a fresh interpreter imports ``repro``, runs one
smoke-size TPC-W world and one kv world, and must not have loaded
``hashlib`` or ``_hashlib`` along the way.
"""

from __future__ import annotations

import json

from _helpers import run_python

RUN_BOTH_WORLDS = """if True:
    import json, sys
    import repro
    from repro import (Cluster, Environment, Middleware, MiddlewareConfig,
                       MigrationOptions)
    from repro.experiments.common import TenantSetup, migrate_one_tenant
    from repro.experiments.profiles import SMOKE
    from repro.workload.simplekv import (KvWorkloadConfig, run_kv_clients,
                                         setup_kv_tenant)
    loaded = {"import": sorted(m for m in ("hashlib", "_hashlib")
                               if m in sys.modules)}

    tpcw, _mb = migrate_one_tenant(
        SMOKE, TenantSetup("A", "node0", paper_ebs=100), warmup=10.0)

    env = Environment()
    cluster = Cluster(env)
    cluster.add_node("node0")
    cluster.add_node("node1")
    middleware = Middleware(env, cluster, MiddlewareConfig())
    reports = []

    def scenario(env):
        yield from setup_kv_tenant(cluster.node("node0").instance, "kv",
                                   keys=20)
        middleware.register_tenant("kv", "node0")
        run_kv_clients(env, middleware, "kv",
                       KvWorkloadConfig(keys=20, clients=4,
                                        transactions_per_client=30),
                       seed=7)
        yield env.timeout(0.1)
        reports.append((yield from middleware.migrate(
            "kv", "node1", MigrationOptions())))

    env.process(scenario(env))
    env.run()
    loaded["run"] = sorted(m for m in ("hashlib", "_hashlib")
                           if m in sys.modules)
    print(json.dumps({"loaded": loaded, "tpcw": tpcw.outcome,
                      "kv": [r.outcome for r in reports]}))
"""


def test_repro_runs_without_hashlib():
    result = json.loads(run_python(RUN_BOTH_WORLDS))
    assert (result["tpcw"], result["kv"]) == ("ok", ["ok"])
    assert result["loaded"] == {"import": [], "run": []}
