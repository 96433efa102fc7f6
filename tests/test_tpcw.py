"""Tests for the TPC-W workload: schema, population, mixes,
interaction templates, and the emulated browsers."""

import pytest

from repro.cluster import Cluster
from repro.core import Middleware, MiddlewareConfig
from repro.engine import DbmsInstance
from repro.engine.sqlmini import parse, is_read_statement, \
    is_write_statement, Insert, Update, Delete
from repro.sim import Environment, RandomStream, StreamFactory
from repro.workload.tpcw import (INTERACTIONS, EbConfig, EbState,
                                 IdAllocator, PAPER_TABLE3,
                                 PopulationParams, TpcwContext,
                                 UPDATE_INTERACTIONS, all_schemas,
                                 mix_weights, nominal_database_size_mb,
                                 populate, start_tenant_load,
                                 update_fraction)
from repro.workload.tpcw import browser

from _helpers import drive


class TestSchemas:
    def test_ten_tables(self):
        assert len(all_schemas()) == 10

    def test_expected_tables_present(self):
        names = set(all_schemas())
        assert {"customer", "address", "country", "item", "author",
                "orders", "order_line", "cc_xacts", "shopping_cart",
                "shopping_cart_line"} == names

    def test_each_table_has_primary_key(self):
        for schema in all_schemas().values():
            assert schema.primary_key

    def test_item_is_widest_table(self):
        schemas = all_schemas()
        item_width = schemas["item"].row_width_bytes()
        assert all(item_width >= s.row_width_bytes()
                   for s in schemas.values())


class TestPopulationModel:
    def test_cardinalities_follow_spec(self):
        params = PopulationParams(items=1000, ebs=10)
        cards = params.cardinalities()
        assert cards["customer"] == 28800
        assert cards["address"] == 2 * cards["customer"]
        assert cards["orders"] == int(0.9 * cards["customer"])
        assert cards["order_line"] == 3 * cards["orders"]
        assert cards["author"] == 250
        assert cards["country"] == 92

    @pytest.mark.parametrize("entry", PAPER_TABLE3,
                             ids=lambda e: "%(items)d-items" % e)
    def test_table3_sizes_within_ten_percent(self, entry):
        """Table 3 reproduction: the size model matches the paper."""
        params = PopulationParams(items=entry["items"], ebs=entry["ebs"])
        model_gb = nominal_database_size_mb(params) / 1000.0
        assert model_gb == pytest.approx(entry["size_gb"], rel=0.10)

    def test_scaled_cardinalities_respect_row_scale(self):
        params = PopulationParams(items=1000, ebs=10, row_scale=0.1)
        scaled = params.scaled_cardinalities()
        assert scaled["customer"] == 2880
        assert scaled["item"] == 100

    def test_populate_loads_rows_and_size(self, env):
        instance = DbmsInstance(env, "n0")
        params = PopulationParams(items=1000, ebs=10, row_scale=0.05)
        populate(instance, "T", params, RandomStream(1))
        tenant = instance.tenant("T")
        assert tenant.row_count() > 1000
        # scaled rows x multiplier + overhead lands near nominal
        nominal = nominal_database_size_mb(params)
        assert tenant.size_mb() == pytest.approx(nominal, rel=0.15)

    def test_populate_builds_indexes(self, env):
        instance = DbmsInstance(env, "n0")
        params = PopulationParams(items=1000, ebs=10, row_scale=0.05)
        populate(instance, "T", params, RandomStream(1))
        item = instance.tenant("T").table("item")
        assert item.indexes["idx_item_subject"].entry_count() == \
            item.live_row_count()


class TestMixes:
    @pytest.mark.parametrize("mix,expected", [
        ("ordering", 0.50), ("shopping", 0.20), ("browsing", 0.05)])
    def test_update_fractions_match_paper(self, mix, expected):
        assert update_fraction(mix) == pytest.approx(expected, abs=0.02)

    def test_mix_weights_cover_all_interactions(self):
        names, weights = mix_weights("ordering")
        assert set(names) == set(INTERACTIONS)
        assert all(w > 0 for w in weights)

    def test_unknown_mix_rejected(self):
        with pytest.raises(ValueError):
            mix_weights("nope")

    def test_update_interactions_subset(self):
        assert UPDATE_INTERACTIONS <= set(INTERACTIONS)


@pytest.fixture
def ctx():
    return TpcwContext(customers=100, items=200, orders=90)


class TestInteractionTemplates:
    def _steps(self, name, ctx, state=None, seed=0):
        state = state or EbState(customer_id=1)
        return INTERACTIONS[name](ctx, state, RandomStream(seed), 1.0)

    @pytest.mark.parametrize("name", sorted(INTERACTIONS))
    def test_all_statements_parse(self, name, ctx):
        for sql, cpu in self._steps(name, ctx):
            parse(sql)  # must not raise
            assert cpu > 0

    @pytest.mark.parametrize("name", sorted(UPDATE_INTERACTIONS))
    def test_no_blind_writes(self, name, ctx):
        """Paper Section 3.1: the first operation of every update
        transaction is a read."""
        steps = self._steps(name, ctx)
        first = parse(steps[0][0])
        assert is_read_statement(first)

    @pytest.mark.parametrize("name", sorted(UPDATE_INTERACTIONS))
    def test_update_templates_do_write(self, name, ctx):
        steps = self._steps(name, ctx)
        assert any(is_write_statement(parse(sql)) for sql, _c in steps)

    @pytest.mark.parametrize(
        "name", sorted(set(INTERACTIONS) - UPDATE_INTERACTIONS))
    def test_readonly_templates_never_write(self, name, ctx):
        steps = self._steps(name, ctx)
        assert all(is_read_statement(parse(sql)) for sql, _c in steps)

    @pytest.mark.parametrize("name", sorted(UPDATE_INTERACTIONS))
    def test_writes_are_primary_key_addressed(self, name, ctx):
        """LSIR replay correctness relies on PK-addressed writes."""
        schemas = all_schemas()
        for seed in range(5):
            for sql, _cpu in self._steps(name, ctx, seed=seed):
                statement = parse(sql)
                if isinstance(statement, (Update, Delete)):
                    pk = schemas[statement.table].primary_key
                    assert any(c.column == pk and c.op == "="
                               for c in statement.where), sql
                elif isinstance(statement, Insert):
                    pk = schemas[statement.table].primary_key
                    assert pk in statement.columns, sql

    def test_buy_confirm_decrements_stock(self, ctx):
        state = EbState(customer_id=1)
        state.cart_items = [(5, 2)]
        steps = self._steps("buy_confirm", ctx, state=state)
        stock_updates = [sql for sql, _c in steps
                         if "i_stock" in sql and sql.startswith("UPDATE")]
        assert len(stock_updates) == 1
        assert "WHERE i_id = 5" in stock_updates[0]

    def test_buy_confirm_empties_cart(self, ctx):
        state = EbState(customer_id=1)
        state.cart_items = [(5, 2), (6, 1)]
        self._steps("buy_confirm", ctx, state=state)
        assert state.cart_items == []

    def test_shopping_cart_creates_then_reuses_cart(self, ctx):
        state = EbState(customer_id=1)
        first = self._steps("shopping_cart", ctx, state=state)
        assert any("INSERT INTO shopping_cart " in sql
                   for sql, _c in first)
        cart_id = state.cart_id
        second = self._steps("shopping_cart", ctx, state=state)
        assert state.cart_id == cart_id
        assert any("UPDATE shopping_cart " in sql for sql, _c in second)

    def test_id_allocator_unique_across_tables(self):
        ids = IdAllocator()
        a = [ids.next_id("orders") for _i in range(3)]
        b = [ids.next_id("customer") for _i in range(3)]
        assert len(set(a)) == 3
        assert len(set(b)) == 3

    def test_templates_deterministic_under_seed(self, ctx):
        first = self._steps("home", ctx, seed=7)
        second = self._steps("home", ctx, seed=7)
        assert first == second


class TestEmulatedBrowsers:
    def _run_load(self, env, ebs=20, until=10.0, mix="ordering"):
        cluster = Cluster(env)
        node = cluster.add_node("n0")
        middleware = Middleware(env, cluster, MiddlewareConfig())
        params = PopulationParams(items=500, ebs=5, row_scale=0.02)
        populate(node.instance, "A", params, RandomStream(11))
        middleware.register_tenant("A", "n0")
        scaled = params.scaled_cardinalities()
        context = TpcwContext(customers=scaled["customer"],
                              items=scaled["item"],
                              orders=scaled["orders"])
        config = EbConfig(ebs=ebs, mix=mix, think_time=0.5)
        metrics = start_tenant_load(env, middleware, "A", context,
                                    config, seed=5)
        with pytest.MonkeyPatch.context() as patch:
            # unit CPU cost, not the Figure-5 calibration
            patch.setattr(browser, "CPU_SCALE", 1.0)
            env.run(until=until)
        return metrics

    def test_load_produces_interactions(self, env):
        metrics = self._run_load(env)
        assert metrics.interactions > 100

    def test_response_times_recorded(self, env):
        metrics = self._run_load(env)
        assert len(metrics.response_times) > 0
        assert metrics.mean_response_time() > 0

    def test_update_fraction_near_mix(self, env):
        metrics = self._run_load(env)
        fraction = metrics.update_interactions / metrics.interactions
        assert fraction == pytest.approx(0.5, abs=0.1)

    def test_browsing_mix_mostly_reads(self, env):
        metrics = self._run_load(env, mix="browsing")
        fraction = metrics.update_interactions / metrics.interactions
        assert fraction < 0.15

    def test_throughput_tracks_closed_loop(self, env):
        metrics = self._run_load(env, ebs=20, until=10.0)
        # 20 EBs / ~0.5s think -> at most ~40/s; must be positive and
        # bounded by the closed-loop ceiling
        tput = metrics.throughput(2.0, 10.0)
        assert 5.0 < tput <= 45.0

    def test_deterministic_under_seed(self):
        env_a = Environment()
        metrics_a = None
        env_b = Environment()

        def run(env):
            return self._run_load(env, ebs=5, until=5.0)
        metrics_a = run(env_a)
        metrics_b = run(env_b)
        assert metrics_a.interactions == metrics_b.interactions
        assert metrics_a.response_times.values == \
            metrics_b.response_times.values
