"""Tests for version chains, secondary indexes, and schemas."""

import pytest

from repro.engine.mvcc import ABSENT, SecondaryIndex, VersionChain
from repro.engine.schema import Catalog, TableSchema
from repro.engine.sqlmini import ColumnDef
from repro.errors import SchemaError


class TestVersionChain:
    def test_read_before_any_version_is_none(self):
        chain = VersionChain()
        assert chain.read(100) is None

    def test_visibility_by_snapshot(self):
        chain = VersionChain()
        chain.install(5, ("old",))
        chain.install(10, ("new",))
        assert chain.read(4) is None
        assert chain.read(5) == ("old",)
        assert chain.read(9) == ("old",)
        assert chain.read(10) == ("new",)
        assert chain.read(999) == ("new",)

    def test_tombstone_hides_row(self):
        chain = VersionChain()
        chain.install(1, (1,))
        chain.install(2, None)
        assert chain.read(1) == (1,)
        assert chain.read(2) is None

    def test_latest(self):
        chain = VersionChain()
        chain.install(1, (1,))
        chain.install(3, (3,))
        assert chain.latest() == (3,)
        assert chain.latest_csn() == 3

    def test_empty_latest(self):
        chain = VersionChain()
        assert chain.latest() is None
        assert chain.latest_csn() == 0

    def test_non_monotonic_install_rejected(self):
        chain = VersionChain()
        chain.install(5, ())
        with pytest.raises(ValueError):
            chain.install(5, ())
        with pytest.raises(ValueError):
            chain.install(4, ())

    def test_csns_are_positive(self):
        """An empty chain's newest CSN reads 0, so 0 cannot follow it."""
        chain = VersionChain()
        with pytest.raises(ValueError):
            chain.install(0, ())
        chain.install(1, ())
        assert chain.version_count() == 1

    def test_prune_keeps_visible_version(self):
        chain = VersionChain()
        for csn in (1, 2, 3, 4):
            chain.install(csn, (csn,))
        dropped = chain.prune(horizon_csn=3)
        assert dropped == 2
        # version at csn=3 must survive (visible to horizon snapshots)
        assert chain.read(3) == (3,)
        assert chain.read(4) == (4,)

    def test_prune_nothing_below_horizon(self):
        chain = VersionChain()
        chain.install(10, (1,))
        assert chain.prune(5) == 0

    def test_version_count(self):
        chain = VersionChain()
        chain.install(1, ())
        chain.install(2, ())
        assert chain.version_count() == 2


class TestSecondaryIndex:
    def test_add_lookup_remove(self):
        index = SecondaryIndex("color")
        index.add("red", 1)
        index.add("red", 2)
        index.add("blue", 3)
        assert sorted(index.lookup("red")) == [1, 2]
        index.remove("red", 1)
        assert sorted(index.lookup("red")) == [2]

    def test_lookup_missing_value(self):
        assert SecondaryIndex("c").lookup("nope") == ()

    def test_remove_clears_empty_posting(self):
        index = SecondaryIndex("c")
        index.add("x", 1)
        index.remove("x", 1)
        assert index.entry_count() == 0

    def test_remove_nonexistent_is_noop(self):
        index = SecondaryIndex("c")
        index.remove("ghost", 1)
        assert index.entry_count() == 0

    def test_posting_is_a_bare_key_until_a_second_key(self):
        index = SecondaryIndex("c")
        index.add("x", 1)
        index.add("x", 1)
        assert index.entries == {"x": 1}
        index.add("x", 2)
        assert index.entries == {"x": {1, 2}}
        index.remove("x", 1)
        assert index.entries == {"x": {2}}
        assert index.lookup("x") == (2,)


def _schema(*cols):
    return TableSchema("t", tuple(cols))


class TestTableSchema:
    def test_requires_exactly_one_primary_key(self):
        with pytest.raises(SchemaError):
            _schema(ColumnDef("a", "INT"), ColumnDef("b", "INT"))
        with pytest.raises(SchemaError):
            _schema(ColumnDef("a", "INT", True), ColumnDef("b", "INT", True))

    def test_duplicate_columns_rejected(self):
        with pytest.raises(SchemaError):
            _schema(ColumnDef("a", "INT", True), ColumnDef("a", "INT"))

    def test_primary_key_property(self):
        schema = _schema(ColumnDef("id", "INT", True),
                         ColumnDef("v", "TEXT"))
        assert schema.primary_key == "id"

    def test_require_column(self):
        schema = _schema(ColumnDef("id", "INT", True))
        schema.require_column("id")
        with pytest.raises(SchemaError):
            schema.require_column("missing")

    def test_add_index(self):
        schema = _schema(ColumnDef("id", "INT", True),
                         ColumnDef("c", "TEXT"))
        schema.add_index("idx", "c")
        assert schema.indexes == {"idx": "c"}
        with pytest.raises(SchemaError):
            schema.add_index("idx", "c")

    def test_index_on_missing_column_rejected(self):
        schema = _schema(ColumnDef("id", "INT", True))
        with pytest.raises(SchemaError):
            schema.add_index("idx", "nope")

    def test_row_width_grows_with_columns_and_indexes(self):
        narrow = _schema(ColumnDef("id", "INT", True))
        wide = _schema(ColumnDef("id", "INT", True),
                       ColumnDef("blob", "BLOB"))
        assert wide.row_width_bytes() > narrow.row_width_bytes()
        indexed = _schema(ColumnDef("id", "INT", True),
                          ColumnDef("c", "TEXT"))
        indexed.add_index("idx", "c")
        plain = _schema(ColumnDef("id", "INT", True),
                        ColumnDef("c", "TEXT"))
        assert indexed.row_width_bytes() > plain.row_width_bytes()

    def test_image_is_a_tuple_in_column_order(self):
        schema = _schema(ColumnDef("id", "INT", True),
                         ColumnDef("a", "TEXT"), ColumnDef("b", "INT"))
        assert schema.positions == {"id": 0, "a": 1, "b": 2}
        image = schema.image({"b": 2, "id": 1, "a": None})
        assert image == (1, None, 2) and image.__class__ is tuple
        assert list(schema.row(image)) == ["id", "a", "b"]
        with pytest.raises(SchemaError):
            schema.image({"id": 1, "nope": 0})

    def test_an_unset_column_is_absent_not_null(self):
        schema = _schema(ColumnDef("id", "INT", True),
                         ColumnDef("a", "TEXT"), ColumnDef("b", "INT"))
        image = schema.image({"id": 1, "b": None})
        assert image == (1, ABSENT, None)
        assert schema.row(image) == {"id": 1, "b": None}


class TestCatalog:
    def test_create_and_lookup(self):
        catalog = Catalog()
        schema = _schema(ColumnDef("id", "INT", True))
        catalog.create_table(schema)
        assert catalog.table("t") is schema
        assert catalog.has_table("t")
        assert catalog.table_names() == ("t",)

    def test_duplicate_table_rejected(self):
        catalog = Catalog()
        catalog.create_table(_schema(ColumnDef("id", "INT", True)))
        with pytest.raises(SchemaError):
            catalog.create_table(_schema(ColumnDef("id", "INT", True)))

    def test_unknown_table_raises(self):
        with pytest.raises(SchemaError):
            Catalog().table("ghost")

    def test_get_returns_none_for_unknown(self):
        assert Catalog().get("ghost") is None
