"""TPC-W population: cardinalities, sizing (Table 3), and bulk loading.

TPC-W scales with two knobs: the number of catalogue items and the number
of emulated browsers (EBs).  Cardinalities follow the specification:

* ``customers   = 2880 x EBs``
* ``addresses   = 2 x customers``
* ``orders      = 0.9 x customers`` (order lines: 3 per order, one credit
  card transaction per order)
* ``authors     = 0.25 x items``

The paper's Table 3 maps (items, EBs) to on-disk size; those sizes fit a
``fixed overhead + linear`` model (about 0.2 GB of catalogs/WAL/free
space plus the row payload), which is what
:func:`nominal_database_size_mb` implements via the schema widths.

Because the full-scale database (millions of rows) would not fit in a
Python process, :func:`populate` loads rows at ``row_scale`` (for example
1/100 of the cardinalities) and sets the tenant's ``size_multiplier`` so
dump/restore timing still sees the full nominal size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from typing import TYPE_CHECKING, Dict, Iterator, Tuple

from ...sim.rand import RandomStream
from .schema import all_schemas

if TYPE_CHECKING:  # pragma: no cover
    from ...engine.instance import DbmsInstance
    from ...engine.mvcc import Image

#: What a loader yields: ``(table, key, image)``.
Load = Iterator[Tuple[str, int, "Image"]]

#: Fixed per-database footprint implied by Table 3 (GB -> MB).
FIXED_OVERHEAD_MB = 200.0

#: TPC-W customers per emulated browser.
CUSTOMERS_PER_EB = 2880

#: The paper's Table 3, for reporting alongside measured sizes.
PAPER_TABLE3 = (
    {"items": 100000, "ebs": 100, "size_gb": 0.8},
    {"items": 500000, "ebs": 500, "size_gb": 3.1},
    {"items": 1000000, "ebs": 1000, "size_gb": 6.2},
    {"items": 2000000, "ebs": 2000, "size_gb": 12.0},
)


@dataclass(frozen=True)
class PopulationParams:
    """Scale parameters of one TPC-W database."""

    items: int = 100000
    ebs: int = 100
    #: Fraction of the nominal cardinalities actually materialised.
    row_scale: float = 0.01

    @property
    def customers(self) -> int:
        """Nominal customer count (2880 per EB)."""
        return CUSTOMERS_PER_EB * self.ebs

    @property
    def orders(self) -> int:
        """Nominal initial order count (0.9 per customer)."""
        return int(0.9 * self.customers)

    def cardinalities(self) -> Dict[str, int]:
        """Nominal (full-scale) row counts per table."""
        customers = self.customers
        orders = self.orders
        return {
            "customer": customers,
            "address": 2 * customers,
            "country": 92,
            "item": self.items,
            "author": max(1, self.items // 4),
            "orders": orders,
            "order_line": 3 * orders,
            "cc_xacts": orders,
            "shopping_cart": 0,
            "shopping_cart_line": 0,
        }

    def scaled_cardinalities(self) -> Dict[str, int]:
        """Materialised row counts (at ``row_scale``), minimum 1 each."""
        scaled = {}
        for table, count in self.cardinalities().items():
            scaled[table] = (max(1, int(math.ceil(count * self.row_scale)))
                             if count else 0)
        return scaled


def nominal_database_size_mb(params: PopulationParams) -> float:
    """Predicted on-disk size from schema widths + fixed overhead."""
    schemas = all_schemas()
    total_bytes = 0.0
    for table, count in params.cardinalities().items():
        total_bytes += count * schemas[table].row_width_bytes()
    return FIXED_OVERHEAD_MB + total_bytes / 1e6


def populate(instance: "DbmsInstance", tenant_name: str,
             params: PopulationParams, rng: RandomStream) -> None:
    """Create and bulk-load a TPC-W tenant (not timed; setup only).

    Rows are installed directly, bypassing SQL, because initial
    population is not part of any measured path: one
    :meth:`~repro.engine.instance.DbmsInstance.install` at one CSN, at
    or below the horizon when no snapshot is held, so the loaded rows
    are born frozen.  Each is built as its image, values in the table's
    schema column order (:mod:`repro.workload.tpcw.schema`).
    """
    tenant = instance.create_tenant(tenant_name)
    tenant.fixed_overhead_mb = FIXED_OVERHEAD_MB
    if params.row_scale < 1.0:
        tenant.size_multiplier = 1.0 / params.row_scale
    for schema in all_schemas().values():
        tenant.create_table(schema)
    counts = params.scaled_cardinalities()
    instance.install(tenant, chain(
        _load_country(),
        _load_items(counts["item"], counts["author"], rng),
        _load_authors(counts["author"], rng),
        _load_customers(counts["customer"], rng),
        _load_addresses(counts["address"], rng),
        _load_orders(counts["orders"], counts["customer"], counts["item"],
                     rng)))


def _load_country() -> Load:
    for co_id in range(1, 93):
        # co_id, co_name, co_exchange, co_currency
        yield "country", co_id, (co_id, "country%d" % co_id, 1.0, "CUR")


def _load_items(items: int, authors: int, rng: RandomStream) -> Load:
    for i_id in range(1, items + 1):
        yield "item", i_id, (
            i_id, "title%d" % i_id,                     # i_id, i_title
            1 + (i_id % max(1, authors)),               # i_a_id
            0, "pub%d" % (i_id % 100),                  # i_pub_date, ..
            "subject%d" % (i_id % 24),                  # i_subject
            "description of item %d" % i_id,            # i_desc
            1 + (i_id % items),                         # i_related1..5
            1 + ((i_id + 1) % items),
            1 + ((i_id + 2) % items),
            1 + ((i_id + 3) % items),
            1 + ((i_id + 4) % items),
            "thumb%d" % i_id, "image%d" % i_id,         # i_thumbnail, ..
            round(rng.uniform(1.0, 100.0), 2),          # i_srp
            round(rng.uniform(1.0, 100.0), 2),          # i_cost
            0, rng.randint(10, 30),                     # i_avail, i_stock
            "isbn%d" % i_id, rng.randint(20, 9999),     # i_isbn, i_page
            "paperback", "20x15x2", "x" * 8)            # .., i_pad


def _load_authors(authors: int, rng: RandomStream) -> Load:
    for a_id in range(1, authors + 1):
        # a_id, a_fname, a_lname, a_mname, a_dob, a_bio, a_bio2, a_bio3
        yield "author", a_id, (a_id, "fn%d" % a_id, "ln%d" % a_id, "m",
                               0, "bio", "bio", "bio")


def _load_customers(customers: int, rng: RandomStream) -> Load:
    for c_id in range(1, customers + 1):
        yield "customer", c_id, (
            c_id, "user%d" % c_id,                      # c_id, c_uname
            "pw%d" % c_id, "fn%d" % c_id,               # c_passwd, c_fname
            "ln%d" % c_id, 2 * c_id - 1,                # c_lname, c_addr_id
            "555-%07d" % c_id, "u%d@x.com" % c_id,      # c_phone, c_email
            0, 0, 0, 0,                                 # c_since .. c_expir.
            round(rng.uniform(0.0, 0.5), 2),            # c_discount
            0.0, 0.0, 0,                                # .. c_birthdate
            "d" * 16)                                   # c_data


def _load_addresses(addresses: int, rng: RandomStream) -> Load:
    for addr_id in range(1, addresses + 1):
        # addr_id, addr_street1, addr_street2, addr_city, addr_state,
        # addr_zip, addr_co_id
        yield "address", addr_id, (
            addr_id, "street %d" % addr_id, "", "city%d" % (addr_id % 100),
            "st", "%05d" % (addr_id % 99999), 1 + (addr_id % 92))


def _load_orders(orders: int, customers: int, items: int,
                 rng: RandomStream) -> Load:
    ol_id = 0
    for o_id in range(1, orders + 1):
        c_id = 1 + (o_id % max(1, customers))
        # o_id, o_c_id, o_date, o_sub_total, o_tax, o_total, o_ship_type,
        # o_ship_date, o_bill_addr_id, o_ship_addr_id, o_status
        yield "orders", o_id, (
            o_id, c_id, 0, 10.0, 0.8, 10.8, "air", 0,
            2 * c_id - 1, 2 * c_id, "shipped")
        for _line in range(3):
            ol_id += 1
            # ol_id, ol_o_id, ol_i_id, ol_qty, ol_discount, ol_comments
            yield "order_line", ol_id, (
                ol_id, o_id, rng.randint(1, max(1, items)),
                rng.randint(1, 5), 0.0, "c")
        # cx_o_id, cx_type, cx_num, cx_name, cx_expiry, cx_auth_id,
        # cx_xact_amt, cx_xact_date, cx_co_id
        yield "cc_xacts", o_id, (
            o_id, "VISA", "4111", "name", 0, "auth", 10.8, 0,
            1 + (o_id % 92))
