"""Property-based round-trip tests for the mini-SQL parser/renderer:
``parse(render(ast)) == ast`` for randomly generated statements, and
the cached ``parse`` against a fresh full parser."""

from hypothesis import given, strategies as st

from repro.engine.sqlmini import (Begin, BinaryOp, ColumnDef, ColumnRef,
                                  Commit, Comparison, CreateIndex,
                                  CreateTable, Delete, Insert, Literal,
                                  Rollback, Select, Update, parse)

from _helpers import assert_parses_like_the_full_parser
from _render import render

identifier = st.from_regex(r"[a-z][a-z0-9_]{0,10}", fullmatch=True) \
    .filter(lambda s: s.upper() not in {
        "SELECT", "FROM", "WHERE", "AND", "ORDER", "BY", "DESC", "ASC",
        "LIMIT", "INSERT", "INTO", "VALUES", "UPDATE", "SET", "DELETE",
        "BEGIN", "COMMIT", "ROLLBACK", "ABORT", "CREATE", "TABLE",
        "INDEX", "ON", "PRIMARY", "KEY", "NULL"})

literal_value = st.one_of(
    st.none(),
    st.integers(min_value=-10**6, max_value=10**6),
    st.text(alphabet=st.characters(
        whitelist_categories=("Ll", "Lu", "Nd"),
        whitelist_characters=" '_-"), max_size=12),
)

comparison = st.builds(
    Comparison,
    column=identifier,
    op=st.sampled_from(["=", "!=", "<", "<=", ">", ">="]),
    value=literal_value.filter(lambda v: v is not None))

where_clause = st.lists(comparison, max_size=3).map(tuple)


@st.composite
def expression(draw, depth=2):
    if depth == 0 or draw(st.booleans()):
        if draw(st.booleans()):
            return ColumnRef(draw(identifier))
        return Literal(draw(st.integers(min_value=-100, max_value=100)))
    op = draw(st.sampled_from(["+", "-", "*"]))
    return BinaryOp(op, draw(expression(depth=depth - 1)),
                    draw(expression(depth=depth - 1)))


def _canonical_select(statement: Select) -> Select:
    """``descending`` is meaningless without ORDER BY; canonicalise it
    (the renderer cannot express the degenerate combination)."""
    if statement.order_by is None and statement.descending:
        import dataclasses
        return dataclasses.replace(statement, descending=False)
    return statement


select = st.builds(
    Select,
    table=identifier,
    columns=st.lists(identifier, max_size=3, unique=True).map(tuple),
    where=where_clause,
    order_by=st.one_of(st.none(), identifier),
    descending=st.booleans(),
    limit=st.one_of(st.none(), st.integers(min_value=0, max_value=500))
).map(_canonical_select)


@st.composite
def insert(draw):
    columns = tuple(draw(st.lists(identifier, min_size=1, max_size=4,
                                  unique=True)))
    values = tuple(draw(literal_value) for _c in columns)
    return Insert(draw(identifier), columns, values)


@st.composite
def update(draw):
    assignments = tuple(
        (draw(identifier), draw(expression()))
        for _i in range(draw(st.integers(min_value=1, max_value=3))))
    return Update(draw(identifier), assignments, draw(where_clause))


delete = st.builds(Delete, table=identifier, where=where_clause)

create_table = st.builds(
    CreateTable,
    table=identifier,
    columns=st.lists(identifier, min_size=1, max_size=4, unique=True)
    .map(lambda names: tuple(
        ColumnDef(name, "INT", primary_key=(index == 0))
        for index, name in enumerate(names))))

create_index = st.builds(CreateIndex, name=identifier, table=identifier,
                         column=identifier)

transaction_statement = st.sampled_from([Begin(), Commit(), Rollback()])

any_statement = st.one_of(select, insert(), update(), delete,
                          create_table, create_index,
                          transaction_statement)


@given(statement=any_statement)
def test_parse_render_roundtrip(statement):
    """parse(render(ast)) == ast, except ROLLBACK/ABORT aliasing."""
    text = render(statement)
    reparsed = parse(text)
    assert reparsed == statement


@given(statement=any_statement, cold=st.booleans())
def test_shape_cache_matches_the_full_parser(statement, cold):
    """Binding literals into a statement shape gives what tokenising
    and parsing the text gives, down to ``1`` versus ``1.0`` -- with the
    shape compiled for this statement (cold) or left behind by earlier
    examples (warm)."""
    if cold:
        parse.cache_clear()
    outcome = assert_parses_like_the_full_parser(render(statement))
    assert outcome[0] == "ok"


@given(statement=any_statement)
def test_render_is_stable(statement):
    """Rendering is a fixed point: render(parse(render(x))) ==
    render(x)."""
    once = render(statement)
    twice = render(parse(once))
    assert once == twice


@given(value=literal_value)
def test_literal_roundtrip_through_insert(value):
    statement = Insert("t", ("a",), (value,))
    assert parse(render(statement)) == statement
