import csv
import logging
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import uatest
from uatest.dataset import (
    AttributeSchema,
    BudgetError,
    ContextPredicate,
    DataError,
    Dataset,
    load_csv,
    make_datasource,
    save_csv,
    schema_from_json,
)
from uatest.dataset import (
    _encode_table,
    _NeedsCsvReader,
    _parse_decimals,
    _split_csv,
    _split_unquoted,
)


def write_csv(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_load_csv_three_categorical_columns(tmp_path):
    rows = "\n".join(f"g{i % 2},s{i % 3},p{i % 2}" for i in range(10))
    path = write_csv(tmp_path, "d.csv", "gender,state,price\n" + rows + "\n")
    d = load_csv(path)
    assert d.n_rows == 10
    assert [a.kind for a in d.schema] == ["categorical"] * 3
    assert d.attribute("gender").categories == ("g0", "g1")


def test_inference_continuous_above_distinct_threshold(tmp_path):
    values = [1.5 + 0.5 * i for i in range(30)]
    path = write_csv(tmp_path, "c.csv", "x\n" + "\n".join(str(v) for v in values) + "\n")
    d = load_csv(path)
    assert d.attribute("x").kind == "continuous"


def test_inference_numeric_few_distinct_is_categorical(tmp_path):
    path = write_csv(tmp_path, "c.csv", "x\n" + "\n".join(str(i % 5) for i in range(40)) + "\n")
    d = load_csv(path)
    assert d.attribute("x").kind == "categorical"


def test_numeric_categories_are_listed_in_numeric_order(tmp_path):
    # a 0/1 column whose first row is 1 still lists 1, the present value, last
    assert load_csv(write_csv(tmp_path, "b.csv", "x\n1\n0\n1\n")).attribute("x").categories == (
        "0", "1")
    # NaN goes last and equal numbers keep first-appearance order; a column
    # with a cell that is not a number keeps first-appearance order
    d = load_csv(write_csv(tmp_path, "m.csv", "x,y\nnan,b\n10,10\n1.0,b\n2,\n1,a\n"))
    assert d.attribute("x").categories == ("1.0", "1", "2", "10", "nan")
    assert d.attribute("y").categories == ("b", "10", "a")


def test_ordinal_sidecar_without_categories_loads(tmp_path):
    path = write_csv(tmp_path, "o.csv", "v\n3\n1\n10\n2\n")
    v = load_csv(path, schema_from_json({"v": {"kind": "ordinal"}})).attribute("v")
    assert (v.kind, v.categories) == ("ordinal", ("1", "2", "3", "10"))


def test_declared_continuous_rejects_text_cell(tmp_path):
    path = write_csv(tmp_path, "bad.csv", "x\n1.0\nabc\n")
    with pytest.raises(DataError, match="unparseable cell"):
        load_csv(path, [AttributeSchema("x", "continuous")])


def test_duplicate_columns_and_empty_file(tmp_path):
    path = write_csv(tmp_path, "dup.csv", "a,a\n1,2\n")
    with pytest.raises(DataError, match="duplicate column names"):
        load_csv(path)
    empty = write_csv(tmp_path, "empty.csv", "")
    with pytest.raises(DataError, match="empty file"):
        load_csv(empty)


def test_missing_token_and_drop_missing(tmp_path):
    path = write_csv(tmp_path, "m.csv", "a,b\nx,1.0\n,2.0\ny,\n")
    d = load_csv(path, {"b": AttributeSchema("b", "continuous")})
    assert d.values("a") == ["x", None, "y"]
    kept = d.drop_missing(["a", "b"])
    assert kept.n_rows == 1
    assert kept.values("a") == ["x"]


def test_drop_missing_of_a_view_that_holds_no_missing_row():
    # the base column misses cells, so the view's rows are still read; a
    # view that reads first leaves its base's missing rows to be dropped
    d = Dataset([AttributeSchema("g", "categorical", categories=("x", "y")),
                 AttributeSchema("v", "continuous")],
                {"g": np.array([0, -1, 1, 0, 1], dtype=np.int32),
                 "v": np.array([1.0, 2.0, np.nan, 4.0, 5.0])})
    view = d._subset(np.array([4, 0, 3]))
    assert view.drop_missing(["g", "v"]) is view
    assert d.drop_missing(["g", "v"]).row_ids().tolist() == [0, 3, 4]
    assert d._subset(np.array([2, 4, 1])).drop_missing(["v"]).row_ids().tolist() == [4, 1]
    assert d._subset(np.array([2, 4, 1])).drop_missing(["g"]).row_ids().tolist() == [2, 4]


def test_drop_missing_drops_the_missing_cells_of_a_new_column():
    d = random_dataset(200, seed=16)
    assert d.drop_missing(["state", "race", "age"]) is d  # nothing is missing
    error = np.linspace(0.0, 1.0, d.n_rows)
    error[[3, 50]] = np.nan
    marked = d.with_encoded(AttributeSchema("error", "continuous"), error)
    kept = marked.drop_missing(["state", "error"])
    assert kept.row_ids().tolist() == [r for r in range(d.n_rows) if r not in (3, 50)]


def test_schema_from_json_roundtrip(tmp_path):
    overlay = schema_from_json({
        "a": {"kind": "categorical", "role": "protected", "categories": ["x", "y"]},
        "b": {"kind": "continuous", "role": "output"},
    })
    path = write_csv(tmp_path, "s.csv", "a,b\nx,1.5\ny,2.5\n")
    d = load_csv(path, overlay)
    assert d.attribute("a").role == "protected"
    assert d.attribute("b").kind == "continuous"


SCHEMA_AB = [AttributeSchema("a", "categorical", categories=("x", "y")),
             AttributeSchema("b", "continuous")]


@pytest.mark.parametrize("schema, message", [
    ({"a": AttributeSchema("b", "continuous")}, "schema name 'b' does not match column 'a'"),
    ({"a": SCHEMA_AB[0], "d": AttributeSchema("d", "continuous"),
      "c": AttributeSchema("c", "continuous")}, "schema names not in header: ['c', 'd']"),
    (SCHEMA_AB[::-1], None),
    ([SCHEMA_AB[0], AttributeSchema("c", "continuous")],
     "schema names do not match the file header"),
], ids=["mapping-name-differs", "mapping-names-not-in-header", "list-reordered",
        "list-other-names"])
def test_load_csv_checks_a_given_schema_against_the_header(tmp_path, schema, message):
    path = write_csv(tmp_path, "s.csv", "a,b\nx,1.5\ny,2.5\nx,\n")
    if message is not None:
        with pytest.raises(DataError, match=re.escape(message)):
            load_csv(path, schema)
        return
    # a full list in another order loads as the header-ordered list does
    got, want = load_csv(path, schema), load_csv(path, SCHEMA_AB)
    assert list(got.schema) == list(want.schema) == SCHEMA_AB
    assert [got.values(a.name) for a in SCHEMA_AB] == [["x", "y", "x"], [1.5, 2.5, None]]
    assert [want.values(a.name) for a in SCHEMA_AB] == [["x", "y", "x"], [1.5, 2.5, None]]


def random_dataset(n=1000, seed=0):
    rng = np.random.default_rng(seed)
    schema = [
        AttributeSchema("state", "categorical", "contextual", ("CA", "NY", "TX")),
        AttributeSchema("race", "categorical", "contextual", ("White", "Black")),
        AttributeSchema("age", "continuous", "contextual"),
    ]
    cols = {
        "state": rng.integers(0, 3, n).astype(np.int32),
        "race": rng.integers(0, 2, n).astype(np.int32),
        "age": rng.uniform(18, 90, n),
    }
    return Dataset(schema, cols)


def test_datasource_split_sizes_and_determinism():
    d = random_dataset(1000, seed=3)
    ds1 = make_datasource(d, budget=2, train_fraction=0.5, seed=7)
    ds2 = make_datasource(d, budget=2, train_fraction=0.5, seed=7)
    assert ds1.train.n_rows == 500
    tests1 = [ds1.next_test_set() for _ in range(ds1.budget)]
    assert [t.n_rows for t in tests1] == [250, 250]
    assert np.array_equal(ds1.train.row_ids(), ds2.train.row_ids())
    for a, b in zip(tests1, [ds2.next_test_set() for _ in range(ds2.budget)]):
        assert np.array_equal(a.row_ids(), b.row_ids())


def test_datasource_partition_property():
    d = random_dataset(997, seed=5)
    ds = make_datasource(d, budget=3, train_fraction=0.4, seed=1, min_size=30)
    pieces = [ds.train.row_ids()] + [ds.next_test_set().row_ids() for _ in range(ds.budget)]
    merged = np.concatenate(pieces)
    assert len(merged) == 997
    assert np.array_equal(np.sort(merged), np.arange(997))
    sizes = [len(p) for p in pieces[1:]]
    assert max(sizes) - min(sizes) <= 1


def test_datasource_insufficient_rows():
    d = random_dataset(1000, seed=2)
    with pytest.raises(DataError, match="insufficient rows"):
        make_datasource(d, budget=2, train_fraction=0.5, seed=0, min_size=200)


def test_datasource_rejects_a_negative_seed():
    with pytest.raises(DataError, match="^seed must be non-negative, got -1$"):
        make_datasource(random_dataset(1000, seed=2), budget=1, seed=-1)


def test_budget_semantics():
    d = random_dataset(1000, seed=4)
    ds = make_datasource(d, budget=2, train_fraction=0.5, seed=0)
    assert ds.consumed == 0
    t1 = ds.next_test_set()
    t2 = ds.next_test_set()
    assert ds.consumed == 2
    assert set(t1.row_ids()).isdisjoint(t2.row_ids())
    with pytest.raises(BudgetError, match="collect new data"):
        ds.next_test_set()
    single = make_datasource(d, budget=1, train_fraction=0.5, seed=0)
    assert single.next_test_set().n_rows == 500


def test_select_identity_and_conjunction():
    d = random_dataset(2000, seed=8)
    assert d.select([]).n_rows == 2000
    preds = [ContextPredicate("state", "in", values=("CA",)),
             ContextPredicate("race", "in", values=("White",))]
    sel = d.select(preds)
    states = set(sel.values("state"))
    races = set(sel.values("race"))
    assert states <= {"CA"} and races <= {"White"}
    manual = sum(1 for s, r in zip(d.values("state"), d.values("race"))
                 if s == "CA" and r == "White")
    assert sel.n_rows == manual


def test_select_threshold_and_nested_numeric():
    d = random_dataset(2000, seed=9)
    sel = d.select([ContextPredicate("age", "le", threshold=42.0)])
    assert all(v <= 42.0 for v in sel.values("age"))
    nested = sel.select([ContextPredicate("age", "gt", threshold=30.0)])
    both = d.select([ContextPredicate("age", "le", threshold=42.0),
                     ContextPredicate("age", "gt", threshold=30.0)])
    assert set(nested.row_ids()) == set(both.row_ids())


def test_select_idempotent_and_commutative():
    d = random_dataset(1500, seed=10)
    p1 = ContextPredicate("state", "in", values=("CA", "NY"))
    p2 = ContextPredicate("age", "gt", threshold=40.0)
    a = d.select([p1]).select([p2])
    b = d.select([p2]).select([p1])
    c = d.select([p1, p2])
    assert set(a.row_ids()) == set(b.row_ids()) == set(c.row_ids())
    assert set(c.select([p1]).row_ids()) == set(c.row_ids())


def test_select_operator_type_mismatch():
    d = random_dataset(100, seed=11)
    with pytest.raises(DataError):
        d.select([ContextPredicate("age", "in", values=("18",))])
    with pytest.raises(DataError):
        d.select([ContextPredicate("state", "le", threshold=1.0)])


def test_predicate_canonical_form_and_describe():
    p = ContextPredicate("state", "in", values=("NY", "CA", "NY"))
    assert p.values == ("CA", "NY")
    assert p.describe() == "state in {CA, NY}"
    assert ContextPredicate("state", "in", values=("CA",)).describe() == "state: CA"
    assert ContextPredicate("age", "le", threshold=42.0).describe() == "age <= 42"
    assert ContextPredicate("hours", "gt", threshold=55.5).describe() == "hours > 55.5"


def test_describe_non_finite_threshold():
    # a tree split between an infinite value and finite ones can cut at ±inf
    assert ContextPredicate("x", "le", threshold=-np.inf).describe() == "x <= -inf"
    assert ContextPredicate("x", "gt", threshold=-np.inf).describe() == "x > -inf"
    assert ContextPredicate("x", "le", threshold=np.inf).describe() == "x <= inf"
    assert ContextPredicate("x", "gt", threshold=np.nan).describe() == "x > nan"


def test_csv_roundtrip_exact(tmp_path):
    d = random_dataset(300, seed=12)
    path = tmp_path / "out.csv"
    save_csv(d, path)
    back = load_csv(path, {"age": AttributeSchema("age", "continuous")})
    assert back.values("state") == d.values("state")
    assert back.values("race") == d.values("race")
    assert np.array_equal(back.scalar_values("age"), d.scalar_values("age"))


def save_csv_by_rows(data, path):
    """Reference writer: every row built cell by cell from ``Dataset.values``."""
    names = data.attribute_names()
    columns = {}
    for name in names:
        cells = data.values(name)
        if data.attribute(name).kind == "continuous":
            cells = [None if v is None else repr(v) for v in cells]
        columns[name] = ["" if v is None else v for v in cells]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(names)
        for i in range(data.n_rows):
            writer.writerow([columns[name][i] for name in names])


def awkward_dataset():
    """Missing cells of every kind, signed zeros, infinities and categories
    that csv.writer must quote."""
    cats = ("plain", "a,b", 'say "hi"', "two\nlines", "\r", " ", "é")
    schema = [AttributeSchema("c", "categorical", "contextual", cats),
              AttributeSchema("x", "continuous"),
              AttributeSchema("o", "ordinal", "contextual", ("-1", "0.5", "10"))]
    x = [0.1, -0.0, 0.0, np.inf, -np.inf, np.nan, 1e300, 5e-324, -2.5, 1 / 3, 7.0, np.nan]
    return Dataset(schema, {"c": np.array([0, 1, 2, 3, 4, 5, 6, -1, -1, 0, 3, 1], dtype=np.int32),
                            "x": np.array(x),
                            "o": np.array([0, 1, 2, -1, 0, 1, 2, -1, 0, 1, 2, 0], dtype=np.int32)})


@pytest.mark.parametrize("make", [
    awkward_dataset,
    lambda: awkward_dataset().select([ContextPredicate("o", "gt", threshold=0.0)]),
    lambda: awkward_dataset()._subset(np.array([11, 3, 3, 0, 7])),
    lambda: Dataset([AttributeSchema("c", "categorical", "contextual", ("a", "b"))],
                    {"c": np.array([0, -1, 1, -1, -1], dtype=np.int32)}),
    lambda: Dataset([AttributeSchema("x", "continuous")], {"x": np.array([np.nan, -0.0, 2.0])}),
    lambda: awkward_dataset()._subset(np.array([], dtype=np.int64)),
], ids=["awkward", "selected", "reordered", "one-column-missing", "one-column-nan", "no-rows"])
def test_save_csv_writes_the_bytes_of_the_row_writer(tmp_path, make):
    data = make()
    save_csv(data, tmp_path / "columns.csv")
    save_csv_by_rows(data, tmp_path / "rows.csv")
    assert (tmp_path / "columns.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()


def test_ordinal_attributes():
    schema = [AttributeSchema("edu", "ordinal", "contextual", ("9", "10", "11", "12"))]
    d = Dataset.from_columns(schema, {"edu": ["9", "12", "10", "11", "9"]})
    assert np.array_equal(d.scalar_values("edu"), [9.0, 12.0, 10.0, 11.0, 9.0])
    sel = d.select([ContextPredicate("edu", "le", threshold=11.0)])
    assert sel.n_rows == 4
    with pytest.raises(DataError, match="numeric category values"):
        AttributeSchema("edu", "ordinal", "contextual", ("low", "high"))


def test_views_share_row_identity():
    d = random_dataset(500, seed=13)
    sel = d.select([ContextPredicate("state", "in", values=("CA",))])
    assert set(sel.row_ids()) <= set(d.row_ids())
    sub = sel.select([ContextPredicate("race", "in", values=("Black",))])
    assert set(sub.row_ids()) <= set(sel.row_ids())


def test_with_column_alignment():
    d = random_dataset(200, seed=14)
    sel = d.select([ContextPredicate("age", "le", threshold=50.0)])
    marked = sel.with_encoded(AttributeSchema("flag", "categorical", "output", ("0", "1")),
                              np.ones(sel.n_rows, dtype=np.int32))
    assert marked.values("flag") == ["1"] * sel.n_rows
    with pytest.raises(DataError):
        sel.with_encoded(AttributeSchema("age", "continuous"), np.zeros(sel.n_rows))


def test_with_encoded_on_a_view_leaves_its_relatives_alone():
    # views share their parent's schema and columns; a new column is the new view's own
    d = random_dataset(300, seed=15)
    ca = d.select([ContextPredicate("state", "in", values=("CA",))])
    ny = d.select([ContextPredicate("state", "in", values=("NY",))])
    flag = AttributeSchema("flag", "categorical", "output", ("0", "1"))
    marked = ca.with_encoded(flag, np.ones(ca.n_rows, dtype=np.int32))
    assert marked.attribute_names() == ("state", "race", "age", "flag")
    assert marked.codes("flag").tolist() == [1] * ca.n_rows
    for other in (d, ca, ny):
        assert other.attribute_names() == ("state", "race", "age")
        with pytest.raises(DataError, match="no attribute named 'flag'"):
            other.codes("flag")
    # the sibling can still add a column of the same name, with its own values
    assert ny.with_encoded(flag, np.zeros(ny.n_rows, dtype=np.int32)).codes("flag").sum() == 0


def test_inference_counts_nan_cells_as_one_number(tmp_path):
    # 1, 2 and nan are three distinct numbers however many nan rows there are
    path = write_csv(tmp_path, "n.csv", "x\n" + "\n".join(["1", "2", "nan"] * 20) + "\n")
    x = load_csv(path).attribute("x")
    assert x.kind == "categorical"
    assert x.categories == ("1", "2", "nan")
    # every spelling of NaN is the same number: 9 integers and NaN are 10 numbers
    cells = [str(i) for i in range(9)] + ["nan", "NaN", " nan"]
    path = write_csv(tmp_path, "s.csv", "x\n" + "\n".join(cells) + "\n")
    assert load_csv(path).attribute("x").kind == "categorical"
    path = write_csv(tmp_path, "t.csv", "x\n" + "\n".join(cells + ["9"]) + "\n")
    assert load_csv(path).attribute("x").kind == "continuous"


# -- the column encoder against a per-cell reference of the cell rules --------


def reference_encode(name, values, attr):
    """Each cell rule applied row by row: ``None``/"" missing, ``float()`` for
    continuous, ``str()`` codes otherwise, into categories listed by
    ``float()`` if every cell has one, else by first row; ``attr=None``
    infers the kind."""
    if attr is None:
        present = [v for v in values if v != ""]
        try:
            numbers = [float(v) for v in present]
        except ValueError:
            numbers = None
        distinct = None if numbers is None else (
            len({x for x in numbers if x == x}) + any(x != x for x in numbers))
        continuous = distinct is not None and distinct > 10
        attr = AttributeSchema(name, "continuous" if continuous else "categorical")
    if attr.kind == "continuous":
        out = np.empty(len(values))
        for i, v in enumerate(values):
            if v is None or v == "":
                out[i] = np.nan
                continue
            try:
                out[i] = float(v)
            except (TypeError, ValueError):
                raise DataError(f"unparseable cell {v!r} in continuous column {name!r} "
                                f"(row {i})") from None
        return attr, out
    strings = ["" if v is None else str(v) for v in values]
    if attr.categories is None:
        rows = [i for i, s in enumerate(strings) if s != ""]
        try:  # all numbers: ascending, NaN last, ties by first row; else by first row
            number = {i: float(values[i]) for i in rows}
            rows.sort(key=lambda i: (number[i] != number[i], number[i]))
        except (TypeError, ValueError):
            pass
        seen = {}
        for i in rows:
            seen.setdefault(strings[i], len(seen))
        attr = AttributeSchema(name, attr.kind, attr.role, tuple(seen))
    lookup = {c: i for i, c in enumerate(attr.categories)}
    out = np.empty(len(strings), dtype=np.int32)
    for i, s in enumerate(strings):
        if s == "":
            out[i] = -1
        elif s in lookup:
            out[i] = lookup[s]
        else:
            raise DataError(f"unparseable cell {s!r} in column {name!r}: "
                            f"not among declared categories (row {i})")
    return attr, out


def stored(data):
    """Schema and the bytes of every stored column."""
    return data.schema, [
        (data.scalar_values(a.name) if a.kind == "continuous" else data.codes(a.name)).tobytes()
        for a in data.schema]


def outcome(build):
    try:
        return stored(build())
    except DataError as exc:
        return "error", str(exc)


TEXT_CELLS = st.one_of(
    st.sampled_from(["", " 1.5", "1.5 ", "1_000", "inf", "-inf", "nan", "NaN", "-0.0", "0",
                     "1", "1.0", "1e3", "é", "日本", "a b"]),
    st.integers(-20, 20).map(str),
    st.floats(allow_nan=False, width=32).map(repr),
    st.text(st.characters(blacklist_categories=("Cs", "Cc")), max_size=3),
)
PROGRAM_CELLS = st.one_of(
    TEXT_CELLS,
    st.none(),
    st.integers(-20, 20),
    st.floats(allow_nan=False),
    st.just(float("nan")),
    st.floats(allow_nan=False, width=32).map(np.float32),
    st.integers(-2**63, 2**63 - 1).map(np.int64),
    st.booleans(),
)


def draw_column(data, cells, n):
    """``n`` cells drawn from a small pool, so that cells repeat as in real columns."""
    pool = data.draw(st.lists(cells, min_size=1, max_size=14))
    return data.draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))


def draw_schema(data, name, cells, infer):
    """A declared schema for one column, or ``None`` to infer it."""
    kinds = ["continuous", "categorical"] + (["infer"] if infer else [])
    kind = data.draw(st.sampled_from(kinds))
    if kind == "infer":
        return None
    if kind == "continuous" or not data.draw(st.booleans()):
        return AttributeSchema(name, kind)
    # every cell's string in some order, plus an unused one, less at most two
    pool = sorted({"" if c is None else str(c) for c in cells} - {""}) + ["zz"]
    dropped = data.draw(st.sets(st.sampled_from(pool), max_size=2))
    pinned = [c for c in data.draw(st.permutations(pool)) if c not in dropped]
    return AttributeSchema(name, "categorical", "contextual", tuple(pinned))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(st.data())
def test_from_columns_matches_per_cell_rules(data):
    n = data.draw(st.integers(0, 40))
    columns, schema = {}, []
    for j in range(data.draw(st.integers(1, 3))):
        cells = draw_column(data, PROGRAM_CELLS, n)
        columns[f"c{j}"] = cells
        schema.append(draw_schema(data, f"c{j}", cells, infer=False))

    def reference():
        encoded = [reference_encode(a.name, columns[a.name], a) for a in schema]
        return Dataset([a for a, _ in encoded], {a.name: col for a, col in encoded})

    assert outcome(lambda: Dataset.from_columns(schema, columns)) == outcome(reference)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(st.data())
def test_load_csv_matches_per_cell_rules(tmp_path_factory, data):
    n = data.draw(st.integers(1, 40))
    numeric = st.integers(0, 15).map(str)  # enough distinct numbers to infer continuous
    columns, given = {}, {}
    for j in range(data.draw(st.integers(1, 3))):
        cells = st.one_of(numeric, TEXT_CELLS) if data.draw(st.booleans()) else numeric
        columns[f"c{j}"] = draw_column(data, cells, n)
        attr = draw_schema(data, f"c{j}", columns[f"c{j}"], infer=True)
        if attr is not None:
            given[f"c{j}"] = attr
    path = tmp_path_factory.mktemp("enc") / "d.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(columns))
        writer.writerows(zip(*columns.values()))

    def reference():
        encoded = [reference_encode(name, cells, given.get(name)) for name, cells in columns.items()]
        return Dataset([a for a, _ in encoded], {a.name: col for a, col in encoded})

    assert outcome(lambda: load_csv(path, given)) == outcome(reference)


def test_ragged_row_is_named(tmp_path):
    path = write_csv(tmp_path, "r.csv", "a,b\nx,1\ny\nz,3,4\n")
    with pytest.raises(DataError, match=r"^row 2 has 1 fields, expected 2$"):
        load_csv(path)


def test_trailing_blank_lines_are_ignored(tmp_path):
    rows = "".join(f"g{i % 2},o{i % 3}\n" for i in range(300))
    d = load_csv(write_csv(tmp_path, "t.csv", "g,o\n" + rows + "\n\n"))
    assert d.n_rows == 300
    assert d.attribute_names() == ("g", "o")


def test_blank_line_between_rows_is_named(tmp_path):
    path = write_csv(tmp_path, "b.csv", "a,b\nx,1\n\ny,2\n")
    with pytest.raises(DataError, match=r"^row 2 has 0 fields, expected 2$"):
        load_csv(path)


@pytest.mark.parametrize("text,cells", [
    ("x\na\n\n\n", ["a", None, None]),
    ("x\na\n\nb\n", ["a", None, "b"]),
    ("x\r\na\r\n\r\nb", ["a", None, "b"]),
])
def test_blank_line_in_one_column_file_is_a_missing_cell(tmp_path, text, cells):
    # one field per line: a blank line is an empty field, and only the
    # final line end ends the file
    path = tmp_path / "one.csv"
    path.write_bytes(text.encode())
    for read in (load_csv, read_with_csv_reader, read_with_tokenizer):
        d = read(path)
        assert d.attribute_names() == ("x",)
        assert d.values("x") == cells


# -- the numpy tokenizer against csv.reader ----------------------------------


def read_with_csv_reader(path, schema="infer"):
    """What :func:`load_csv` gives when csv.reader reads the file."""
    text = path.read_bytes().decode("utf-8-sig")
    return _encode_table(*_split_csv(text, path), schema)[0]


def read_with_tokenizer(path, schema="infer"):
    """What :func:`load_csv` gives when the numpy tokenizer reads the file;
    raises ``_NeedsCsvReader`` for a file it declines."""
    return _encode_table(*_split_unquoted(path.read_bytes()), schema)[0]


UNQUOTED_CELLS = st.one_of(
    TEXT_CELLS.filter(lambda c: "," not in c and '"' not in c),
    # line breaks to str.splitlines but not to csv.reader, a byte order mark, a space
    st.sampled_from(["\u2028", "\x0b", "\x0c", "\x1c", "\x85", "\ufeff", " "]),
)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.data())
def test_numpy_tokenizer_matches_csv_reader(tmp_path_factory, data):
    names = [f"c{j}" for j in range(data.draw(st.integers(1, 3)))]
    n = data.draw(st.integers(1, 14))
    numeric = st.integers(0, 15).map(str)  # enough distinct numbers to infer continuous
    columns = {name: draw_column(data, st.one_of(numeric, UNQUOTED_CELLS), n) for name in names}
    lines = [",".join(names)] + [",".join(row) for row in zip(*columns.values())]
    for _ in range(data.draw(st.integers(0, 2))):
        i = data.draw(st.integers(0, len(lines) - 1))
        fault = data.draw(st.sampled_from(["blank line", "extra field", "missing field"]))
        if fault == "blank line":
            lines.insert(i, "")
        elif fault == "extra field" or len(names) == 1:
            lines[i] += ","
        else:
            lines[i] = lines[i].rpartition(",")[0]
    eol = data.draw(st.sampled_from(["\n", "\r\n"]))
    text = ("\ufeff" if data.draw(st.booleans()) else "") + eol.join(lines)
    text += eol * data.draw(st.integers(0, 3))  # no final newline, or trailing blank lines
    path = tmp_path_factory.mktemp("tok") / "d.csv"
    path.write_bytes(text.encode("utf-8"))
    schema = {}
    for name in names:
        attr = draw_schema(data, name, columns[name], infer=True)
        if attr is not None:
            schema[name] = attr

    expected = outcome(lambda: read_with_csv_reader(path, schema))
    assert outcome(lambda: load_csv(path, schema)) == expected
    # the tokenizer reads every file with a data row whose lines up to the
    # trailing blank ones carry the header's field count and whose header
    # names differ; csv.reader reads a blank line as no field, except in a
    # one-column file, where it is a missing cell up to the final line end
    header = lines[0].split(",")
    if len(header) == 1:
        body = text.removeprefix("\ufeff").removesuffix(eol)
        regular = bool(lines[0]) and "," not in body and eol in body
    else:
        kept = len(lines)
        while kept and not lines[kept - 1]:
            kept -= 1
        regular = (kept > 1 and len(set(header)) == len(header)
                   and all(line and line.count(",") == len(header) - 1 for line in lines[:kept]))
    event("numpy tokenizer" if regular else "csv.reader")
    if regular:
        assert outcome(lambda: read_with_tokenizer(path, schema)) == expected
    else:
        with pytest.raises(_NeedsCsvReader):
            read_with_tokenizer(path, schema)


# one byte each: what the tokenizer codes by first bytes, some of them line
# breaks to str.splitlines but not to csv.reader
ONE_BYTE_CELLS = st.sampled_from(["", "0", "1", "F", "M", "x", " ", "\t", "\x0b", "\x0c", "\x1c",
                                  ";", "7", "~"])


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.data())
def test_one_byte_columns_match_csv_reader(tmp_path_factory, data):
    n_columns = data.draw(st.one_of(st.just(1), st.integers(2, 40)))
    names = [f"c{j}" for j in range(n_columns)]
    n = data.draw(st.integers(1, 30))
    wide = st.one_of(st.integers(0, 15).map(str), UNQUOTED_CELLS)
    columns = [draw_column(data, ONE_BYTE_CELLS if data.draw(st.booleans())
                           else st.one_of(ONE_BYTE_CELLS, wide), n) for _ in names]
    for column in {0, n_columns - 1}:  # empty cells in the first and last columns
        for i in data.draw(st.lists(st.integers(0, n - 1), max_size=3)):
            columns[column][i] = ""
    eol = data.draw(st.sampled_from(["\n", "\r\n"]))
    text = ("\ufeff" if data.draw(st.booleans()) else "") + eol.join(
        [",".join(names)] + [",".join(row) for row in zip(*columns)])
    text += eol * data.draw(st.integers(0, 3))  # no final newline, or trailing blank lines
    path = tmp_path_factory.mktemp("block") / "d.csv"
    path.write_bytes(text.encode("utf-8"))
    schema = {}
    for name, cells in zip(names, columns):
        attr = draw_schema(data, name, cells, infer=True)
        if attr is not None:
            schema[name] = attr

    expected = outcome(lambda: read_with_csv_reader(path, schema))
    assert outcome(lambda: load_csv(path, schema)) == expected
    try:
        got = outcome(lambda: read_with_tokenizer(path, schema))
    except _NeedsCsvReader:
        # a one-column file whose only data row is a final blank line
        assert n_columns == 1 and text.removeprefix("\ufeff").count(eol) == 1
        event("csv.reader")
        return
    assert got == expected
    one_byte = sum(all(len(c.encode()) <= 1 for c in column) for column in columns)
    event("no one-byte column" if not one_byte else
          "one-byte block: all columns" if one_byte == n_columns else "one-byte block: some columns")
    if n_columns == 1 and "" in columns[0][:-1]:
        event("one column with a blank line")


def test_one_byte_columns_tokenize_in_a_bounded_multiple_of_the_file():
    """The traced peak of splitting and factorizing a wide file of one-byte
    cells stays below 3.5 times the file's size.

    Every field is two bytes of the file, a cell and its delimiter, and
    takes one int32 field end, so the field ends take 2 times the file, and
    the uint8 code of every cell 0.5 times. The rest is one chunk's or one
    block's scratch: a 1 MiB chunk's masks and int64 positions take about
    7 MB, and a block of 2**17 fields takes under 40 bytes a field, so at
    most 0.9 times this 8 MB file. Gathering the first bytes through one
    int64 index of every field would alone add 4 times the file."""
    rows, n_columns = 20_000, 200
    grid = np.full((rows, 2 * n_columns), ord(","), dtype=np.uint8)
    grid[:, 0::2] = np.random.default_rng(0).choice(np.frombuffer(b"01FM", np.uint8),
                                                    size=(rows, n_columns))
    grid[:, -1] = ord("\n")
    raw = (",".join(f"c{j}" for j in range(n_columns)) + "\n").encode() + grid.tobytes()
    del grid
    tracemalloc.start()
    try:
        header, columns = _split_unquoted(raw)
        factorized = list(columns)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(factorized) == n_columns and all(len(codes) == rows for _, codes in factorized)
    assert peak < 3.5 * len(raw)


def test_load_csv_lets_go_of_the_field_ends_after_the_last_wide_column(tmp_path):
    """The traced peak of ``load_csv`` on a wide file of one-byte cells
    whose two wider columns come first stays below 4.5 times the file.

    As in the test above, the int32 field ends take 2 times the file, the
    uint8 codes of the one-byte cells 0.5 times and one chunk's or block's
    scratch at most 0.9 times; the file's own bytes take 1 time, and the
    stored int32 columns 2 times, like the field ends. While the cells are
    measured the peak is at most 1 + 2 + 0.5 + 0.9 = 4.4 times the file, and
    after the field ends are let go the columns take 1 + 0.5 + 2 = 3.5 times
    and one column's scratch. Field ends kept until the last column is
    encoded would add their 2 times to that: 5.5 times."""
    rows, n_columns = 20_000, 200
    rng = np.random.default_rng(1)
    grid = np.full((rows, 10 + 2 * n_columns), ord(","), dtype=np.uint8)
    for start in (0, 5):  # two columns of cells "w" and 3 binary digits
        grid[:, start] = ord("w")
        grid[:, start + 1:start + 4] = rng.choice(np.frombuffer(b"01", np.uint8), size=(rows, 3))
    grid[:, 10::2] = rng.choice(np.frombuffer(b"01FM", np.uint8), size=(rows, n_columns))
    grid[:, -1] = ord("\n")
    path = tmp_path / "wide.csv"
    path.write_bytes((",".join(["a", "b"] + [f"c{j}" for j in range(n_columns)]) + "\n").encode()
                     + grid.tobytes())
    del grid
    tracemalloc.start()
    try:
        data = load_csv(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert data.n_rows == rows and len(data.schema) == n_columns + 2
    assert len(data.attribute("a").categories) == 8
    assert peak < 4.5 * path.stat().st_size


@pytest.mark.parametrize("text, reason, column", [
    ('a,b\n"x,y",1\nz,2\n', "a quote at byte offset 4", ["x,y", "z"]),
    ("a,b\nx,1\ry,2\n", r"a carriage return outside a \\r\\n line end", ["x", "y"]),
    ("a,b\nx\0,1\ny,2\n", "a NUL byte at byte offset 5", ["x\0", "y"]),
    ("a,b\n" + "é" * 33 + ",1\ny,2\n", "a cell wider than 64 bytes in column 'a'",
     ["é" * 33, "y"]),
])
def test_csv_reader_reads_what_the_tokenizer_declines(tmp_path, text, reason, column):
    path = tmp_path / "d.csv"
    path.write_bytes(text.encode("utf-8"))
    with pytest.raises(_NeedsCsvReader, match=f"^{reason}$"):
        read_with_tokenizer(path)
    assert load_csv(path).values("a") == column
    assert stored(load_csv(path)) == stored(read_with_csv_reader(path))


def test_tokenizer_reads_cells_of_64_bytes(tmp_path):
    wide = "é" * 32
    path = tmp_path / "d.csv"
    path.write_bytes(f"a,b\r\n{wide},1\r\ny,2\r\n".encode("utf-8"))
    assert read_with_tokenizer(path).values("a") == [wide, "y"]
    assert stored(load_csv(path)) == stored(read_with_csv_reader(path))


def test_load_csv_logs_which_reader_ran(tmp_path, caplog):
    plain = write_csv(tmp_path, "p.csv", "a,b\nx,1\n")
    quoted = write_csv(tmp_path, "q.csv", 'a,b\n"x",1\n')
    with caplog.at_level(logging.DEBUG, logger="uatest.dataset"):
        load_csv(plain)
        load_csv(quoted)
    assert caplog.messages == [f"read {plain} with the numpy tokenizer",
                               f"read {quoted} with csv.reader: the file has a quote "
                               "at byte offset 4"]


def test_load_csv_logs_how_many_wide_columns_parsed_as_decimals(tmp_path, caplog):
    path = write_csv(tmp_path, "w.csv", "x,name,g\n" + "".join(
        f"{i / 4},n{i % 3},{i % 2}\n" for i in range(40)))
    with caplog.at_level(logging.DEBUG, logger="uatest.dataset"):
        d = load_csv(path)
    assert [a.kind for a in d.schema] == ["continuous", "categorical", "categorical"]
    assert caplog.messages == [f"read {path} with the numpy tokenizer; the decimal kernel "
                               "parsed 1 of its 2 columns wider than one byte"]


# -- the decimal kernel against csv.reader and float() -------------------------


@st.composite
def decimal_cells(draw, max_digits):
    """A cell that matches ``-?[0-9]*(\\.[0-9]*)?``: a sign, leading zeros,
    a leading or trailing point, 1 to ``max_digits`` digits."""
    size = draw(st.one_of(st.integers(1, 6), st.integers(1, max_digits)))
    digits = draw(st.text("0123456789", min_size=size, max_size=size))
    cut = draw(st.one_of(st.none(), st.integers(0, len(digits))))  # where a point goes
    body = digits if cut is None else f"{digits[:cut]}.{digits[cut:]}"
    return draw(st.sampled_from(["", "-"])) + body


# float() reads most of these, and the decimal kernel none of them
REJECTED_DECIMALS = ["1e3", "1E-2", "nan", "inf", "-inf", "+1", " 1", "1 ", "1_0", "-", ".",
                     "-.", "1.2.3", "1-", "--1", "\u0661", "0x1", "abc"]


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.data())
def test_decimal_columns_match_csv_reader(tmp_path_factory, data):
    n = data.draw(st.integers(1, 100))
    # the first rows from one pool and the rest from another, so that a
    # column may hold few distinct numbers in its head and more after it
    split = min(n, data.draw(st.one_of(st.integers(0, n), st.just(64))))
    max_digits = data.draw(st.sampled_from([6, 15, 17]))  # 16 and 17 are too many
    pools = [data.draw(st.lists(st.one_of(decimal_cells(max_digits), st.just("")), min_size=1,
                                max_size=data.draw(st.sampled_from([4, 14, 40]))))
             for _ in range(2)]
    cells = [data.draw(st.sampled_from(pools[i >= split])) for i in range(n)]
    if data.draw(st.integers(0, 2)) == 0:  # one cell the kernel rejects, maybe past the head
        cells[data.draw(st.integers(0, n - 1))] = data.draw(st.sampled_from(REJECTED_DECIMALS))
    eol = data.draw(st.sampled_from(["\n", "\r\n"]))
    rows = [("x", "t")] + [(c, f"t{i % 2}") for i, c in enumerate(cells)]
    if data.draw(st.booleans()):  # the decimal column last, where a \r may end its cells
        rows = [row[::-1] for row in rows]
    text = "".join(",".join(row) + eol for row in rows)
    path = tmp_path_factory.mktemp("dec") / "d.csv"
    path.write_bytes(text.encode("utf-8"))
    attr = draw_schema(data, "x", cells, infer=True)
    schema = {} if attr is None else {"x": attr}

    expected = outcome(lambda: read_with_csv_reader(path, schema))
    assert outcome(lambda: load_csv(path, schema)) == expected
    accepted = all(re.fullmatch(r"-?[0-9]*(\.[0-9]*)?", c) and 1 <= sum(map(str.isdigit, c)) <= 15
                   for c in cells if c)
    numbers = {float(c) for c in cells if c} if accepted else set()
    event(f"schema {'inferred' if attr is None else attr.kind}")
    event("decimal kernel reads it" if accepted and max(map(len, cells)) > 1 and (
        attr is None and len(numbers) > 10 or attr is not None and attr.kind == "continuous")
        else "decimal kernel declines it")


def test_inference_counts_the_distinct_numbers_past_the_head(tmp_path):
    # the first 64 rows hold 5 distinct numbers, the rows after them 15 more
    cells = [f"{i % 5}.5" for i in range(64)] + [f"{i}.25" for i in range(15)]
    path = write_csv(tmp_path, "h.csv", "x\n" + "\n".join(cells) + "\n")
    assert load_csv(path).attribute("x").kind == "continuous"
    assert stored(load_csv(path)) == stored(read_with_csv_reader(path))
    few = write_csv(tmp_path, "f.csv", "x\n" + "\n".join(cells[:69]) + "\n")  # 10 numbers
    assert load_csv(few).attribute("x").kind == "categorical"
    assert stored(load_csv(few)) == stored(read_with_csv_reader(few))


@pytest.mark.parametrize("cell", [*REJECTED_DECIMALS, "1234567890123456", "-.1234567890123456",
                                  "123456789012345678"])
def test_decimal_kernel_declines(cell):
    raw = f"x\n1.5\n{cell}\n".encode()
    _, (spans,) = _split_unquoted(raw)
    assert _parse_decimals(*spans) is None


def test_decimal_kernel_parses_as_float():
    _, (spans,) = _split_unquoted(b"x\n1.5\n-0\n.25\n12.\n\n123456789012345\n")
    values = _parse_decimals(*spans)
    expected = [1.5, -0.0, 0.25, 12.0, float("nan"), 123456789012345.0]
    assert values.tobytes() == np.array(expected).tobytes()


@pytest.mark.parametrize("bom", [b"", b"\xef\xbb\xbf"])
def test_non_utf8_file_is_a_data_error(tmp_path, bom):
    path = tmp_path / "bad.csv"
    path.write_bytes(bom + b"a,b\nx,1\ny\xff,2\n")
    message = f"{path} is not UTF-8 text: byte 0xff on line 3 (byte offset {len(bom) + 9})"
    with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
        load_csv(path)


def test_cell_over_the_csv_field_limit_is_a_data_error(tmp_path):
    limit = csv.field_size_limit()
    path = write_csv(tmp_path, "long.csv", "a,b\nx,1\n" + "y" * (limit + 1) + ",2\n")
    message = f"{path}: line 3: field larger than field limit ({limit})"
    with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
        load_csv(path)


ROUNDTRIP_SCRIPT = """
import sys
import tracemalloc
from uatest.dataset import AttributeSchema, Dataset, load_csv, save_csv
cities = ("Z\\u00fcrich", "\\u6771\\u4eac")
d = Dataset.from_columns([AttributeSchema("city", "categorical", "contextual", cities)],
                         {"city": [cities[1], cities[0], ""]})
save_csv(d, sys.argv[1])
assert load_csv(sys.argv[1]).values("city") == [cities[1], cities[0], None]
"""


def test_csv_roundtrip_does_not_depend_on_the_locale(tmp_path):
    path = tmp_path / "u.csv"
    env = {**os.environ, "LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0",
           "PYTHONPATH": str(Path(uatest.__file__).parents[1])}
    subprocess.run([sys.executable, "-c", ROUNDTRIP_SCRIPT, str(path)], env=env,
                   check=True, timeout=60)
    assert path.read_bytes().decode("utf-8").splitlines() == ["city", "東京", "Zürich", '""']


# -- select against the all-rows mask conjunction ---------------------------

SELECT_SCHEMA = [
    AttributeSchema("c", "categorical", "contextual", ("a", "b", "c", "d")),
    AttributeSchema("r", "ordinal", "contextual", ("1", "2", "3", "5")),
    AttributeSchema("x", "continuous", "contextual"),
]
X_CELLS = (np.nan, -1.5, 0.0, 0.25, 2.0, 7.0)
THRESHOLDS = (-2.0, -1.5, 0.0, 0.1, 2.0, 2.5, 3.0, 5.0, 9.0)


def select_reference(view, predicates):
    """Row ids of ``view`` that meet every predicate, from one all-rows mask
    per predicate; assumes every predicate fits its column."""
    mask = np.ones(view.n_rows, dtype=bool)
    for p in predicates:
        if p.op == "in":
            mask &= np.array([v in p.values for v in view.values(p.attribute)], dtype=bool)
        elif p.op == "le":
            mask &= view.scalar_values(p.attribute) <= p.threshold
        else:
            mask &= view.scalar_values(p.attribute) > p.threshold
    return view.row_ids()[mask]


def draw_predicate(data):
    column = data.draw(st.sampled_from(("c", "r", "x")))
    if column == "x" or (column == "r" and data.draw(st.booleans())):
        return ContextPredicate(column, data.draw(st.sampled_from(("le", "gt"))),
                                threshold=data.draw(st.sampled_from(THRESHOLDS)))
    cats = SELECT_SCHEMA[0 if column == "c" else 1].categories
    values = data.draw(st.lists(st.sampled_from(cats), min_size=1, max_size=3))
    return ContextPredicate(column, "in", values=tuple(values))


BAD_PREDICATES = (
    ContextPredicate("c", "in", values=("zz",)),       # unknown category
    ContextPredicate("r", "in", values=("4",)),        # unknown ordinal category
    ContextPredicate("x", "in", values=("0",)),        # value set on a continuous column
    ContextPredicate("c", "le", threshold=1.0),        # threshold on a categorical column
    ContextPredicate("missing", "gt", threshold=0.0),  # no such column
)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.data())
def test_select_matches_mask_conjunction(data):
    n = data.draw(st.integers(0, 30))
    cols = {
        "c": np.array(data.draw(st.lists(st.integers(-1, 3), min_size=n, max_size=n)), dtype=np.int32),
        "r": np.array(data.draw(st.lists(st.integers(-1, 3), min_size=n, max_size=n)), dtype=np.int32),
        "x": np.array(data.draw(st.lists(st.sampled_from(X_CELLS), min_size=n, max_size=n))),
    }
    # the view addresses a subset of the stored rows in a shuffled order
    rows = data.draw(st.permutations(range(n)))[:data.draw(st.integers(0, n))]
    view = Dataset(SELECT_SCHEMA, cols, np.array(rows, dtype=np.int64))
    predicates = [draw_predicate(data) for _ in range(data.draw(st.integers(0, 5)))]

    got = view.select(predicates)
    assert np.array_equal(got.row_ids(), select_reference(view, predicates))
    if predicates:
        assert np.array_equal(got.row_ids(),
                              view.select(predicates[:-1]).select(predicates[-1:]).row_ids())
    else:
        assert got is view
    bad = data.draw(st.sampled_from(BAD_PREDICATES))
    at = data.draw(st.integers(0, len(predicates)))
    with pytest.raises(DataError):
        view.select(predicates[:at] + [bad] + predicates[at:])


BAD_MESSAGES = (
    "unknown category 'zz' for attribute 'c'",
    "unknown category '4' for attribute 'r'",
    "value-set predicate on 'x' requires a categorical or ordinal attribute",
    "threshold predicate on 'c' requires a scalar attribute",
    "no attribute named 'missing'",
)


def draw_children(data, m):
    """Disjoint children of some of the ``m`` parent members: a le/gt pair
    (or one side of it) on a scalar column, or single-value ``in``s of
    distinct categories; a parent may have none."""
    parents, preds = [], []
    for member in range(m):
        shape = data.draw(st.sampled_from(("none", "threshold", "values")))
        if shape == "threshold":
            column = data.draw(st.sampled_from(("x", "r")))
            t = data.draw(st.sampled_from(THRESHOLDS + (np.inf, -np.inf)))
            ops = data.draw(st.sampled_from((("le", "gt"), ("le",), ("gt",))))
            kids = [ContextPredicate(column, op, threshold=t) for op in ops]
        elif shape == "values":
            column = data.draw(st.sampled_from(("c", "r")))
            cats = SELECT_SCHEMA[0 if column == "c" else 1].categories
            picked = data.draw(st.lists(st.sampled_from(cats), min_size=1, max_size=3, unique=True))
            kids = [ContextPredicate(column, "in", values=(v,)) for v in picked]
        else:
            kids = []
        parents += [member] * len(kids)
        preds += kids
    order = data.draw(st.permutations(range(len(preds))))
    return [parents[j] for j in order], [preds[j] for j in order]


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.data())
def test_layer_key_matches_reference(data):
    # member j holds the rows of parent member parents[j] that the reference
    # finds for preds[j]; rows in no parent (-1) or under a parent without
    # children are in no member
    n = data.draw(st.integers(0, 30))
    cells = X_CELLS + (np.inf, -np.inf)
    cols = {
        "c": np.array(data.draw(st.lists(st.integers(-1, 3), min_size=n, max_size=n)), dtype=np.int32),
        "r": np.array(data.draw(st.lists(st.integers(-1, 3), min_size=n, max_size=n)), dtype=np.int32),
        "x": np.array(data.draw(st.lists(st.sampled_from(cells), min_size=n, max_size=n))),
    }
    rows = data.draw(st.permutations(range(n)))[:data.draw(st.integers(0, n))]
    view = Dataset(SELECT_SCHEMA, cols, np.array(rows, dtype=np.int64))
    m = data.draw(st.integers(0, 4))
    parent = np.array(data.draw(st.lists(st.integers(-1, m - 1), min_size=view.n_rows,
                                         max_size=view.n_rows)), dtype=np.intp)
    parents, preds = draw_children(data, m)

    key = view.layer_key(parent, parents, preds)
    want = np.full(view.n_rows, -1)
    for j, (p, pred) in enumerate(zip(parents, preds)):
        holds = np.isin(view.row_ids(), select_reference(view, [pred])) & (parent == p)
        assert not (holds & (want >= 0)).any()  # the members are disjoint
        want[holds] = j
    assert np.array_equal(key, want)

    b = data.draw(st.integers(0, len(BAD_PREDICATES) - 1))
    at = data.draw(st.integers(0, len(preds)))
    with pytest.raises(DataError, match=f"^{re.escape(BAD_MESSAGES[b])}$"):
        view.layer_key(parent, parents[:at] + [max(m - 1, 0)] + parents[at:],
                       preds[:at] + [BAD_PREDICATES[b]] + preds[at:])


def test_select_raises_after_an_empty_view():
    view = Dataset(SELECT_SCHEMA, {"c": np.array([0, 1, 2], dtype=np.int32),
                                   "r": np.array([0, -1, 3], dtype=np.int32),
                                   "x": np.array([0.0, np.nan, 2.0])})
    empty = [ContextPredicate("c", "in", values=("a",)), ContextPredicate("c", "in", values=("b",))]
    assert view.select(empty).n_rows == 0
    assert view.select(empty + [ContextPredicate("x", "gt", threshold=0.0)]).n_rows == 0
    for bad in BAD_PREDICATES:
        with pytest.raises(DataError):
            view.select(empty + [bad])
