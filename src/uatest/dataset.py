"""Typed tabular data with attribute roles and a budgeted train/test holdout scheme.

Datasets are immutable, columnar, and cheap to filter: a selection is a view
that shares column storage with its parent and carries only a row-index array.
The DataSource splits a dataset into one training set and a fixed budget of
disjoint test sets, one per adaptive investigation.
"""

from __future__ import annotations

import codecs
import csv
import io
import logging
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

CATEGORICAL = "categorical"
ORDINAL = "ordinal"
CONTINUOUS = "continuous"
KINDS = (CATEGORICAL, ORDINAL, CONTINUOUS)

ROLES = ("protected", "contextual", "explanatory", "output", "ignored")

logger = logging.getLogger(__name__)

MISSING = ""  # missing-value token in CSV files

# numeric columns with more distinct values than this are inferred continuous
INFER_DISTINCT_THRESHOLD = 10


class DataError(Exception):
    """Malformed input data or misuse of a dataset operation."""


class BudgetError(Exception):
    """The DataSource has no test sets left for further investigations."""


@dataclass(frozen=True)
class AttributeSchema:
    """Declared name, kind, default role, and category list of one column.

    Roles act as defaults; an investigation names its own protected,
    contextual, explanatory, and output attributes so a column may play
    several roles across investigations.
    """

    name: str
    kind: str = CATEGORICAL
    role: str = "contextual"
    categories: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise DataError(f"unknown attribute kind {self.kind!r} for {self.name!r}")
        if self.role not in ROLES:
            raise DataError(f"unknown attribute role {self.role!r} for {self.name!r}")
        if self.categories is not None:
            cats = tuple(str(c) for c in self.categories)
            object.__setattr__(self, "categories", cats)
            if self.kind == CONTINUOUS:
                raise DataError(f"continuous attribute {self.name!r} cannot carry a category list")
            if len(set(cats)) != len(cats):
                raise DataError(f"duplicate categories for attribute {self.name!r}")
            if self.kind == ORDINAL:
                try:
                    order = [float(c) for c in cats]
                except ValueError as exc:
                    raise DataError(
                        f"ordinal attribute {self.name!r} requires numeric category values"
                    ) from exc
                if sorted(order) != order:
                    raise DataError(f"ordinal categories for {self.name!r} must be sorted ascending")

    @property
    def is_scalar(self) -> bool:
        return self.kind in (CONTINUOUS, ORDINAL)


@dataclass(frozen=True)
class ContextPredicate:
    """A single clause of a context definition.

    ``in`` tests membership of a categorical or ordinal cell in a value set;
    ``le`` / ``gt`` compare a continuous or ordinal attribute against a
    threshold.
    """

    attribute: str
    op: str
    values: tuple[str, ...] | None = None
    threshold: float | None = None

    def __post_init__(self) -> None:
        if self.op == "in":
            if not self.values or self.threshold is not None:
                raise DataError(f"'in' predicate on {self.attribute!r} requires a value set only")
            canon = tuple(sorted({str(v) for v in self.values}))
            object.__setattr__(self, "values", canon)
        elif self.op in ("le", "gt"):
            if self.threshold is None or self.values is not None:
                raise DataError(f"{self.op!r} predicate on {self.attribute!r} requires a threshold only")
            object.__setattr__(self, "threshold", float(self.threshold))
        else:
            raise DataError(f"unknown predicate operator {self.op!r}")

    def describe(self) -> str:
        if self.op == "in":
            if len(self.values) == 1:
                return f"{self.attribute}: {self.values[0]}"
            return f"{self.attribute} in {{{', '.join(self.values)}}}"
        sym = "<=" if self.op == "le" else ">"
        return f"{self.attribute} {sym} {_fmt_number(self.threshold)}"


def _fmt_number(x: float) -> str:
    if math.isfinite(x) and x == int(x) and abs(x) < 1e15:
        return str(int(x))
    return f"{x:g}"


class Dataset:
    """Immutable columnar table addressed through a row-index view.

    Categorical and ordinal columns store int32 codes into their schema's
    category list (-1 marks a missing cell); continuous columns store float64
    with NaN for missing. Views created by :meth:`select` share the base
    arrays, so row identities are stable across arbitrary selections.
    """

    def __init__(
        self,
        schema: Sequence[AttributeSchema],
        columns: Mapping[str, np.ndarray],
        index: np.ndarray | None = None,
    ):
        self._schema = tuple(schema)
        self._by_name = {a.name: a for a in self._schema}
        if len(self._by_name) != len(self._schema):
            raise DataError("duplicate column names")
        self._cols = dict(columns)
        lengths = {len(v) for v in self._cols.values()}
        if len(lengths) != 1:
            raise DataError("all columns must have the same length")
        self._base_len = lengths.pop()
        if index is None:
            index = np.arange(self._base_len, dtype=np.int64)
        self._idx = np.asarray(index, dtype=np.int64)
        self._idx.setflags(write=False)
        # whether a base column holds a missing cell, filled on first read;
        # views share it, since a view's missing cells are among its base's
        self._base_missing: dict[str, bool] = {}

    # -- construction ------------------------------------------------------

    @classmethod
    def from_columns(cls, schema: Sequence[AttributeSchema], raw: Mapping[str, Sequence]) -> "Dataset":
        """Build a dataset from raw per-column values, encoding categoricals.

        Categorical/ordinal schemas without a pinned category list get one in
        ascending numeric order if every cell is a number, else in
        first-appearance order (see :func:`_encode_column`). Raw cells equal
        to ``None`` or the empty string are treated as missing.
        """
        schema = list(schema)
        if set(raw) != {a.name for a in schema}:
            raise DataError("column names do not match schema")
        encoded = [_encode_column(a.name, *_factorize(raw[a.name]), a) for a in schema]
        return cls([a for a, _ in encoded], {a.name: col for a, col in encoded})

    # -- basic access ------------------------------------------------------

    @property
    def schema(self) -> tuple[AttributeSchema, ...]:
        return self._schema

    @property
    def n_rows(self) -> int:
        return len(self._idx)

    def __len__(self) -> int:
        return self.n_rows

    def attribute(self, name: str) -> AttributeSchema:
        try:
            return self._by_name[name]
        except KeyError:
            raise DataError(f"no attribute named {name!r}") from None

    def attribute_names(self) -> tuple[str, ...]:
        return tuple(a.name for a in self._schema)

    def row_ids(self) -> np.ndarray:
        """Stable identities of this view's rows within the base storage."""
        return self._idx

    def codes(self, name: str) -> np.ndarray:
        """Integer category codes of a categorical/ordinal column (-1 missing)."""
        attr = self.attribute(name)
        if attr.kind == CONTINUOUS:
            raise DataError(f"attribute {name!r} is continuous and has no category codes")
        return self._cols[name][self._idx]

    def scalar_values(self, name: str) -> np.ndarray:
        """Float values of a continuous or ordinal column (NaN missing)."""
        attr = self.attribute(name)
        if attr.kind == CONTINUOUS:
            return self._cols[name][self._idx]
        if attr.kind == ORDINAL:
            table = np.array([float(c) for c in attr.categories], dtype=np.float64)
            codes = self._cols[name][self._idx]
            out = np.full(len(codes), np.nan)
            ok = codes >= 0
            out[ok] = table[codes[ok]]
            return out
        raise DataError(f"attribute {name!r} is categorical, not scalar")

    def values(self, name: str) -> list:
        """Decoded cell values: strings for categorical/ordinal, floats for continuous."""
        attr = self.attribute(name)
        if attr.kind == CONTINUOUS:
            return [None if np.isnan(v) else float(v) for v in self._cols[name][self._idx]]
        cats = attr.categories or ()
        return [None if c < 0 else cats[c] for c in self._cols[name][self._idx]]

    # -- views -------------------------------------------------------------

    def _subset(self, rows: np.ndarray) -> "Dataset":
        """View of ``rows`` (positions within this view) sharing its schema and columns."""
        view = object.__new__(Dataset)
        view.__dict__.update(self.__dict__, _idx=self._idx[rows])
        view._idx.setflags(write=False)
        return view

    def select(self, predicates: Sequence[ContextPredicate]) -> "Dataset":
        """Row-filtered view satisfying the conjunction of ``predicates``.

        Each predicate is a one-member ``layer_key`` of the rows the previous
        ones kept, so a view equals its parent's view filtered by its last
        predicate: ``d.select(p[:k])`` has the rows of
        ``d.select(p[:k-1]).select(p[k-1:k])`` in the same order. An empty
        list returns this view itself.
        """
        view = self
        for pred in predicates:
            key = view.layer_key(np.zeros(view.n_rows, dtype=np.intp), [0], [pred])
            view = view._subset(np.flatnonzero(key == 0))
        return view

    def layer_key(self, parent: np.ndarray, parents: Sequence[int],
                  preds: Sequence[ContextPredicate]) -> np.ndarray:
        """Each row's member of a layer, -1 for a row in none: member j holds
        the rows of parent member ``parents[j]`` that satisfy ``preds[j]``,
        where ``parent`` holds each row's parent member (-1 for none). The
        members of one parent must be disjoint.

        The members on one attribute are read from one table per layer, by
        parent member and the row's category code for ``in`` predicates, or
        its side of the parent's thresholds for ``le``/``gt``. A missing
        cell satisfies no predicate. A DataError for an unknown attribute or
        category, a value set on a continuous attribute or a threshold on a
        categorical one."""
        rows = max(int(parent.max(initial=-1)), max(parents, default=-1)) + 2
        key = np.full(self.n_rows, -1, dtype=np.intp)
        by_column: dict[tuple[str, bool], list[int]] = {}
        for j, pred in enumerate(preds):
            by_column.setdefault((pred.attribute, pred.op == "in"), []).append(j)
        for (name, is_in), members in by_column.items():
            attr = self.attribute(name)
            if is_in:
                if attr.kind == CONTINUOUS:
                    raise DataError(f"value-set predicate on {name!r} requires a "
                                    "categorical or ordinal attribute")
                lookup = {c: i for i, c in enumerate(attr.categories or ())}
                # the last column is -1 in every row, so a missing code, -1,
                # reads -1 from the row before (or from the table's end)
                table = np.full((rows, len(lookup) + 1), -1, dtype=np.intp)
                for j in members:
                    try:
                        table[parents[j], [lookup[v] for v in preds[j].values]] = j
                    except KeyError as exc:
                        raise DataError(f"unknown category {exc.args[0]!r} for attribute "
                                        f"{name!r}") from None
                column = self.codes(name)
            else:
                if not attr.is_scalar:
                    raise DataError(f"threshold predicate on {name!r} requires a scalar attribute")
                values = self.scalar_values(name)
                thr = np.full((2, rows), np.nan)  # each parent's le and gt threshold
                table = np.full((rows, 3), -1, dtype=np.intp)  # neither, le, gt
                for j in members:
                    side = int(preds[j].op == "gt")
                    thr[side, parents[j]] = preds[j].threshold
                    table[parents[j], side + 1] = j
                # NaN compares False, so a missing value or threshold holds no row
                le, gt = values <= thr[0][parent], values > thr[1][parent]
                column = le.view(np.int8) + 2 * gt.view(np.int8)
            # a flat index: a row in no parent, -1, reads the table's last row
            part = table.ravel()[parent * table.shape[1] + column]
            np.maximum(key, part, out=key)  # disjoint members: each row gets at most one
        return key

    def drop_missing(self, attrs: Iterable[str]) -> "Dataset":
        """View without rows that have a missing value in any of ``attrs``.
        A column whose base storage holds no missing cell is not read."""
        mask = np.ones(self.n_rows, dtype=bool)
        for name in attrs:
            continuous = self.attribute(name).kind == CONTINUOUS
            missing = self._base_missing.get(name)
            if missing is None:  # min() propagates a NaN, and allocates no mask
                base = self._cols[name]
                missing = self._base_missing[name] = bool(
                    np.isnan(base.min(initial=0.0)) if continuous else base.min(initial=0) < 0)
            if missing:
                col = self._cols[name][self._idx]
                mask &= ~np.isnan(col) if continuous else col >= 0
        if mask.all():
            return self
        return self._subset(np.flatnonzero(mask))

    def with_encoded(self, attr: AttributeSchema, column: np.ndarray) -> "Dataset":
        """New view with an extra column already in storage form, aligned to
        this view's rows: float64 (NaN missing) for a continuous ``attr``,
        otherwise int32 codes into ``attr.categories`` (-1 missing)."""
        if attr.name in self._by_name:
            raise DataError(f"attribute {attr.name!r} already exists")
        if len(column) != self.n_rows:
            raise DataError("new column length must match the view's row count")
        if attr.kind == CONTINUOUS:
            base = np.full(self._base_len, np.nan, dtype=np.float64)
        else:
            base = np.full(self._base_len, -1, dtype=np.int32)
        base[self._idx] = column
        cols = dict(self._cols)
        cols[attr.name] = base
        return Dataset(self._schema + (attr,), cols, self._idx)


def _factorize(values: Sequence) -> tuple[list, np.ndarray]:
    """Distinct cells of a column in first-appearance order, and each row's
    index into them. Only string cells are merged: cells that compare equal
    may still print differently (1, 1.0, True, -0.0), so a column holding any
    other cell keeps each row as its own cell."""
    try:
        distinct = list(dict.fromkeys(values))
    except TypeError:  # an unhashable cell
        distinct = None
    if distinct is None or not all(type(c) is str for c in distinct):
        return list(values), np.arange(len(values))
    position = {c: k for k, c in enumerate(distinct)}
    return distinct, np.fromiter(map(position.__getitem__, values), dtype=np.intp, count=len(values))


def _encode_column(name: str, cells: Sequence, rows: np.ndarray,
                   attr: AttributeSchema | None = None) -> tuple[AttributeSchema, np.ndarray]:
    """Schema and stored array of one column, given as its distinct ``cells``
    and each row's index into them (what :func:`_factorize` returns);
    ``attr=None`` infers the schema as :func:`load_csv` describes.

    Besides :func:`_parse_decimals`, which reads the decimal columns of the
    numpy tokenizer in place, this is the only reader of raw cells, and its
    rules run once per distinct cell: ``None`` and ``""`` are missing,
    continuous cells parse with ``float()``, other cells are coded by
    ``str()`` into the pinned category list, or else into one in ascending
    ``float()`` order (NaN last, equal numbers in first-appearance order)
    where every cell is a number, and in first-appearance order where one
    is not. An error names the cell's first row.
    """
    if attr is None or attr.kind == CONTINUOUS or attr.categories is None:
        numbers, bad = [], None  # None marks a missing cell
        for k, c in enumerate(cells):
            try:
                numbers.append(None if c is None or c == MISSING else float(c))
            except (TypeError, ValueError):
                bad = k
                break
        if attr is None:
            distinct = np.unique([x for x in numbers if x is not None])  # NaNs merge
            numeric = bad is None and len(distinct) > INFER_DISTINCT_THRESHOLD
            attr = AttributeSchema(name, CONTINUOUS if numeric else CATEGORICAL)
        if attr.kind == CONTINUOUS:
            if bad is not None:
                raise DataError(f"unparseable cell {cells[bad]!r} in continuous column {name!r} "
                                f"(row {int(np.argmax(rows == bad))})")
            return attr, np.array(numbers, dtype=np.float64).take(rows)
    strings = [MISSING if c is None else str(c) for c in cells]
    if attr.categories is None:
        order = [k for k, s in enumerate(strings) if s != MISSING]
        if bad is None:
            order.sort(key=lambda k: (math.isnan(numbers[k]), numbers[k]))
        attr = AttributeSchema(name, attr.kind, attr.role,
                               tuple(dict.fromkeys(strings[k] for k in order)))
    lookup = {c: i for i, c in enumerate(attr.categories)}
    lookup[MISSING] = -1
    codes = [lookup.get(s) for s in strings]
    if None in codes:
        bad = codes.index(None)
        raise DataError(f"unparseable cell {strings[bad]!r} in column {name!r}: not among "
                        f"declared categories (row {int(np.argmax(rows == bad))})")
    return attr, np.array(codes, dtype=np.int32).take(rows)


# -- CSV loading -----------------------------------------------------------

# Limits of the numpy tokenizer; larger files and wider cells go to csv.reader.
MAX_TOKENIZED_FILE_BYTES = 2**31 - 1  # byte positions are int32
MAX_TOKENIZED_CELL_BYTES = 64

_CHUNK_BYTES = 1 << 20  # delimiter positions are found this many bytes at a time
_BLOCK_FIELDS = 1 << 17  # cells are measured and coded in blocks of rows of about this many fields
_KEY_DTYPES = {2: np.uint16, 4: np.uint32, 8: np.uint64}
_EMPTY_FIRST_BYTES = [10, 13, 44]  # the first byte of an empty cell: "\n", "\r" or ","
_UNSEEN = 255  # code of a first byte not yet seen, above every code: a column has at most 252 cells


def load_csv(path, schema="infer") -> Dataset:
    """Load a comma-separated UTF-8 file with a mandatory header row.

    ``schema`` is either ``"infer"``, a full list of :class:`AttributeSchema`
    covering exactly the header columns, or a partial ``{name: schema}``
    mapping whose missing columns are inferred. Inference makes a column
    continuous when every non-missing cell parses as a number and there are
    more than 10 distinct numbers, where every ``nan`` cell counts as one
    number; otherwise categorical. A categorical or ordinal column without a
    pinned category list lists its categories in ascending numeric order if
    every non-missing cell is a number (NaN last, equal numbers such as ``1``
    and ``1.0`` in first-appearance order), else in first-appearance order.
    Each column is encoded from its distinct cells, so these rules run once
    per distinct cell, except in the decimal columns below.

    A file with no ``"`` or NUL byte, no ``\\r`` outside a ``\\r\\n`` line end,
    the header's field count on every line up to the trailing blank ones and
    no cell wider than 64 bytes is split by a numpy tokenizer; any other file
    is read by :func:`csv.reader`. The tokenizer factorizes every column of
    cells at most one byte wide as one block, from the first byte of each
    field, in the pass that measures cell widths; it factorizes wider columns
    one at a time. Before it factorizes a wider column that is inferred or
    pinned continuous, it tries to parse the column in one vectorized pass:
    where every non-empty cell is a decimal ``-?[0-9]*(\\.[0-9]*)?`` of 1 to
    15 digits, and an inferred column holds more than 10 distinct numbers,
    that pass gives ``float()``'s values bit for bit; any other column is
    factorized. Both readers give the same dataset, and the same
    error for a file they reject. A file that is not UTF-8 text or holds a
    cell longer than ``csv.field_size_limit()`` is a :class:`DataError`.
    The debug log names the reader that ran, and how many of the wider
    columns the vectorized pass parsed.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    _decode(raw, path)  # only csv.reader reads the text, so it is decoded again there
    try:
        header, columns = _split_unquoted(raw)
    except _NeedsCsvReader as exc:
        logger.debug("read %s with csv.reader: the file has %s", path, exc)
        return _encode_table(*_split_csv(_decode(raw, path), path), schema)[0]
    data, decimal = _encode_table(header, columns, schema)
    if decimal:
        logger.debug("read %s with the numpy tokenizer; the decimal kernel parsed %d of its "
                     "%d columns wider than one byte", path, sum(decimal), len(decimal))
    else:
        logger.debug("read %s with the numpy tokenizer", path)
    return data


def _decode(raw: bytes, path) -> str:
    """The text of a file's bytes, less a leading byte order mark."""
    try:
        return raw.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        # utf-8-sig reports offsets past the byte order mark
        offset = exc.start + (len(codecs.BOM_UTF8) if raw.startswith(codecs.BOM_UTF8) else 0)
        line = raw.count(b"\n", 0, offset) + 1
        raise DataError(f"{path} is not UTF-8 text: byte 0x{raw[offset]:02x} on line {line} "
                        f"(byte offset {offset})") from None


class _NeedsCsvReader(Exception):
    """The numpy tokenizer does not read this file; the message says why."""


def _split_unquoted(raw: bytes) -> tuple[list[str], Iterator[tuple[list, np.ndarray] | _Spans]]:
    """Header and columns of a CSV file's bytes, split with numpy.

    The columns no wider than one byte come coded before this returns, as
    :func:`_factorize` gives them: their distinct cells and each row's index
    into them. A wider column comes as the :class:`_Spans` of its cells,
    measured only when the iterator reaches it. Raises
    :class:`_NeedsCsvReader` for a file that csv.reader could read
    differently or that must fail with csv.reader's error.
    """
    if len(raw) > MAX_TOKENIZED_FILE_BYTES:
        raise _NeedsCsvReader("2 GiB or more")
    for byte, what in ((b'"', "a quote"), (b"\0", "a NUL byte")):
        if byte in raw:
            raise _NeedsCsvReader(f"{what} at byte offset {raw.index(byte)}")
    buf = np.frombuffer(raw, dtype=np.uint8)
    if b"\r" in raw:
        after_cr = np.flatnonzero(buf == 13) + 1
        if after_cr[-1] == len(buf) or (buf[after_cr] != 10).any():
            raise _NeedsCsvReader("a carriage return outside a \\r\\n line end")
    first = len(codecs.BOM_UTF8) if raw.startswith(codecs.BOM_UTF8) else 0
    header_end = raw.find(b"\n", first)
    end = len(raw)
    if b"," in raw[first:header_end if header_end >= 0 else end]:
        while end > first and raw[end - 1] in b"\r\n":
            end -= 1  # blank lines at the end of the file
    else:  # one column: a blank line is a missing cell, as in _split_csv
        end -= raw.endswith(b"\n") + raw.endswith(b"\r\n")
    if end == first:
        raise _NeedsCsvReader("no header row")
    if not first <= header_end < end:
        raise _NeedsCsvReader("no data rows")
    n_fields = raw.count(b",", first, header_end) + 1
    n_lines = _count_byte(buf, first, end, 10) + 1
    ends = _field_ends(buf, first, end, _count_byte(buf, first, end, 44) + n_lines)
    # every line has the header's field count exactly when there are that
    # many fields per newline and every n_fields-th field end is a newline
    if len(ends) != n_lines * n_fields or (buf[ends[n_fields - 1:-1:n_fields]] != 10).any():
        raise _NeedsCsvReader("a line whose field count is not the header's")
    grid = ends.reshape(-1, n_fields)
    header = raw[first:header_end].decode("utf-8").removesuffix("\r")
    if not header:
        raise _NeedsCsvReader("a blank header line")
    header = header.split(",")
    if len(set(header)) != len(header):
        raise _NeedsCsvReader("duplicate column names")
    widths, one_byte = _scan_cells(buf, grid)
    if widths.max() > MAX_TOKENIZED_CELL_BYTES:
        raise _NeedsCsvReader(f"a cell wider than {MAX_TOKENIZED_CELL_BYTES} bytes in column "
                              f"{header[int(np.argmax(widths))]!r}")
    return header, _columns(buf, grid, widths, one_byte)


class _Spans(NamedTuple):
    """A column wider than one byte, as the byte spans of its data cells."""

    buf: np.ndarray
    starts: np.ndarray
    lengths: np.ndarray
    width: int  # of its widest cell


def _columns(buf: np.ndarray, grid: np.ndarray | None, widths: np.ndarray,
             one_byte: dict[int, tuple[list[str], np.ndarray]]
             ) -> Iterator[tuple[list[str], np.ndarray] | _Spans]:
    """Each column of a file in order: the coded one-byte columns from
    ``one_byte``, as :func:`_factorize` gives them, and the wider ones as the
    spans of their cells in ``grid``, measured when reached. The grid is let
    go after the last wider column, so that it is not held while the columns
    after it are encoded."""
    last = max((j for j in range(len(widths)) if j not in one_byte), default=-1)
    for j, width in enumerate(widths.tolist()):
        if j > last:
            grid = None  # no later column reads it
        if j in one_byte:
            yield one_byte.pop(j)
        else:
            yield _Spans(buf, *_cell_spans(buf, grid, j), width)


def _count_byte(buf: np.ndarray, first: int, end: int, byte: int) -> int:
    """How often ``byte`` occurs in ``buf[first:end]``, counted a chunk at a time."""
    return sum(int(np.count_nonzero(buf[start:min(start + _CHUNK_BYTES, end)] == byte))
               for start in range(first, end, _CHUNK_BYTES))


def _field_ends(buf: np.ndarray, first: int, end: int, size: int) -> np.ndarray:
    """Position of every comma and newline in ``buf[first:end]``, then ``end``
    itself as the last line's end: ``size`` int32 positions in all, found a
    chunk at a time so that no int64 array spans the file."""
    ends = np.empty(size, dtype=np.int32)
    at = 0
    for start in range(first, end, _CHUNK_BYTES):
        chunk = buf[start:min(start + _CHUNK_BYTES, end)]
        found = np.flatnonzero((chunk == 44) | (chunk == 10))
        np.add(found, start, out=ends[at:at + len(found)], casting="unsafe")
        at += len(found)
    ends[at] = end
    return ends


def _cell_spans(buf: np.ndarray, grid: np.ndarray, j: int) -> tuple[np.ndarray, np.ndarray]:
    """Start and length in bytes of column ``j``'s cell on every data row;
    ``grid`` holds each field's end position, one line per row."""
    ends = grid[1:, j]
    starts = grid[:-1, -1] + 1 if j == 0 else grid[1:, j - 1] + 1
    if j == grid.shape[1] - 1:
        ends = ends - (buf[ends - 1] == 13)  # the \r of a \r\n line end
    return starts, ends - starts


def _scan_cells(buf: np.ndarray, grid: np.ndarray
                ) -> tuple[np.ndarray, dict[int, tuple[list[str], np.ndarray]]]:
    """The widest data cell of each column in bytes, as :func:`_cell_spans`
    measures cells, and :func:`_factorize` of each column no wider than one
    byte, by column index; taken a block of rows at a time to read ``grid`` in
    order, so that no int64 array spans the file.

    A cell's first byte sits one past the previous field's end. For an empty
    cell that byte is the ``,`` or ``\\n`` that ends it, the ``\\r`` of a
    ``\\r\\n`` line end, or, for the file's last cell, the end of the file,
    read clipped as the ``,`` before it. No cell of a one-byte column holds
    any of these bytes, so its first bytes alone identify its cells, and its
    codes fit in uint8.
    """
    widths = np.zeros(grid.shape[1], dtype=grid.dtype)
    code = np.full((grid.shape[1], 256), _UNSEEN, dtype=np.uint8)  # of each column's first bytes
    cells = [[] for _ in widths]
    coded = codes = None  # the columns one byte wide in the first block, and their rows' codes
    block_rows = max(1, _BLOCK_FIELDS // grid.shape[1])
    for row in range(1, len(grid), block_rows):
        ends = grid[row:row + block_rows]
        starts = np.empty_like(ends)
        starts[:, 0] = grid[row - 1:row - 1 + len(ends), -1] + 1
        starts[:, 1:] = ends[:, :-1] + 1
        lengths = ends - starts
        lengths[:, -1] -= buf[ends[:, -1] - 1] == 13
        np.maximum(widths, lengths.max(axis=0), out=widths)
        narrow = np.flatnonzero(widths <= 1)
        if codes is None:
            coded, codes = narrow, np.empty((len(narrow), len(grid) - 1), dtype=np.uint8)
        keys = buf.take(starts[:, narrow].T, mode="clip") + (narrow * 256)[:, None]
        block = code.take(keys)
        unseen = block == _UNSEEN
        if unseen.any():
            _code_new_cells(keys, unseen, code, cells)
            block = code.take(keys)
        codes[coded.searchsorted(narrow), row - 1:row - 1 + len(ends)] = block
    return widths, {j: (cells[j], codes[i]) for i, j in enumerate(coded.tolist()) if widths[j] <= 1}


def _code_new_cells(keys: np.ndarray, unseen: np.ndarray, code: np.ndarray,
                    cells: list[list[str]]) -> None:
    """Code every first byte of a block not yet coded, in first-appearance
    order: ``keys`` holds column index * 256 + first byte, a row per column,
    and ``unseen`` marks the keys that ``code`` does not hold. A column's
    first uncoded cell is its next cell in that order."""
    todo = np.arange(len(keys))
    while True:
        left = unseen.any(axis=1)
        if not left.any():
            return
        todo, unseen = todo[left], unseen[left]
        for key in keys[todo, unseen.argmax(axis=1)].tolist():
            j, byte = divmod(key, 256)
            code[j, _EMPTY_FIRST_BYTES if byte in _EMPTY_FIRST_BYTES else byte] = len(cells[j])
            cells[j].append("" if byte in _EMPTY_FIRST_BYTES else bytes([byte]).decode("utf-8"))
        unseen = code.take(keys[todo]) == _UNSEEN


def _factorize_spans(buf: np.ndarray, starts: np.ndarray, lengths: np.ndarray,
                     width: int) -> tuple[list[str], np.ndarray]:
    """:func:`_factorize` of the cells at byte spans of ``buf``, none wider
    than ``width``. Each cell is zero-padded into one integer key, or into a
    fixed-width string past 8 bytes, which identifies it because no cell
    holds a NUL byte."""
    size = next((b for b in _KEY_DTYPES if width <= b), width)
    packed = np.zeros((len(starts), size), dtype=np.uint8)
    for k in range(width):
        packed[:, k] = np.where(lengths > k, buf.take(starts + k, mode="clip"), 0)
    keys = packed.view(_KEY_DTYPES.get(size, f"S{size}")).ravel()
    if size <= 2:  # every possible key is its own id, with no sort
        universe, ids = np.arange(256**size, dtype=keys.dtype), keys
    else:
        universe, ids = np.unique(keys, return_inverse=True)
    first = np.full(len(universe), len(keys))
    np.minimum.at(first, ids, np.arange(len(keys)))
    seen = np.flatnonzero(first < len(keys))
    order = seen[np.argsort(first[seen])]  # ids in first-appearance order
    code = np.zeros(len(universe), dtype=np.intp)
    code[order] = np.arange(len(order))
    cells = [c.decode("utf-8") for c in universe[order].view(f"S{size}").tolist()]
    return cells, code[ids]


# A cell of at most this many digits holds a mantissa below 10**15 < 2**53:
# it and its power of ten are exact doubles, so one division rounds as float().
_DECIMAL_DIGITS = 15
_POWERS_OF_TEN = np.array([float(10**k) for k in range(_DECIMAL_DIGITS + 1)])
_DECIMAL_HEAD = 64  # cells a column must parse, and values counted, before the whole column


def _decimal_column(spans: _Spans, attr: AttributeSchema | None) -> np.ndarray | None:
    """The float64 storage of a column of decimal cells, inferred
    (``attr=None``) or pinned continuous, or None for any other column (see
    :func:`_parse_decimals`); its first ``_DECIMAL_HEAD`` cells are read
    before the whole column. An inferred column must also hold more than
    ``INFER_DISTINCT_THRESHOLD`` distinct numbers, else it is categorical;
    they are counted in the head first."""
    if attr is not None and attr.kind != CONTINUOUS:
        return None
    head = _parse_decimals(spans.buf, spans.starts[:_DECIMAL_HEAD],
                           spans.lengths[:_DECIMAL_HEAD], spans.width)
    values = None if head is None else _parse_decimals(*spans)
    if values is None or (attr is None and _distinct_numbers(head) <= INFER_DISTINCT_THRESHOLD
                          and _distinct_numbers(values) <= INFER_DISTINCT_THRESHOLD):
        return None
    return values


def _distinct_numbers(values: np.ndarray) -> int:
    return len(np.unique(values[~np.isnan(values)]))


def _parse_decimals(buf: np.ndarray, starts: np.ndarray, lengths: np.ndarray,
                    width: int) -> np.ndarray | None:
    """``float()`` of the cells at byte spans of ``buf``, none wider than
    ``width``, with NaN for an empty cell; None unless every other cell
    matches ``-?[0-9]*(\\.[0-9]*)?`` with 1 to ``_DECIMAL_DIGITS`` digits.

    Such a cell is m / 10**k for the integer m of its digits, k of them
    after the point, so Horner's rule over its bytes, one position at a
    time for every cell, and one division give ``float()``'s value bit for
    bit (Clinger's exact case), ``-0`` included.
    """
    if width > _DECIMAL_DIGITS + 2:  # a sign, a point and the digits
        return None
    starts = starts.astype(np.intp)
    cells = np.empty((width, len(starts)), dtype=np.uint8)  # a row per position, 0 past the end
    for k in range(width):
        buf.take(starts + k, mode="clip", out=cells[k])
        cells[k] *= lengths > k
    digit = cells - np.uint8(48)  # wraps: a byte that is no digit reads 10 or more
    is_digit = digit < 10
    point = cells == 46
    bad = ~(is_digit | point | (cells == 0))
    bad[0] &= cells[0] != 45  # a leading "-"
    digits = is_digit.sum(axis=0, dtype=np.uint8)
    if (bad.any() or (point.sum(axis=0, dtype=np.uint8) > 1).any()
            or ((lengths > 0) & ((digits == 0) | (digits > _DECIMAL_DIGITS))).any()):
        return None
    digit *= is_digit
    mantissa = np.zeros(len(starts))
    scale = np.zeros(len(starts), dtype=np.uint8)  # digits after the point
    after = np.zeros(len(starts), dtype=bool)
    for k in range(width):
        np.multiply(mantissa, 10.0, out=mantissa, where=is_digit[k])
        mantissa += digit[k]
        after |= point[k]
        scale += is_digit[k] & after
    values = mantissa / _POWERS_OF_TEN.take(scale)
    np.negative(values, out=values, where=cells[0] == 45)
    values[lengths == 0] = np.nan
    return values


def _split_csv(text: str, path) -> tuple[list[str], Iterator[tuple[list, np.ndarray]]]:
    """Header and factorized columns of a CSV text read by :func:`csv.reader`."""
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        rows = list(reader)
    except csv.Error as exc:
        raise DataError(f"{path}: line {reader.line_num}: {exc}") from None
    if rows and len(rows[0]) == 1:
        # in a one-column file every line after the header is a row, and a
        # blank one is a missing cell; only the final line end ends the file
        rows[1:] = [row or [MISSING] for row in rows[1:]]
    while rows and not rows[-1]:
        rows.pop()  # blank lines at the end of the file
    if not rows:
        raise DataError(f"empty file: {path}")
    header = rows[0]
    if len(set(header)) != len(header):
        raise DataError("duplicate column names")
    body = rows[1:]
    if not body:
        raise DataError(f"file has a header but no data rows: {path}")
    if set(map(len, body)) != {len(header)}:
        i, row = next((i, row) for i, row in enumerate(body) if len(row) != len(header))
        raise DataError(f"row {i + 1} has {len(row)} fields, expected {len(header)}")
    return header, map(_factorize, zip(*body))


def _encode_table(header: list[str], columns: Iterable[tuple[list, np.ndarray] | _Spans],
                  schema) -> tuple[Dataset, list[bool]]:
    """Dataset of a file's header and columns under ``schema`` (see
    :func:`load_csv`), and for each column given as :class:`_Spans` whether
    the decimal kernel read it. The other columns come factorized, and a
    column of spans that :func:`_decimal_column` declines is factorized."""
    if schema == "infer":
        attrs = [None] * len(header)
    elif isinstance(schema, Mapping):
        attrs = []
        for name in header:
            given = schema.get(name)
            if given is not None and given.name != name:
                raise DataError(f"schema name {given.name!r} does not match column {name!r}")
            attrs.append(given)
        extra = set(schema) - set(header)
        if extra:
            raise DataError(f"schema names not in header: {sorted(extra)}")
    else:
        attrs = list(schema)
        if [a.name for a in attrs] != header:
            if {a.name for a in attrs} == set(header):
                by_name = {a.name: a for a in attrs}
                attrs = [by_name[name] for name in header]
            else:
                raise DataError("schema names do not match the file header")
    encoded, decimal = [], []
    for name, attr, column in zip(header, attrs, columns):
        if isinstance(column, _Spans):
            values = _decimal_column(column, attr)
            decimal.append(values is not None)
            if values is not None:
                encoded.append((attr or AttributeSchema(name, CONTINUOUS), values))
                continue
            column = _factorize_spans(*column)
        encoded.append(_encode_column(name, *column, attr))
    return Dataset([a for a, _ in encoded], {a.name: col for a, col in encoded}), decimal


def schema_from_json(obj: Mapping) -> dict[str, AttributeSchema]:
    """Build a partial schema mapping from a sidecar JSON object.

    Format: ``{"column": {"kind": ..., "role": ..., "categories": [...]}}``
    with every field optional.
    """
    if not isinstance(obj, Mapping):
        raise DataError(f"expected a JSON object of column settings, got {type(obj).__name__}")
    out: dict[str, AttributeSchema] = {}
    for name, spec in obj.items():
        if not isinstance(spec, Mapping):
            raise DataError(f"the settings of column {name!r} must be a JSON object, "
                            f"got {spec!r}")
        cats = spec.get("categories")
        if cats is not None and not isinstance(cats, list):
            raise DataError(f"the categories of column {name!r} must be a JSON list, got {cats!r}")
        out[name] = AttributeSchema(
            name,
            kind=spec.get("kind", CATEGORICAL),
            role=spec.get("role", "contextual"),
            categories=tuple(cats) if cats is not None else None,
        )
    return out


def save_csv(data: Dataset, path) -> None:
    """Serialize a dataset view back to CSV; inverse of :func:`load_csv`.

    Each column is decoded whole: categories by one lookup of the codes, in
    which code -1 finds the missing cell at the end, and numbers by ``repr``.
    """
    columns = []
    for attr in data.schema:
        if attr.kind == CONTINUOUS:
            columns.append([MISSING if v != v else repr(v)
                            for v in data.scalar_values(attr.name).tolist()])
        else:
            cells = np.array([*(attr.categories or ()), MISSING], dtype=object)
            columns.append(cells[data.codes(attr.name)].tolist())
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(data.attribute_names())
        writer.writerows(zip(*columns))


# -- budgeted holdout ------------------------------------------------------


class DataSource:
    """Holds the train set and ``budget`` disjoint test sets of one dataset.

    Each adaptive investigation must consume a fresh test set through
    :meth:`next_test_set`; once the budget is spent, new data is required.
    The consumed counter is the only mutable state; callers must serialize
    access to it.
    """

    def __init__(self, data: Dataset, budget: int, train_fraction: float = 0.5,
                 seed: int = 0, min_size: int = 100):
        if budget < 1:
            raise DataError("budget must be at least 1")
        if not 0.0 < train_fraction < 1.0:
            raise DataError("train_fraction must lie strictly between 0 and 1")
        if seed < 0:
            raise DataError(f"seed must be non-negative, got {seed}")
        n = data.n_rows
        n_train = int(n * train_fraction + 0.5)
        n_rest = n - n_train
        if n_rest // budget < 2 * min_size:
            raise DataError(
                f"insufficient rows: {n_rest // budget} per test set, "
                f"need at least {2 * min_size}"
            )
        rng = np.random.default_rng(seed)
        perm = rng.permutation(n)
        self._train = data._subset(perm[:n_train])
        sizes = [n_rest // budget + (1 if i < n_rest % budget else 0) for i in range(budget)]
        self._tests = []
        start = n_train
        for size in sizes:
            self._tests.append(data._subset(perm[start:start + size]))
            start += size
        self.budget = budget
        self.train_fraction = train_fraction
        self.seed = seed
        self.min_size = min_size
        self._consumed = 0

    @property
    def train(self) -> Dataset:
        return self._train

    @property
    def consumed(self) -> int:
        return self._consumed

    def next_test_set(self) -> Dataset:
        if self._consumed >= self.budget:
            raise BudgetError(
                f"investigation budget of {self.budget} exhausted; "
                "collect new data before running further investigations"
            )
        test = self._tests[self._consumed]
        self._consumed += 1
        return test


def make_datasource(data: Dataset, budget: int, train_fraction: float = 0.5,
                    seed: int = 0, min_size: int = 100) -> DataSource:
    """Seeded uniform split into a train set and ``budget`` equal test sets."""
    return DataSource(data, budget, train_fraction, seed, min_size)
