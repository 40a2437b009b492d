"""JSON and CSV codecs plus run manifests for the command-line pipelines.

Every document carries schema_version "1".  Grids serialize their endpoints
as exact fraction strings; chaos and measure entries are listed sorted by
(cardinality, index) so output files are canonical.  A JSON file holds
exactly the bytes of ``json.dumps(data, indent=2)`` plus a newline, so
doubles round-trip exactly.  All file writes are atomic (temp file in the
target directory, then rename).
"""
from __future__ import annotations

import gc
import hashlib
import json
import math
import os
import sys
import tempfile
import time
from fractions import Fraction
from functools import lru_cache
from itertools import chain, islice, repeat
from operator import eq, is_, itemgetter

import numpy as np

from .chaos import HERMITE, WALSH, ChaosCoefficients, _unrepeated
from .functionals import (
    BrownianProgram,
    FamilyRef,
    ItoTerm,
    MapFactor,
    MapTerm,
    NoiseFunctional,
    RademacherTable,
)
from .grid import TimeGrid
from .kernels import SimplexKernel
from .spectral import SpectralMeasure, _AtomTable, _set_order
from .walsh import DENSE_CELL_CAP, _subset_keys, cells_of_rows

SCHEMA_VERSION = "1"


class FormatError(ValueError):
    """Malformed or unsupported on-disk data."""


# ---------------------------------------------------------------------------
# grid


def grid_to_data(grid: TimeGrid) -> dict:
    data = {
        "start": str(grid.interval_start),
        "end": str(grid.interval_end),
        "level": grid.level,
    }
    if grid.base != 2:
        data["base"] = grid.base
    return data


def grid_from_data(data: dict) -> TimeGrid:
    try:
        return TimeGrid(
            Fraction(data["start"]),
            Fraction(data["end"]),
            data["level"],
            data.get("base", 2),
        )
    except (KeyError, ValueError, ZeroDivisionError) as exc:
        raise FormatError(f"bad grid record: {exc}") from exc


# ---------------------------------------------------------------------------
# kernels


def kernel_to_data(k: SimplexKernel) -> dict:
    data: dict = {"order": k.order, "n_cells": k.n_cells}
    if any(ch != 0 for ch in k.channels):
        data["channels"] = list(k.channels)
    if k.factors is not None:
        data["factors"] = [v.tolist() for v in k.factors]
    else:
        data["dense"] = k.dense.tolist()
    return data


def kernel_from_data(data: dict, n_cells: int | None = None) -> SimplexKernel:
    try:
        order = data["order"]
        n = data.get("n_cells", n_cells if n_cells is not None else 0)
        if n <= 0:
            raise FormatError("kernel needs n_cells (or a grid to supply it)")
        channels = data.get("channels", ())
        if "constant" in data:
            value = _numbers(data["constant"], "constant", scalar=True)
            return SimplexKernel.constant(order, n, value, channels)
        if "factors" in data:
            factors = tuple(_numbers(v, "factors") for v in data["factors"])
            return SimplexKernel(order, n, factors=factors, channels=channels)
        if "dense" in data:
            dense = _numbers(data["dense"], "dense")
            if order == 2 and dense.ndim == 2 and np.tril(dense).any():
                # the kernel keeps only i < j: refuse what it would drop
                i, j = np.argwhere(np.tril(dense))[0].tolist()
                raise FormatError(f"dense order-2 kernel weight {float(dense[i, j])!r} at "
                                  f"({i}, {j}) is not above the diagonal; only i < j is read")
            return SimplexKernel(order, n, dense=dense, channels=channels)
    except FormatError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"bad kernel record: {exc}") from exc
    raise FormatError("kernel record needs one of constant/factors/dense")


# ---------------------------------------------------------------------------
# functionals


def functional_to_data(f: NoiseFunctional) -> dict:
    data: dict = {"schema_version": SCHEMA_VERSION, "grid": grid_to_data(f.grid)}
    b = f.backend
    if isinstance(b, RademacherTable):
        data["kind"] = "table"
        data["values"] = b.values.tolist()
    elif isinstance(b, ChaosCoefficients):
        data["kind"] = "walsh-chaos" if b.kind == WALSH else "hermite-chaos"
        if b.kind == WALSH:  # a measure file's route: rows in (cardinality, cells) order
            order, n = _set_order(b.rows, len(b.rows)), f.grid.n_cells
            rows, coeffs = b.rows[order], b.coeffs[order]
            data["entries"] = _TableRecords(cells_of_rows(rows, n), rows, coeffs, "coeff", n, list)
        else:
            data["entries"] = [{"terms": [list(t) for t in ix], "coeff": c}
                               for ix, c in b.sorted_items()]
        if b.residual:
            data["residual"] = b.residual
        if b.channels != 1:
            data["channels"] = b.channels
    elif isinstance(b, BrownianProgram):
        data["kind"] = "program"
        data["degree_cap"] = b.degree_cap
        if b.channels != 1:
            data["channels"] = b.channels
        terms = []
        for t in b.terms:
            if isinstance(t, ItoTerm):
                terms.append({"type": "ito", "weight": t.weight,
                              "kernel": kernel_to_data(t.kernel)})
            else:
                terms.append({
                    "type": "map",
                    "weight": t.weight,
                    "factors": [
                        {"cell": fa.cell, "channel": fa.channel,
                         "fn": fa.fn, "params": list(fa.params)}
                        for fa in t.factors
                    ],
                })
        data["terms"] = terms
    elif isinstance(b, FamilyRef):
        data["kind"] = "family"
        data["name"] = b.name
        data["level"] = b.level
    else:
        raise FormatError(f"cannot serialize backend {type(b).__name__}")
    return data


def functional_from_data(data: dict) -> NoiseFunctional:
    _check_version(data)
    grid = grid_from_data(_get(data, "grid"))
    kind = _get(data, "kind")
    try:
        if kind == "table":
            return NoiseFunctional.from_table(grid, _numbers(_get(data, "values"), "values"))
        if kind in ("walsh-chaos", "hermite-chaos"):
            # a repeat would collapse in the dict before ChaosCoefficients checks the keys
            rows, walsh = _get(data, "entries"), kind == "walsh-chaos"
            field = "cells" if walsh else "terms"
            lists = list(map(itemgetter(field), rows))
            keys = list(map(tuple, lists)) if walsh else [tuple(map(tuple, t)) for t in lists]
            values = _numbers(list(map(itemgetter("coeff"), rows)), "coeff")
            entries = _unrepeated(keys, values.tolist(), field, lists, FormatError)
            residual = _numbers(data.get("residual", 0.0), "residual", True, scalar=True)
            return NoiseFunctional.from_chaos(ChaosCoefficients(
                grid, entries, WALSH if walsh else HERMITE,
                data.get("channels", 1), residual))
        if kind == "program":
            terms: list = []
            for i, row in enumerate(_get(data, "terms")):
                try:
                    weight = _numbers(row["weight"], "weight", scalar=True)
                    if row.get("type") == "ito":
                        terms.append(ItoTerm(weight, kernel_from_data(row["kernel"], grid.n_cells)))
                    elif row.get("type") == "map":
                        factors = tuple(MapFactor(fa["cell"], fa.get("channel", 0), str(fa["fn"]),
                                                  tuple(_numbers(fa.get("params", []), "params")))
                                        for fa in row["factors"])
                        terms.append(MapTerm(weight, factors))
                    else:
                        raise FormatError(f"unknown program term type {row.get('type')!r}")
                except (KeyError, TypeError, ValueError) as exc:
                    raise FormatError(f"terms[{i}]: {exc}") from exc
            return NoiseFunctional.from_program(
                grid, terms,
                degree_cap=data.get("degree_cap", 4),
                channels=data.get("channels", 1),
            )
        if kind == "family":
            params = data.get("params", {})
            f = NoiseFunctional.from_family(_get(data, "name"), _get(data, "level"), **params)
            if f.grid != grid:
                raise FormatError("family regenerated on a different grid than recorded")
            return f
    except FormatError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"bad functional record: {exc}") from exc
    raise FormatError(f"unknown functional kind {kind!r}")


# ---------------------------------------------------------------------------
# measures and sets


def measure_to_data(mu: SpectralMeasure) -> dict:
    """Entries in the atom table's (cardinality, cells) order.

    "cells" holds the table's keys, decoded once from its bit rows and shared.
    Each record list is a `_TableRecords`, so `write_json` renders its cells
    from the bit rows and its masses from the table's float list.
    """
    if not mu.is_dense:
        raise FormatError("model-backed measures have no dense serialization")
    t = mu._atoms
    data: dict = {"schema_version": SCHEMA_VERSION, "grid": grid_to_data(mu.grid)}
    parts = [("entries", slice(t.n_plain))]
    if len(t.mass) > t.n_plain:
        parts.append(("multiplicity_entries", slice(t.n_plain, None)))
    for name, part in parts:
        data[name] = _TableRecords(t.keys[part], t.rows[part], t.mass[part], "mass", t.n_cells)
    if mu.residual:
        data["residual"] = mu.residual
    return data


class _TableRecords(list):
    """The {"cells": keys[i], field: floats[i]} records of `_checked_rows` rows and their
    key tuples, a list like any other; with cells=list, a list of keys[i] stands in.

    While `intact`, `write_json` renders its cells from rows[i] or keys[i] and its field
    as `repr(floats[i])`; any other list, an edited one too, goes to `json.dumps`.
    """

    def __init__(self, keys, rows, floats: np.ndarray, field: str, n_cells: int, cells=tuple):
        self.keys, self.rows, self.field, self.n_cells = keys, rows, field, n_cells
        self.floats = floats.tolist()
        shown = keys if cells is tuple else map(cells, keys)
        super().__init__({"cells": k, field: v} for k, v in zip(shown, self.floats))

    def intact(self) -> bool:
        """Whether every record is still a dict of the keys ("cells", field) in that order,
        holding its own finite float, and its own key tuple or a list of that tuple's ints
        (tuples and floats are immutable, so identity proves their text)."""
        if not (len(self) == len(self.keys) and all(map(isinstance, self, repeat(dict)))
                and all(map(("cells", self.field).__eq__, map(tuple, self)))):
            return False
        cells = list(map(itemgetter("cells"), self))
        return (all(map(is_, map(itemgetter(self.field), self), self.floats))
                and all(map(math.isfinite, self.floats))
                and (all(map(is_, cells, self.keys)) or all(map(eq, cells, map(list, self.keys)))
                     and set(map(type, chain.from_iterable(cells))) <= {int}))


def measure_from_data(data: dict) -> SpectralMeasure:
    _check_version(data)
    grid = grid_from_data(_get(data, "grid"))
    try:
        plain = _get(data, "entries")
        more = data.get("multiplicity_entries")
        records = [*plain, *more] if more else plain
        mass = _numbers(list(map(itemgetter("mass"), records)), "mass", nonnegative=True)
        cells = list(map(itemgetter("cells"), records))  # `_AtomTable.packed` checks them
        table = _AtomTable.packed(cells, mass, len(plain), grid.n_cells)
        residual = _numbers(data.get("residual", 0.0), "residual", True, scalar=True)
        return SpectralMeasure._of_dense(grid, table, residual)
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"bad measure record: {exc}") from exc


# ---------------------------------------------------------------------------
# files


def read_json(path: str) -> dict:
    """Parse a JSON file with the cyclic GC suspended.

    `json.load` builds only acyclic containers, and a 2^18-atom measure file
    allocates enough of them to trigger hundreds of collections that find
    nothing.  The caller's GC state is restored on every exit.
    """
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise FormatError(
            f"{path}: malformed JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except OSError as exc:
        raise FormatError(f"{path}: {exc.strerror or exc}") from exc
    finally:
        if gc_was_enabled:
            gc.enable()


def _atomic_write(path: str, chunks) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_json(path: str, data: dict) -> None:
    """Write the bytes of ``json.dumps(data, indent=2) + "\n"``, in a stream."""
    chunks = _json_chunks(data, 0)
    _atomic_write(path, chain(chunks, ("\n",)))


def write_csv(path: str, header: list[str], rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(map(str, row)))
    _atomic_write(path, ("\n".join(lines), "\n"))


# ---------------------------------------------------------------------------
# the indent-2 JSON encoder
#
# json.dumps(indent=2) falls back to the pure-Python encoder, which yields one
# chunk per token.  Only two shapes are large here: lists of scalars and the
# record lists of measure and Walsh-chaos documents.  The first is one call to
# the compact encoder with the indented item separator (C where the interpreter
# has it).  The second, while its `_TableRecords` is intact, is rendered from
# the table: cells from the bit rows or key tuples, and each float as
# `float.__repr__`, the text the encoder gives a finite float; it is streamed
# in blocks of records, each block one join.  Dicts with str keys are walked to
# reach them; every other value, an edited record list included, goes to
# json.dumps itself.  Strings never hold a raw newline (json escapes it), so a
# newline in encoder output is always a separator and can be re-indented.

_escape = json.encoder.encode_basestring_ascii


def _indent(depth: int) -> str:
    return "\n" + "  " * depth


@lru_cache(maxsize=None)
def _compact_encoder(depth: int):
    """Compact encoder whose item separator is a comma and the indent of depth + 1."""
    sep = "," + _indent(depth + 1)
    return json.JSONEncoder(separators=(sep, ": "), check_circular=False).encode


def _compact_body(seq, depth: int) -> str:
    """Compact text of a non-empty list at `depth`, without its brackets."""
    return _compact_encoder(depth)(seq)[1:-1]


def _scalar_list_text(seq, depth: int) -> str | None:
    """A non-empty list of scalars at `depth` as one string; None if anything nests."""
    body = _compact_body(seq, depth)
    if "[" in body or "{" in body:  # a container, or a bracket inside a string
        return None
    return "[" + _indent(depth + 1) + body + _indent(depth) + "]"


def _row_cell_columns(records: _TableRecords, depth: int) -> list:
    """The "cells" texts at `depth` of an intact `_TableRecords`, as columns that join to
    each text: the key tuples' cells joined, or for one-word rows of at most DENSE_CELL_CAP
    cells, two columns looked up from half tables.

    Like `walsh.cells_of_rows`, a one-word row m is split into its low and high
    halves: the first column is the text of the low cells, the second that of the
    high cells, chosen from a table for an empty and one for a non-empty low part.
    """
    rows, n = records.rows, records.n_cells
    sep, head, tail = "," + _indent(depth + 1), "[" + _indent(depth + 1), _indent(depth) + "]"
    if rows.shape[1] != 1 or n > DENSE_CELL_CAP:
        return [[head + sep.join(map(str, k)) + tail if k else "[]" for k in records.keys]]
    h = n // 2
    low, high = ([sep.join(map(str, k)) for k in _subset_keys(cells)]
                 for cells in (range(h), range(h, n)))
    first = np.array(["", *(head + t for t in low[1:])], dtype=object)
    second = np.array(["[]", *(head + t + tail for t in high[1:]),  # no low cells
                       tail, *(sep + t + tail for t in high[1:])], dtype=object)  # some
    masks = rows[:, 0].astype(np.intp)
    lo = masks & ((1 << h) - 1)
    hi = (masks >> h) + ((lo != 0) << (n - h))
    return [first[lo].tolist(), second[hi].tolist()]


# records per chunk of a streamed record list
_BLOCK = 2048


def _table_record_chunks(records: _TableRecords, depth: int):
    """An intact `_TableRecords` in blocks of `_BLOCK` records, each block one join: a
    record is `parts` in turn, the fixed texts with the next text of each column."""
    parts = ["," + _indent(depth + 1) + "{" + _indent(depth + 2) + '"cells": ',
             *map(iter, _row_cell_columns(records, depth + 2)),
             "," + _indent(depth + 2) + _escape(records.field) + ": ",
             map(float.__repr__, records.floats),
             _indent(depth + 1) + "}"]
    p, columns = len(parts), [(j, c) for j, c in enumerate(parts) if not isinstance(c, str)]
    for start in range(0, len(records), _BLOCK):
        out = parts * min(_BLOCK, len(records) - start)
        for j, column in columns:
            out[j::p] = islice(column, len(out) // p)
        if not start:  # the first record follows the bracket, not a comma
            out[0] = "[" + out[0][1:]
        yield "".join(out)
    yield _indent(depth) + "]"


def _json_chunks(obj, depth: int):
    """Chunks of ``json.dumps(obj, indent=2)`` for obj nested `depth` levels deep."""
    if isinstance(obj, dict) and obj and all(type(k) is str for k in obj):
        sep = "{" + _indent(depth + 1)
        for k, v in obj.items():
            yield sep + _escape(k) + ": "
            yield from _json_chunks(v, depth + 1)
            sep = "," + _indent(depth + 1)
        yield _indent(depth) + "}"
        return
    if isinstance(obj, _TableRecords) and obj and obj.intact():
        yield from _table_record_chunks(obj, depth)
        return
    if isinstance(obj, (list, tuple)) and obj and not isinstance(obj[0], (list, tuple, dict)):
        text = _scalar_list_text(obj, depth)
        if text is not None:
            yield text
            return
    yield json.dumps(obj, indent=2).replace("\n", _indent(depth))


def sha256_of(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# run manifests


def write_manifest(out: str, command: str, argv: list[str], seed: int | None, started: float,
                   inputs: list[str | None]) -> None:
    """Write `<out>.manifest.json`; `started` is the run's `time.monotonic()` reading."""
    from . import __version__

    versions = {"package": __version__, "numpy": np.__version__,
                "python": ".".join(str(v) for v in sys.version_info[:3])}
    digests = {p: sha256_of(p) for p in inputs if p and os.path.exists(p)}
    write_json(out + ".manifest.json", {
        "schema_version": SCHEMA_VERSION, "command": command, "argv": list(argv), "seed": seed,
        "versions": versions, "inputs": digests, "outputs": [out],
        "wall_time_s": time.monotonic() - started})


# ---------------------------------------------------------------------------
# shared helpers


def _get(data: dict, key: str):
    try:
        return data[key]
    except KeyError as exc:
        raise FormatError(f"missing field {key!r}") from exc


def _numbers(value, field: str, nonnegative: bool = False, scalar: bool = False):
    """A file's number (`scalar`) as a float, or its list of numbers, nested to any depth, as
    float64.  Each must be a JSON number, an int or a float but no bool, finite, and
    non-negative where asked (NaN fails both tests); the FormatError names the field."""
    if scalar and type(value) is list:
        raise FormatError(f"{field} must be one number, got {value!r}")
    flat = value if type(value) is list else [value]
    while flat and type(flat[0]) is list:  # one level of nesting at a time
        flat = list(chain.from_iterable(v if type(v) is list else [v] for v in flat))
    types = list(map(type, flat))  # all floats, the usual case, take one count
    if types.count(float) != len(types) and not all(
            t is not bool and issubclass(t, (int, float)) for t in set(types)):
        bad = next(v for v in flat if type(v) is bool or not isinstance(v, (int, float)))
        raise FormatError(f"{field}: {bad!r} is not a JSON number (an int or a float)")
    try:
        x = np.asarray(value, dtype=np.float64)
    except (OverflowError, ValueError) as exc:  # an int past the float range; ragged lists
        raise FormatError(f"{field}: {exc}") from exc
    ok = np.isfinite(x) & (x >= 0) if nonnegative else np.isfinite(x)
    if not ok.all():
        need = "finite and non-negative" if nonnegative else "finite"
        raise FormatError(f"{field} must be {need}, got {float(x[~ok][0])!r}")
    return float(x) if scalar else x


def _check_version(data: dict) -> None:
    v = data.get("schema_version")
    if v is not None and v != SCHEMA_VERSION:
        raise FormatError(f"unsupported schema_version {v!r} (supported: {SCHEMA_VERSION})")
