"""Canonical JSON output: pinned file bytes and atom tables, and the encoder
checked against ``json.dumps(obj, indent=2)`` on generated documents.

The sha256 pins were taken from the stdlib-encoder implementation before the
measure builder and the JSON writer were rewritten; any change to them is a
change of the on-disk format.
"""
import copy
import hashlib
import json
import math
import os
import pickle
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noisespectra import (
    ItoTerm,
    MapFactor,
    MapTerm,
    NoiseFunctional,
    SimplexKernel,
    TimeGrid,
    decompose,
    functional_to_data,
    measure_from_coefficients,
    measure_to_data,
    sample_sets,
    spectral_measure_of,
    write_json,
)
from noisespectra.chaos import HERMITE, ChaosCoefficients
from noisespectra.functionals import hermite_decompose
from noisespectra import serialize


def file_sha(data) -> str:
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "doc.json")
        write_json(path, data)
        with open(path, "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()


def table_measure(n: int, seed: int):
    grid = TimeGrid(0, 1, 1, base=n)
    values = np.random.default_rng(seed).standard_normal(1 << n)
    return spectral_measure_of(NoiseFunctional.from_table(grid, values))


def hermite_measure():
    """128 cells, indices on both sides of the 64-bit word edge, four of them
    with multiplicity, and a truncation residual."""
    grid = TimeGrid(0, 1, 7)
    indices = [
        (),
        ((3, 0, 1),), ((63, 0, 1),), ((64, 0, 1),), ((100, 0, 1),), ((127, 1, 1),),
        ((63, 0, 1), (64, 0, 1)), ((10, 0, 1), (120, 0, 1)), ((0, 0, 1), (63, 0, 1)),
        ((64, 0, 1), (127, 0, 1)), ((5, 0, 1), (70, 0, 1), (127, 0, 1)),
        ((5, 0, 1), (5, 1, 1), (64, 0, 1)), ((1, 0, 1), (2, 0, 1), (3, 0, 1), (4, 0, 1)),
        ((20, 0, 2),), ((64, 0, 2),), ((63, 0, 1), (64, 0, 2)), ((70, 0, 3), (71, 0, 1)),
        ((0, 0, 1), (0, 1, 1)),
    ]
    coeffs = np.random.default_rng(128).standard_normal(len(indices))
    c = ChaosCoefficients(grid, dict(zip(indices, coeffs.tolist())), HERMITE,
                          channels=2, residual=0.03125)
    return measure_from_coefficients(c)


def functionals():
    grid = TimeGrid(0, 1, 2)
    table = NoiseFunctional.from_table(grid, np.random.default_rng(8).standard_normal(16))
    prog_grid = TimeGrid(0, 1, 2)
    program = NoiseFunctional.from_program(prog_grid, [
        ItoTerm(0.5, SimplexKernel(2, 4, factors=(np.arange(4.0), np.ones(4)))),
        ItoTerm(-1.25, SimplexKernel(1, 4, dense=np.array([0.1, -0.2, 0.3, 1e-20]))),
        MapTerm(2.0, (MapFactor(0, 0, "poly", (0.0, 0.0, 1.0)),
                      MapFactor(3, 0, "sign", ()))),
    ], degree_cap=3)
    hermite = NoiseFunctional.from_chaos(hermite_decompose(prog_grid, program.backend))
    return {
        "table": table,
        "walsh-chaos": NoiseFunctional.from_chaos(decompose(table)),
        "hermite-chaos": hermite,
        "program": program,
        "family": NoiseFunctional.from_family("tribes", 3),
    }


def manifest():
    return {
        "schema_version": "1", "command": "spectrum",
        "argv": ["--family", "tribes", "--level", "10", "--out", "mu.json"], "seed": 7,
        "versions": {"package": "0.1.0", "numpy": "2.4.6", "python": "3.11.7"},
        "inputs": {"in.json": "0" * 64}, "outputs": ["mu.json"], "wall_time_s": 1.25,
    }


def draws_sha(mu, k: int, seed: int) -> str:
    return hashlib.sha256(repr([s.cells for s in sample_sets(mu, k, seed)]).encode()).hexdigest()


def atom_digest(mu) -> tuple:
    t = mu._atoms
    keys = hashlib.sha256(repr(t.keys).encode()).hexdigest()
    return (keys, hashlib.sha256(t.rows.tobytes()).hexdigest(),
            hashlib.sha256(t.mass.tobytes()).hexdigest(), t.n_plain, t.rows.shape)


FILE_PINS = {
    "measure-10": "50da2ba78b4373004bb53b326c1edd42fe407ad79c8bfbc493ec5ab153e35805",
    "hermite-measure": "d87f73174a0166639b061e3e6ff409044c674e06830e883e34b106f677a73a90",
    "table": "0d80eeee6d35abb386ffc065262549201c7356e5f8d5cc020c1ecb17d29022e3",
    "walsh-chaos": "954a148bb7df25bfa8fbae98423c96ec09dfdc1e98b775f40a76de5c583ffa1e",
    "hermite-chaos": "5be97cbd42a7a5f8db0a932ad4f68bc522392a08644c8ecca722b075a3a648a1",
    "program": "c288783813182fd98ea39eb5613d2a3dedd1e14c351e98813821a0789fc70822",
    "family": "af77b29db4b8a4205277006863bf5966de5c56bea47465e43ead34e895bae013",
    "manifest": "0d94a4b06a80225245f6b54241bcf3ee81bffe87f5cfa68827ef2fe80e72b6e0",
}
MEASURE_18_PIN = "c18888599b9e7d518633a5dfbaf4e10ff56ba9bcd3c1071ac8559d34c362ee93"
DRAW_PINS = {
    "table-10": "a90e33c5e95e3f87ebab6fcd1cd32c6c08805a0c288d03802ebf3c7e98bc3f01",
    "table-18": "7787509c1fef31c557337b7268df9a49477ac944d738194bf791bc25087a18e9",
}
# (sha256 of repr(keys), of rows bytes, of mass bytes, plain count, rows shape)
ATOM_PINS = {
    "table-18": (
        "e815689b5b24f6bf64f3e758bf9a98fc3ed2ece4c2cfd5a26e8cddda84bbd45f",
        "8d0887933c4a5123b8da81308b22e809fbce19fd29ea6847221bd4857dff9f6f",
        "2ab53b8f8566d4db5812872770d7838fca0b21b1811083df2f01fd2b1dc5a7dd",
        262144, (262144, 1),
    ),
    "hermite-128": (
        "22d7793ab7cbb9f7bfafad9795975c86d384c901da91ebb558ee57991c4c8ed3",
        "36d4fedbdb757ead6bd83c340a45d6927f37b0d6ab9dea6fd93fd9d0416058e7",
        "4aa5d15470ac5180774f19663e9d92d54fac834702f6d9f16fc529244fe1e0e0",
        12, (18, 2),
    ),
}


def test_measure_files_keep_their_bytes():
    mu = table_measure(10, 1010)
    assert file_sha(measure_to_data(mu)) == FILE_PINS["measure-10"]
    assert draws_sha(mu, 500, 5) == DRAW_PINS["table-10"]
    mu = hermite_measure()
    assert mu.multiplicity_entries and mu.residual
    assert file_sha(measure_to_data(mu)) == FILE_PINS["hermite-measure"]


def test_functional_and_manifest_files_keep_their_bytes():
    for kind, f in functionals().items():
        data = functional_to_data(f)
        assert data["kind"] == kind
        assert file_sha(data) == FILE_PINS[kind], kind
    assert file_sha(manifest()) == FILE_PINS["manifest"]


def test_hermite_atom_table_keeps_its_bytes():
    assert atom_digest(hermite_measure()) == ATOM_PINS["hermite-128"]


def test_18_cell_measure_keeps_its_atoms_and_bytes():
    mu = table_measure(18, 1818)
    assert atom_digest(mu) == ATOM_PINS["table-18"]
    assert file_sha(measure_to_data(mu)) == MEASURE_18_PIN
    assert draws_sha(mu, 1000, 6) == DRAW_PINS["table-18"]


# ---------------------------------------------------------------------------
# measure documents: cells rendered from the atom table's rows, and the
# fallback once a record list no longer matches its table


def table_documents():
    """measure_to_data documents of table measures with no atom and on 1, 7 and 12
    cells, of a tol-sparse table, of a table holding a NaN (every mass NaN) and of the
    multiplicity-bearing Hermite measure."""
    zero = NoiseFunctional.from_table(TimeGrid(0, 1, 2), np.zeros(16))
    nan = NoiseFunctional.from_table(TimeGrid(0, 1, 2), np.array([*[1.5] * 15, math.nan]))
    one = NoiseFunctional.from_table(TimeGrid(0, 1, 0), np.array([0.75, -1.5]))
    sparse = NoiseFunctional.from_table(
        TimeGrid(0, 1, 1, base=12), np.random.default_rng(12).standard_normal(1 << 12))
    return {
        "no atom": measure_to_data(spectral_measure_of(zero)),
        "1 cell": measure_to_data(spectral_measure_of(one)),
        "7 cells": measure_to_data(table_measure(7, 7)),
        "12 cells": measure_to_data(table_measure(12, 12)),
        "tol-sparse": measure_to_data(spectral_measure_of(sparse, tol=0.01)),
        "NaN table": measure_to_data(spectral_measure_of(nan)),
        "hermite": measure_to_data(hermite_measure()),
    }


def measure_record_lists(data):
    return [data[k] for k in ("entries", "multiplicity_entries") if data.get(k)]


def _float_field(records):
    """The field beside "cells": "mass" in measure files, "coeff" in Walsh-chaos files."""
    return next(k for k in records[0] if k != "cells")


def _swap_keys(r):
    return dict(reversed(r.items()))


def _mutate_every_list(change):
    def mutate(data):
        for records in measure_record_lists(data):
            change(records)
        return data
    return mutate


def _set_last(key, value):
    """Set the last record's `key` (None: its float field) to value, or to value(old)."""
    def change(records):
        k = key or _float_field(records)
        records[-1][k] = value(records[-1][k]) if callable(value) else value
    return change


MUTATIONS = {
    "cells as an equal list": _mutate_every_list(_set_last("cells", list)),
    "cells as a new equal tuple": _mutate_every_list(_set_last("cells", lambda c: tuple(list(c)))),
    "cells as another tuple": _mutate_every_list(
        lambda rs: rs[-1].update(cells=rs[0]["cells"] if len(rs) > 1 else (0, 1))),
    "record replaced": _mutate_every_list(
        lambda rs: rs.__setitem__(len(rs) // 2, {"cells": [0], _float_field(rs): 0.5})),
    "record appended": _mutate_every_list(
        lambda rs: rs.append({"cells": (0,), _float_field(rs): 2.0})),
    "a record gained a key": _mutate_every_list(_set_last("extra", 1)),
    "record removed": _mutate_every_list(lambda rs: rs.pop(len(rs) // 2)),
    "list reversed": _mutate_every_list(lambda rs: rs.reverse()),
    "key order of one record": _mutate_every_list(
        lambda rs: rs.__setitem__(-1, _swap_keys(rs[-1]))),
    "key order of every record": _mutate_every_list(
        lambda rs: rs.__setitem__(slice(None), list(map(_swap_keys, rs)))),
    "mass as a new equal float": _mutate_every_list(_set_last(None, lambda m: float(repr(m)))),
    "mass -0.0": _mutate_every_list(_set_last(None, -0.0)),
    "mass NaN": _mutate_every_list(_set_last(None, math.nan)),
    "mass True": _mutate_every_list(_set_last(None, True)),
    "deepcopy": copy.deepcopy,
    "pickle": lambda data: pickle.loads(pickle.dumps(data)),
}


def test_measure_documents_match_stdlib_indent_2():
    for name, data in table_documents().items():
        assert encoded(data) == (json.dumps(data, indent=2) + "\n").encode(), name


@pytest.mark.parametrize("mutation", list(MUTATIONS))
def test_mutated_measure_documents_match_stdlib_indent_2(mutation):
    for name, data in table_documents().items():
        data = MUTATIONS[mutation](data)
        assert encoded(data) == (json.dumps(data, indent=2) + "\n").encode(), name


# a Walsh-chaos document's cells are lists, which can change in place
LIST_MUTATIONS = {
    "cells list gained a cell in place": _mutate_every_list(lambda rs: rs[-1]["cells"].append(9)),
    "cells list emptied in place": _mutate_every_list(lambda rs: rs[-1]["cells"].clear()),
    "cell 1 as True in place": _mutate_every_list(
        lambda rs: rs[-1]["cells"].__setitem__(slice(None), [c == 1 or c for c in rs[-1]["cells"]])),
    "first cell an equal float in place": _mutate_every_list(
        lambda rs: rs[-1]["cells"].__setitem__(slice(1), [float(c) for c in rs[-1]["cells"][:1]])),
    "cells as a dict of the same cells": _mutate_every_list(
        _set_last("cells", lambda c: dict.fromkeys(c, 0))),
}


def walsh_chaos_expansions():
    """Walsh expansions: a decomposed 12-cell table, one with explicit 0.0 and negative
    coefficients and the empty index, a single record, and a sparse 70-cell one whose
    rows take two words."""
    four, wide = TimeGrid(0, 1, 2), TimeGrid(0, 1, 1, base=70)
    table = NoiseFunctional.from_table(
        TimeGrid(0, 1, 1, base=12), np.random.default_rng(1212).standard_normal(1 << 12))
    return {
        "12 cells": decompose(table),
        "zero and negative": ChaosCoefficients(four, {
            (0, 1, 2, 3): 2.0, (3,): -0.25, (): 0.0, (1,): 0.0, (0, 2): -1.5, (1, 3): -0.0}),
        "one record": ChaosCoefficients(four, {(): -1.0}),
        "70 cells": ChaosCoefficients(wide, {
            (63, 64, 69): 0.125, (1,): 3.0, (3, 64): -2.0, (): -0.5, (0, 63): 0.0, (69,): 1.0,
            (64,): -1e-300, (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 60, 61, 62, 63, 64, 65, 66, 67): 0.5}),
    }


def walsh_chaos_documents():
    return {name: functional_to_data(NoiseFunctional.from_chaos(c))
            for name, c in walsh_chaos_expansions().items()}


def test_walsh_chaos_documents_match_stdlib_indent_2_in_sorted_items_order():
    for name, c in walsh_chaos_expansions().items():
        data = functional_to_data(NoiseFunctional.from_chaos(c))
        assert encoded(data) == (json.dumps(data, indent=2) + "\n").encode(), name
        got = [(tuple(r["cells"]), r["coeff"]) for r in data["entries"]]
        assert got == c.sorted_items(), name
        assert all(type(r["cells"]) is list for r in data["entries"]), name


@pytest.mark.parametrize("mutation", [*MUTATIONS, *LIST_MUTATIONS])
def test_mutated_walsh_chaos_documents_match_stdlib_indent_2(mutation):
    for name, data in walsh_chaos_documents().items():
        data = {**MUTATIONS, **LIST_MUTATIONS}[mutation](data)
        assert encoded(data) == (json.dumps(data, indent=2) + "\n").encode(), name


@pytest.mark.parametrize("block", [1, 3])
def test_record_blocks_of_any_size_match_stdlib_indent_2(monkeypatch, block):
    """Blocks far smaller than the record lists, the last one partial, give the same bytes."""
    monkeypatch.setattr(serialize, "_BLOCK", block)
    for name, data in {**table_documents(), **walsh_chaos_documents()}.items():
        assert encoded(data) == (json.dumps(data, indent=2) + "\n").encode(), name


def test_measure_cells_never_reach_the_compact_encoder(monkeypatch):
    """An unmodified document renders its cells from the table rows or key tuples and
    its masses from the table's floats; neither column reaches the compact encoder,
    at one word, on the 70-cell Walsh-chaos rows and on the 128-cell Hermite measure."""
    columns = []
    compact_body = serialize._compact_body

    def recording(seq, depth):
        columns.append(list(seq))
        return compact_body(seq, depth)

    monkeypatch.setattr(serialize, "_compact_body", recording)
    data = measure_to_data(table_measure(12, 12))
    assert len(data["entries"]) == 1 << 12
    wide = {"70 cells": walsh_chaos_documents()["70 cells"],
            "hermite": measure_to_data(hermite_measure())}
    for doc in (data, *wide.values()):
        assert encoded(doc) == (json.dumps(doc, indent=2) + "\n").encode()
    assert wide["hermite"]["multiplicity_entries"]
    assert columns == []


@pytest.mark.parametrize("edit", ["edited", "hand-built"])
def test_other_record_lists_go_to_json_dumps(monkeypatch, edit):
    """A measure list with one mass changed, or built record by record, is written by
    json.dumps, with no column rendered."""
    data = measure_to_data(table_measure(7, 7))
    if edit == "edited":
        data["entries"][3]["mass"] = 0.5
    else:
        data["entries"] = [{"cells": list(r["cells"]), "mass": r["mass"]} for r in data["entries"]]
    want = (json.dumps(data, indent=2) + "\n").encode()
    rendered = []
    for name in ("_compact_body", "_row_cell_columns"):
        def spy(*args, name=name, real=getattr(serialize, name)):
            rendered.append(name)
            return real(*args)
        monkeypatch.setattr(serialize, name, spy)
    assert encoded(data) == want
    assert rendered == []


# ---------------------------------------------------------------------------
# the encoder against the stdlib on generated documents

finite = st.floats(allow_nan=False, allow_infinity=False)
scalars = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(),
    finite.map(np.float64), st.text(max_size=8),
)
keys = st.one_of(st.text(max_size=6), st.integers(), st.floats(), st.booleans(), st.none())
records = st.dictionaries(
    st.text(max_size=5),
    st.one_of(scalars, st.lists(st.integers(), max_size=4),
              st.lists(st.booleans(), max_size=3), st.lists(finite, max_size=3)),
    max_size=4,
)
# lists of records sharing one key order, the shape of every measure file;
# brackets in strings and nested lists must fall back to the general path
bracketed = st.text(alphabet="[]{}a,", max_size=3)
column_values = st.one_of(
    scalars, bracketed, st.lists(st.integers(), max_size=4),
    st.lists(st.one_of(scalars, bracketed), max_size=3).map(tuple),
    st.lists(st.lists(st.integers(), max_size=2), max_size=2),
    st.dictionaries(st.text(max_size=2), scalars, max_size=2),
)
record_lists = st.lists(st.text(max_size=4), min_size=1, max_size=3, unique=True).flatmap(
    lambda ks: st.lists(st.fixed_dictionaries({k: column_values for k in ks}),
                        min_size=1, max_size=5)
)
documents = st.recursive(
    scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=3).map(tuple),
        st.dictionaries(keys, inner, max_size=4),
        st.lists(records, max_size=4),
        record_lists,
    ),
    max_leaves=30,
)


def encoded(obj) -> bytes:
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "doc.json")
        write_json(path, obj)
        with open(path, "rb") as fh:
            return fh.read()


@settings(max_examples=500)
@given(documents)
def test_write_json_matches_stdlib_indent_2(obj):
    assert encoded(obj) == (json.dumps(obj, indent=2) + "\n").encode()


@pytest.mark.parametrize("obj", [
    {}, [], (), {"a": []}, {"a": {}}, [[], {}, ()],
    {"entries": [{"cells": [], "mass": 0.5}, {"cells": [0, 2], "mass": 1e-300}]},
    {"entries": [{"cells": [True, 1], "mass": 1}, {"cells": [[1]], "x": {"y": [2]}}]},
    {"values": [math.nan, math.inf, -math.inf, -0.0, np.float64(0.1), 5e-324]},
    {"s": ["é", " ", "a\"b\\c\n", "😀", "[{", "]"]},
    {1: "int", 2.5: "float", True: "bool", None: "none", "k": [1, 2.0, True, None]},
    {math.nan: 1, math.inf: 2, np.float64(-1.5): 3},
    [{"a": 1}, {"a": [1, [2]]}, {}, {"b": {"c": [{"d": []}]}}],
    [{1: "int"}, {True: "bool"}, {1.0: "float"}],
    [{"a": {"b": 1}}, {"a": {}}],
    ((1, 2), [3, (4,)]),
    {"mixed": [1, [2, 3]], "s": ["[", 0.5, []]},
    "top", 3, 2.5, None, True,
    # record fields are joined, not formatted: a percent sign is literal
    [{"cells": [], "m%s": 0.5}],
    {"%s": [{"%": "%s", "%s": "%%", "%%": "%d%%"}, {"%": "100%", "%s": "", "%%": "%(x)s"}]},
    [{"a": [], "b%": [1, 2], "c": "%s", "d": -0.0}, {"a": [3], "b%": [], "c": "%%", "d": 1e-300}],
    [{"cells": [], "mass": 0.25}, {"cells": [], "mass": 0.5}],
])
def test_write_json_edge_cases(obj):
    assert encoded(obj) == (json.dumps(obj, indent=2) + "\n").encode()


@pytest.mark.parametrize("obj", [
    {"n": np.int64(3)},
    {"entries": [{"cells": [np.int64(1)], "mass": 1.0}]},
    {"cells": [1, np.int64(2)]},
    {"s": {1, 2}},
    [{1, 2}],
    {(1, 2): 3},
    {"a": object()},
])
def test_write_json_refuses_what_the_stdlib_refuses(obj, tmp_path):
    with pytest.raises(TypeError):
        json.dumps(obj, indent=2)
    path = tmp_path / "doc.json"
    with pytest.raises(TypeError):
        write_json(str(path), obj)
    assert not path.exists() and not list(tmp_path.iterdir())


@pytest.mark.parametrize("cells", [tuple, list])
@pytest.mark.parametrize("count", [1, 3])
def test_table_records_with_a_percent_field_match_stdlib_indent_2(cells, count):
    """The empty set, a single record and a field name with percent signs, from the rows."""
    keys = [(), (0, 2), (1,)][:count]
    rows = np.array([[0], [0b101], [0b10]], dtype=np.uint64)[:count]
    floats = np.array([0.5, -2.0, 1e-300][:count])
    records = serialize._TableRecords(keys, rows, floats, "m%s%%", 3, cells)
    assert records.intact()
    doc = {"%s%%": records}
    assert encoded(doc) == (json.dumps(doc, indent=2) + "\n").encode()


def test_write_json_without_the_c_accelerator(monkeypatch):
    """Interpreters without json's C module get the same bytes, only slower."""
    doc = {"entries": [{"cells": [0, 2], "mass": 0.25}, {"cells": [], "mass": math.nan}],
           "values": [1.5, -0.0, math.inf], "s": ["[", "x"]}
    monkeypatch.setattr(json.encoder, "c_make_encoder", None)
    assert encoded(doc) == (json.dumps(doc, indent=2) + "\n").encode()
