"""Round-trips for every on-disk record plus the file/manifest helpers."""
import gc
import json
import math
import os
import re
import time

import numpy as np
import pytest
from numpy.testing import assert_allclose

from noisespectra import (
    FormatError,
    ItoTerm,
    MapFactor,
    MapTerm,
    NoiseFunctional,
    SimplexKernel,
    TimeGrid,
    functional_from_data,
    functional_to_data,
    grid_from_data,
    grid_to_data,
    kernel_from_data,
    kernel_to_data,
    measure_from_data,
    measure_to_data,
    read_json,
    spectral_measure_of,
    write_csv,
    write_json,
)
from noisespectra.serialize import sha256_of, write_manifest


def roundtrip_functional(f):
    return functional_from_data(json.loads(json.dumps(functional_to_data(f))))


def test_grid_roundtrip():
    from fractions import Fraction

    for grid in (
        TimeGrid(0, 1, 3),
        TimeGrid(Fraction(-1, 3), Fraction(5, 7), 2),
        TimeGrid(0, 1, 2, base=3),
    ):
        assert grid_from_data(grid_to_data(grid)) == grid
    with pytest.raises(FormatError):
        grid_from_data({"start": "0", "end": "1"})
    with pytest.raises(FormatError):
        grid_from_data({"start": "a", "end": "1", "level": 2})


def test_kernel_roundtrips():
    sep = SimplexKernel(2, 4, factors=(np.arange(4.0), np.ones(4)))
    back = kernel_from_data(kernel_to_data(sep))
    assert back.order == 2 and back.n_cells == 4
    assert_allclose(back.factors[0], sep.factors[0])

    dense = SimplexKernel(2, 3, dense=np.triu(np.ones((3, 3)), 1), channels=(0, 1))
    back = kernel_from_data(kernel_to_data(dense))
    assert back.channels == (0, 1)
    assert_allclose(back.dense, dense.dense)

    const = kernel_from_data({"order": 1, "constant": 2.0}, n_cells=5)
    assert_allclose(const.factors[0], np.full(5, 2.0))
    with pytest.raises(FormatError):
        kernel_from_data({"order": 1, "constant": 1.0})  # no n_cells anywhere
    with pytest.raises(FormatError):
        kernel_from_data({"order": 1, "n_cells": 4})


def test_dense_kernel_file_refuses_weights_on_or_below_the_diagonal():
    for dense, at in [([[0, 1], [5, 0]], "(1, 0)"), ([[2, 1], [0, 0]], "(0, 0)"),
                      ([[0, 0, 1], [0, -3, 1], [4, 0, 0]], "(1, 1)")]:
        with pytest.raises(FormatError, match=re.escape(f"at {at} is not above the diagonal")):
            kernel_from_data({"order": 2, "dense": dense}, n_cells=len(dense))
    # the in-memory kernel keeps its documented strict upper triangle
    k = SimplexKernel(2, 2, dense=np.array([[0.0, 1.0], [5.0, 0.0]]))
    assert k.dense.tolist() == [[0.0, 1.0], [0.0, 0.0]]
    assert kernel_from_data(kernel_to_data(k)).dense.tolist() == k.dense.tolist()
    # an order-1 dense vector has no diagonal
    assert kernel_from_data({"order": 1, "dense": [3.0, 5.0]}, 2).dense.tolist() == [3.0, 5.0]


def test_table_functional_roundtrip(rng):
    grid = TimeGrid(0, 1, 3)
    f = NoiseFunctional.from_table(grid, rng.standard_normal(256))
    g = roundtrip_functional(f)
    assert g.grid == grid
    assert_allclose(g.backend.values, f.backend.values, rtol=0)


def test_walsh_chaos_roundtrip():
    grid = TimeGrid(0, 1, 2)
    f = NoiseFunctional.from_walsh_entries(grid, {(): 0.5, (0,): -1.25, (1, 3): 2.0})
    g = roundtrip_functional(f)
    assert dict(g.backend.sorted_items()) == dict(f.backend.sorted_items())


def test_hermite_chaos_roundtrip():
    grid = TimeGrid(0, 1, 1)
    prog = NoiseFunctional.from_program(
        grid, [MapTerm(1.0, (MapFactor(0, 0, "poly", (0.0, 0.0, 1.0)),))]
    )
    from noisespectra.functionals import hermite_decompose

    coeffs = hermite_decompose(grid, prog.backend)
    f = NoiseFunctional.from_chaos(coeffs)
    g = roundtrip_functional(f)
    assert g.backend.kind == f.backend.kind
    a = dict(f.backend.sorted_items())
    b = dict(g.backend.sorted_items())
    assert set(a) == set(b)
    for k in a:
        assert a[k] == b[k]  # doubles survive JSON exactly
    assert g.backend.residual == f.backend.residual


def test_program_roundtrip():
    grid = TimeGrid(0, 1, 2)
    terms = [
        ItoTerm(0.5, SimplexKernel.constant(2, 4)),
        MapTerm(1.5, (MapFactor(1, 0, "sin", (2.0,)),)),
    ]
    f = NoiseFunctional.from_program(grid, terms, degree_cap=3)
    g = roundtrip_functional(f)
    assert g.backend.degree_cap == 3
    assert len(g.backend.terms) == 2
    assert g.backend.terms[1].factors[0].fn == "sin"
    from noisespectra import inner_product

    assert_allclose(inner_product(g, g), inner_product(f, f), rtol=1e-12)


def test_two_channel_chaos_and_program_files_roundtrip(tmp_path):
    from noisespectra.chaos import HERMITE, ChaosCoefficients

    grid = TimeGrid(0, 1, 2)
    chaos = NoiseFunctional.from_chaos(ChaosCoefficients(
        grid, {(): 0.5, ((0, 1, 1),): -1.25, ((1, 0, 2), (3, 1, 1)): 2.0}, HERMITE, channels=2))
    program = NoiseFunctional.from_program(grid, [
        ItoTerm(0.5, SimplexKernel.constant(2, 4, channels=(0, 1))),
        MapTerm(1.5, (MapFactor(0, 0, "poly", (0.0, 1.0, 0.5)), MapFactor(2, 1, "sin", (2.0,)))),
    ], degree_cap=3, channels=2)
    for stem, f in (("chaos", chaos), ("program", program)):
        path = str(tmp_path / f"{stem}.json")
        write_json(path, functional_to_data(f))
        data = read_json(path)
        assert data["channels"] == 2
        g = functional_from_data(data)
        assert g.backend.channels == 2 and functional_to_data(g) == functional_to_data(f)
    assert g.backend.terms[0].kernel.channels == (0, 1)


def test_family_roundtrip_and_grid_guard():
    f = NoiseFunctional.from_family("majority3-iterated", 2)
    g = roundtrip_functional(f)
    assert g.backend.name == "majority3-iterated"
    data = functional_to_data(f)
    data["grid"]["level"] = 3
    with pytest.raises(FormatError):
        functional_from_data(data)


def test_functional_bad_records():
    grid_data = grid_to_data(TimeGrid(0, 1, 1))
    with pytest.raises(FormatError):
        functional_from_data({"kind": "table", "values": [1, -1]})  # no grid
    with pytest.raises(FormatError):
        functional_from_data({"grid": grid_data, "kind": "nonesuch"})
    with pytest.raises(FormatError):
        functional_from_data(
            {"schema_version": "99", "grid": grid_data, "kind": "table", "values": [1, -1]}
        )


@pytest.mark.parametrize(
    "record",
    [
        {"kind": "table", "values": [1.0, math.nan]},
        {"kind": "table", "values": [math.inf, -1.0]},
        {"kind": "walsh-chaos", "entries": [{"cells": [0], "coeff": math.nan}]},
        {"kind": "hermite-chaos", "entries": [{"terms": [[0, 0, 1]], "coeff": -math.inf}]},
        {"kind": "hermite-chaos", "entries": [], "residual": -0.5},
        {"kind": "hermite-chaos", "entries": [], "residual": math.nan},
    ],
)
def test_functional_rejects_non_finite_numbers(record):
    data = {"grid": grid_to_data(TimeGrid(0, 1, 1)), **record}
    with pytest.raises(FormatError, match="finite"):
        functional_from_data(json.loads(json.dumps(data)))


@pytest.mark.parametrize(
    "field, mass",
    [
        ("entries", math.nan),
        ("entries", math.inf),
        ("entries", -0.25),
        ("multiplicity_entries", -1e-3),
        ("multiplicity_entries", math.nan),
        ("residual", -0.5),
        ("residual", math.inf),
    ],
)
def test_measure_rejects_bad_masses(field, mass):
    grid = TimeGrid(0, 1, 1)
    from noisespectra.spectral import SpectralMeasure

    data = measure_to_data(SpectralMeasure(grid, {(): 0.1, (0,): 0.2}, {(0,): 0.3}, 0.05))
    if field == "residual":
        data["residual"] = mass
    else:
        data[field][-1]["mass"] = mass
    with pytest.raises(FormatError, match="finite and non-negative"):
        measure_from_data(json.loads(json.dumps(data)))


# file numbers are JSON numbers: an int or a float, never a bool or a string; the
# FormatError names the field.  One test per file kind, each through a JSON round trip.
NOT_NUMBERS = ["0.5", True, None, [1.0], {"v": 1.0}]


def from_json(reader, data):
    return reader(json.loads(json.dumps(data)))


def refused(reader, data, field):
    why = r"(: .* is not a JSON number| must be one number)"
    with pytest.raises(FormatError, match=rf"\b{field}{why}"):
        from_json(reader, data)


@pytest.mark.parametrize("bad", NOT_NUMBERS)
def test_measure_file_numbers_are_json_numbers(bad):
    grid = TimeGrid(0, 1, 1)
    from noisespectra.spectral import SpectralMeasure

    data = measure_to_data(SpectralMeasure(grid, {(): 0.1, (0,): 0.2}, {(0,): 0.3}, 0.05))
    for part in ("entries", "multiplicity_entries"):
        edited = json.loads(json.dumps(data))
        edited[part][-1]["mass"] = bad
        refused(measure_from_data, edited, "mass")
    refused(measure_from_data, {**data, "residual": bad}, "residual")
    data["entries"][0]["mass"], data["residual"] = 1, 0  # ints are numbers
    assert from_json(measure_from_data, data).entries[()] == 1.0


@pytest.mark.parametrize("bad", NOT_NUMBERS[:3])
def test_table_file_numbers_are_json_numbers(bad):
    data = {"grid": grid_to_data(TimeGrid(0, 1, 1)), "kind": "table"}
    refused(functional_from_data, {**data, "values": [bad, 1.0, 0.5, 2.0]}, "values")
    refused(functional_from_data, {**data, "values": [1.0, 0.5, 2.0, bad]}, "values")
    f = from_json(functional_from_data, {**data, "values": [1, -1, 0.5, 2]})
    assert f.backend.values.tolist() == [1.0, -1.0, 0.5, 2.0]
    with pytest.raises(FormatError, match="values: .*too large"):  # past the float range
        functional_from_data({**data, "values": [10**400, 1, 1, 1]})


@pytest.mark.parametrize("kind,field", [("walsh-chaos", "cells"), ("hermite-chaos", "terms")])
@pytest.mark.parametrize("bad", NOT_NUMBERS)
def test_chaos_file_numbers_are_json_numbers(kind, field, bad):
    index = [0] if field == "cells" else [[0, 0, 1]]
    data = {"grid": grid_to_data(TimeGrid(0, 1, 1)), "kind": kind,
            "entries": [{field: [], "coeff": 0.5}, {field: index, "coeff": 2}]}
    edited = json.loads(json.dumps(data))
    edited["entries"][1]["coeff"] = bad
    refused(functional_from_data, edited, "coeff")
    refused(functional_from_data, {**data, "residual": bad}, "residual")
    c = from_json(functional_from_data, {**data, "residual": 0}).backend
    assert sorted(c.entries.values()) == [0.5, 2.0] and c.residual == 0.0


@pytest.mark.parametrize("bad", NOT_NUMBERS)
def test_kernel_file_numbers_are_json_numbers(bad):
    refused(kernel_from_data, {"order": 1, "n_cells": 2, "constant": bad}, "constant")
    refused(kernel_from_data, {"order": 2, "n_cells": 2, "factors": [[1.0, bad], [1, 2]]},
            "factors")
    refused(kernel_from_data, {"order": 2, "n_cells": 2, "dense": [[0.0, bad], [0, 0]]}, "dense")
    k = from_json(kernel_from_data, {"order": 2, "n_cells": 2, "factors": [[1, 2], [3, 4]]})
    assert [v.tolist() for v in k.factors] == [[1.0, 2.0], [3.0, 4.0]]
    k = from_json(kernel_from_data, {"order": 2, "n_cells": 2, "dense": [[0, 5], [0, 0]]})
    assert k.dense.tolist() == [[0.0, 5.0], [0.0, 0.0]]
    with pytest.raises(FormatError, match="constant must be finite"):
        kernel_from_data({"order": 1, "n_cells": 2, "constant": math.inf})


@pytest.mark.parametrize("bad", [*NOT_NUMBERS, math.nan, math.inf])
def test_program_file_numbers_are_json_numbers(bad):
    ito = {"type": "ito", "weight": 2, "kernel": {"order": 1, "constant": 1.0}}
    sine = {"type": "map", "weight": 1.5, "factors": [{"cell": 1, "fn": "sin", "params": [2]}]}
    data = {"grid": grid_to_data(TimeGrid(0, 1, 2)), "kind": "program", "terms": [ito, sine]}
    why = r"(: .* is not a JSON number| must be one number| must be finite)"
    with pytest.raises(FormatError, match=rf"^terms\[0\]: weight{why}"):
        from_json(functional_from_data, {**data, "terms": [{**ito, "weight": bad}, sine]})
    with pytest.raises(FormatError, match=rf"^terms\[1\]: weight{why}"):
        from_json(functional_from_data, {**data, "terms": [ito, {**sine, "weight": bad}]})
    factor = {**sine["factors"][0], "params": [1.0, bad]}
    with pytest.raises(FormatError, match=rf"^terms\[1\]: params{why}"):
        from_json(functional_from_data, {**data, "terms": [ito, {**sine, "factors": [factor]}]})
    terms = from_json(functional_from_data, data).backend.terms
    assert terms[0].weight == 2.0 and terms[1].factors[0].params == (2.0,)


def test_measure_roundtrip(rng):
    grid = TimeGrid(0, 1, 3)
    f = NoiseFunctional.from_table(grid, rng.standard_normal(256))
    mu = spectral_measure_of(f)
    back = measure_from_data(json.loads(json.dumps(measure_to_data(mu))))
    assert back.grid == grid
    assert back.entries == mu.entries
    # entries agree bit for bit; the total re-sums in sorted order
    assert_allclose(back.total_mass, mu.total_mass, rtol=1e-14)


def test_measure_roundtrip_keeps_side_channels():
    grid = TimeGrid(0, 1, 1)
    from noisespectra.spectral import SpectralMeasure

    mu = SpectralMeasure(
        grid, {(): 0.1, (0,): 0.2}, {(0,): 0.3}, residual=0.05
    )
    back = measure_from_data(measure_to_data(mu))
    assert back.multiplicity_entries == {(0,): 0.3}
    assert back.residual == 0.05
    assert_allclose(back.total_mass, 0.65, rtol=1e-15)


def test_model_measure_has_no_dense_serialization():
    mu = spectral_measure_of(NoiseFunctional.from_family("majority3-iterated", 5))
    assert not mu.is_dense
    with pytest.raises(FormatError):
        measure_to_data(mu)


def test_read_json_reports_position(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text('{"a": 1,\n  "b": }\n')
    with pytest.raises(FormatError, match="line 2"):
        read_json(str(p))
    with pytest.raises(FormatError):
        read_json(str(tmp_path / "missing.json"))


@pytest.mark.parametrize("gc_on", [True, False])
def test_read_json_restores_gc_state(tmp_path, gc_on):
    data = {"entries": [{"cells": [0, 2], "mass": 0.25}, {"cells": [], "mass": 0.75}]}
    good, bad = tmp_path / "good.json", tmp_path / "bad.json"
    good.write_text(json.dumps(data))
    bad.write_text('{"a": [1, 2,\n')
    was = gc.isenabled()
    try:
        (gc.enable if gc_on else gc.disable)()
        assert read_json(str(good)) == data
        assert gc.isenabled() is gc_on
        with pytest.raises(FormatError):
            read_json(str(bad))
        assert gc.isenabled() is gc_on
        with pytest.raises(FormatError):
            read_json(str(tmp_path / "missing.json"))
        assert gc.isenabled() is gc_on
    finally:
        (gc.enable if was else gc.disable)()


def test_write_json_atomic(tmp_path):
    p = tmp_path / "out" / "doc.json"
    write_json(str(p), {"x": 0.1})
    assert json.loads(p.read_text())["x"] == 0.1
    assert [q.name for q in p.parent.iterdir()] == ["doc.json"]  # no temp droppings


def test_write_csv_full_precision(tmp_path):
    p = tmp_path / "rows.csv"
    write_csv(str(p), ["i", "v"], [(0, 0.1), (1, np.float64(1 / 3))])
    lines = p.read_text().splitlines()
    assert lines[0] == "i,v"
    assert lines[1] == "0,0.1"
    assert float(lines[2].split(",")[1]) == 1 / 3


def test_manifest_contents(tmp_path):
    inp = tmp_path / "in.json"
    write_json(str(inp), {"k": 1})
    out = tmp_path / "out.csv"
    write_csv(str(out), ["a"], [(1,)])
    write_manifest(str(out), "demo", ["demo", "--x"], 7, time.monotonic(), [str(inp)])
    doc = read_json(str(out) + ".manifest.json")
    assert doc["command"] == "demo"
    assert doc["seed"] == 7
    assert doc["inputs"] == {str(inp): sha256_of(str(inp))}
    assert doc["outputs"] == [str(out)]
    assert doc["wall_time_s"] >= 0
    assert "numpy" in doc["versions"]


def test_manifest_digests_the_input_files_that_exist(tmp_path):
    inp, missing, out = (str(tmp_path / name) for name in ("in.json", "gone.json", "out.csv"))
    write_json(inp, {"k": 1})
    write_manifest(out, "demo", [], None, time.monotonic(), [None, missing, inp, ""])
    doc = read_json(out + ".manifest.json")
    assert list(doc) == ["schema_version", "command", "argv", "seed", "versions", "inputs",
                         "outputs", "wall_time_s"]
    assert doc["inputs"] == {inp: sha256_of(inp)}
    assert (doc["argv"], doc["seed"], doc["outputs"]) == ([], None, [out])


def test_sha256_matches_hashlib(tmp_path):
    import hashlib

    p = tmp_path / "blob.bin"
    p.write_bytes(b"spectral" * 1000)
    assert sha256_of(str(p)) == hashlib.sha256(b"spectral" * 1000).hexdigest()


# cell indices are checked where files enter; the grid below has 4 cells
FOUR = grid_to_data(TimeGrid(0, 1, 2))


@pytest.mark.parametrize("cells", [[5, 3], [3, 3], [-1], [1.5], [99], [2**70], [True]])
def test_measure_refuses_bad_cell_lists(cells):
    data = {"grid": FOUR, "entries": [{"cells": [], "mass": 0.25},
                                      {"cells": cells, "mass": 0.5}]}
    with pytest.raises(FormatError, match=r"entries\[1\]: cells"):
        measure_from_data(json.loads(json.dumps(data)))


def test_measure_refuses_bad_multiplicity_cells():
    data = {"grid": FOUR, "entries": [{"cells": [0], "mass": 0.5}],
            "multiplicity_entries": [{"cells": [4], "mass": 0.5}]}
    with pytest.raises(FormatError, match=r"multiplicity_entries\[0\]: cells \[4\]"):
        measure_from_data(data)


@pytest.mark.parametrize(
    "record, where",
    [
        ({"kind": "walsh-chaos", "entries": [{"cells": [9], "coeff": 1.0}]}, r"entries\[0\]"),
        ({"kind": "walsh-chaos", "entries": [{"cells": [0], "coeff": 1.0},
                                             {"cells": [-1], "coeff": 1.0}]}, r"entries\[1\]"),
        ({"kind": "hermite-chaos", "entries": [{"terms": [[9, 0, 1]], "coeff": 1.0}]},
         r"entries\[0\]"),
        ({"kind": "hermite-chaos", "channels": 1,
          "entries": [{"terms": [[1, 3, 1]], "coeff": 1.0}]}, r"entries\[0\]"),
        ({"kind": "program", "terms": [{"type": "map", "weight": 1.0, "factors": [
            {"cell": 9, "channel": 0, "fn": "sign", "params": []}]}]}, r"terms\[0\]"),
        ({"kind": "program", "terms": [{"type": "map", "weight": 1.0, "factors": [
            {"cell": 1, "channel": 3, "fn": "sign", "params": []}]}]}, r"terms\[0\]"),
        ({"kind": "program", "terms": [{"type": "ito", "weight": 1.0, "kernel": {
            "order": 1, "n_cells": 9, "constant": 1.0}}]}, r"terms\[0\]: kernel on 9 cells"),
        ({"kind": "program", "terms": [{"type": "ito", "weight": 1.0, "kernel": {
            "order": 1, "n_cells": 2, "constant": 1.0}}]}, r"terms\[0\]: kernel on 2 cells"),
        ({"kind": "program", "channels": 1, "terms": [
            {"type": "ito", "weight": 1.0, "kernel": {"order": 1, "constant": 1.0}},
            {"type": "ito", "weight": 1.0, "kernel": {"order": 2, "constant": 1.0,
                                                      "channels": [0, 3]}}]},
         r"terms\[1\]: cell 0 and channel 3"),
    ],
)
def test_functional_refuses_cells_and_channels_off_the_grid(record, where):
    with pytest.raises(FormatError, match=where):
        functional_from_data({"grid": FOUR, **record})


@pytest.mark.parametrize("degree", [1.5, True])
def test_hermite_degrees_must_be_json_integers(degree):
    record = {"grid": FOUR, "kind": "hermite-chaos", "entries": [
        {"terms": [[0, 0, 1]], "coeff": 1.0}, {"terms": [[1, 0, degree]], "coeff": 1.0}]}
    message = re.escape(f"entries[1]: terms ((1, 0, {degree!r}),) are not")
    with pytest.raises(FormatError, match=message):
        functional_from_data(json.loads(json.dumps(record)))


def test_repeated_cell_lists_are_refused():
    data = {"grid": FOUR, "entries": [{"cells": [0], "mass": 0.5}, {"cells": [1], "mass": 0.5},
                                      {"cells": [0], "mass": 0.25}]}
    with pytest.raises(FormatError, match=r"entries\[2\]: cells \[0\] repeat"):
        measure_from_data(data)
    with pytest.raises(FormatError, match=r"entries\[2\]: cells \[0\] repeat"):
        functional_from_data({"grid": FOUR, "kind": "walsh-chaos", "entries": [
            {"cells": c, "coeff": 1.0} for c in ([0], [1], [0])]})


def test_good_cell_lists_still_load():
    data = {"grid": FOUR, "entries": [{"cells": [], "mass": 0.25},
                                      {"cells": [0, 3], "mass": 0.5}],
            "multiplicity_entries": [{"cells": [3], "mass": 0.125}]}
    mu = measure_from_data(data)
    assert dict(mu.entries) == {(): 0.25, (0, 3): 0.5}
    assert dict(mu.multiplicity_entries) == {(3,): 0.125}
    f = functional_from_data({"grid": FOUR, "kind": "hermite-chaos", "channels": 2,
                              "entries": [{"terms": [[3, 1, 2]], "coeff": 1.0}]})
    assert set(f.backend.entries) == {((3, 1, 2),)}
