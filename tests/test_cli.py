"""End-to-end command runs through main(); exit codes 0, 2, 3 and manifests."""
import json
import sys
from fractions import Fraction

import numpy as np
import pytest

from noisespectra import (
    ChaosCoefficients,
    ElementarySet,
    NoiseFunctional,
    SpectralMeasure,
    TimeGrid,
    conditional_expectation,
    functional_from_data,
    functional_to_data,
    read_json,
    restrict,
    spectral_measure_of,
    tensor_product,
    write_json,
)
from noisespectra.cli import _max_gap, _parse_levels, main
from noisespectra.families import make_functional
from noisespectra.functionals import evaluate_table
from noisespectra.serialize import FormatError, grid_to_data, sha256_of


def run(*argv):
    return main(list(argv))


def dump_functional(path, f):
    write_json(str(path), functional_to_data(f))
    return str(path)


@pytest.fixture
def chi01(tmp_path):
    grid = TimeGrid(0, 1, 2)
    f = NoiseFunctional.from_walsh_entries(grid, {(0,): 0.6, (0, 1): 0.8})
    return dump_functional(tmp_path / "f.json", f)


def test_selftest_passes(capsys):
    assert run("selftest", "--level", "4") == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 5
    assert "FAIL" not in out
    # fewer cells would split into a one-cell window; the level runs as asked or not at all
    for level in ("2", "3", "21"):
        assert run("selftest", "--level", level) == 2
        assert "--level must be in 4..20" in capsys.readouterr().err


# stdout byte for byte: the identities run in one pass, with the draws in their order
SELFTEST_PINS = {
    "6": ("projection-norm-vs-subset-mass: max error 2.220446049250313e-16 PASS\n"
          "projection-composition: max error 2.220446049250313e-16 PASS\n"
          "restriction-vs-projected-measure: max error 6.938893903907228e-17 PASS\n"
          "window-factorization: max error 1.1102230246251565e-16 PASS\n"
          "additive-integral-concatenation: max error 0.0 PASS\n"),
    "12": ("projection-norm-vs-subset-mass: max error 1.1102230246251565e-16 PASS\n"
           "projection-composition: max error 3.3306690738754696e-16 PASS\n"
           "restriction-vs-projected-measure: max error 1.734723475976807e-18 PASS\n"
           "window-factorization: max error 1.0408340855860843e-17 PASS\n"
           "additive-integral-concatenation: max error 0.0 PASS\n"),
}


@pytest.mark.parametrize("level", sorted(SELFTEST_PINS))
def test_selftest_stdout_is_pinned(level, capsys):
    assert run("selftest", "--level", level, "--seed", "1") == 0
    assert capsys.readouterr().out == SELFTEST_PINS[level]


def test_selftest_names_every_failed_identity(capsys):
    assert run("selftest", "--level", "6", "--seed", "3", "--tol", "1e-18") == 3
    out, err = capsys.readouterr()
    failed = ["projection-norm-vs-subset-mass", "projection-composition",
              "restriction-vs-projected-measure", "window-factorization"]
    assert err == f"tolerance failure: {', '.join(failed)}\n"
    assert [line.split(":")[0] for line in out.splitlines() if line.endswith("FAIL")] == failed
    assert out.endswith("additive-integral-concatenation: max error 0.0 PASS\n")


def entry_dict_gap(a, b) -> float:
    """The selftest gap as it was taken over two entry mappings: the reference."""
    a, b = dict(a.items()), dict(b.items())
    return max((abs(a.get(k, 0.0) - b.get(k, 0.0)) for k in a.keys() | b.keys()), default=0.0)


@pytest.mark.parametrize("supports", [(0, 40, 0, 40), (0, 40, 20, 64), (0, 30, 30, 64),
                                      (0, 0, 0, 64), (0, 40, 0, 0), (0, 0, 0, 0)],
                         ids=["equal", "overlapping", "disjoint", "left empty", "right empty",
                              "both empty"])
def test_selftest_gap_is_the_entry_dict_gap(supports):
    """Tables, Walsh measures and Walsh expansions, with -0.0 and 0.0 coefficients."""
    grid, rng = TimeGrid(0, 1, 1, base=6), np.random.default_rng(sum(supports))
    keys = [tuple(np.flatnonzero(m >> np.arange(6) & 1).tolist()) for m in range(64)]
    a_lo, a_hi, b_lo, b_hi = supports
    a = dict(zip(keys[a_lo:a_hi], rng.standard_normal(a_hi - a_lo).tolist()))
    b = {k: a.get(k, 1.0) + (0.0 if i % 3 else 2.0 ** -i) for i, k in enumerate(keys[b_lo:b_hi])}
    for k in keys[a_lo:a_hi][:2]:  # -0.0 against 0.0 where b holds the set, else against none
        a[k] = -0.0
        if k in b:
            b[k] = 0.0
    pairs = [(ChaosCoefficients(grid, a), ChaosCoefficients(grid, b)),
             (SpectralMeasure(grid, {k: v * v for k, v in a.items()}),
              SpectralMeasure(grid, {k: v * v for k, v in b.items()}))]
    f = NoiseFunctional.from_table(grid, rng.standard_normal(64))
    region = ElementarySet.from_cells(grid, keys[a_hi - 1] if a_hi else ())
    mu = spectral_measure_of(f)
    pairs.append((restrict(mu, region), spectral_measure_of(conditional_expectation(f, region))))
    for x, y in pairs:
        for left, right in ((x, y), (y, x), (x, x)):
            gap = _max_gap(left, right)
            assert type(gap) is float
            assert repr(gap) == repr(entry_dict_gap(left.entries, right.entries))


def test_decompose_writes_chaos_and_manifest(chi01, tmp_path, capsys):
    out = tmp_path / "coeffs.json"
    assert run("decompose", "--in", chi01, "--out", str(out)) == 0
    doc = read_json(str(out))
    assert doc["kind"] == "walsh-chaos"
    assert {tuple(e["cells"]) for e in doc["entries"]} == {(0,), (0, 1)}
    manifest = read_json(str(out) + ".manifest.json")
    assert manifest["command"] == "decompose"
    assert manifest["inputs"] == {chi01: sha256_of(chi01)}
    assert manifest["outputs"] == [str(out)]
    assert "2 entries" in capsys.readouterr().out


def test_decompose_tol_on_a_walsh_chaos_file_matches_its_table_twin(tmp_path):
    grid = TimeGrid(0, 1, 2)
    f = NoiseFunctional.from_walsh_entries(grid, {(0,): 0.6, (0, 1): 0.1})
    table = NoiseFunctional.from_table(grid, evaluate_table(f))
    cells = []
    for stem, g in (("chaos", f), ("table", table)):
        out = tmp_path / f"{stem}-coeffs.json"
        assert run("decompose", "--in", dump_functional(tmp_path / f"{stem}.json", g),
                   "--tol", "0.2", "--out", str(out)) == 0
        cells.append([e["cells"] for e in read_json(str(out))["entries"]])
    assert cells == [[[0]], [[0]]]


def test_project_empty_set_kills_centered_functional(chi01, tmp_path):
    out = tmp_path / "proj.json"
    assert run("project", "--in", chi01, "--set", "", "--out", str(out)) == 0
    g = functional_from_data(read_json(str(out)))
    # centered input, so conditioning on nothing leaves the zero functional
    assert dict(g.backend.sorted_items()) == {}


def test_project_first_cell(chi01, tmp_path):
    out = tmp_path / "proj.json"
    assert run("project", "--in", chi01, "--set", "0:1", "--out", str(out)) == 0
    g = functional_from_data(read_json(str(out)))
    assert dict(g.backend.sorted_items()) == {(0,): 0.6}


def test_spectrum_dense(chi01, tmp_path):
    out = tmp_path / "mu.json"
    assert run("spectrum", "--in", chi01, "--out", str(out)) == 0
    doc = read_json(str(out))
    masses = {tuple(e["cells"]): e["mass"] for e in doc["entries"]}
    assert masses == {(0,): 0.36, (0, 1): 0.6400000000000001}


def test_spectrum_model_profile(tmp_path):
    out = tmp_path / "mu.json"
    assert run("spectrum", "--family", "tribes", "--level", "5", "--out", str(out)) == 0
    doc = read_json(str(out))
    assert doc["kind"] == "profile"
    total = sum(doc["cardinality_profile"].values())
    assert abs(total - doc["total_mass"]) < 1e-12


def test_sample_csv(chi01, tmp_path):
    out = tmp_path / "sets.csv"
    assert run("sample", "--in", chi01, "--samples", "40", "--seed", "3",
               "--out", str(out)) == 0
    lines = open(str(out)).read().splitlines()
    assert lines[0] == "index,cardinality,cells"
    assert len(lines) == 41
    manifest = read_json(str(out) + ".manifest.json")
    assert manifest["seed"] == 3


def test_factor_check_verdicts(tmp_path, rng, capsys):
    half = Fraction(1, 2)
    g = NoiseFunctional.from_table(TimeGrid(0, half, 1), rng.standard_normal(4))
    h = NoiseFunctional.from_table(TimeGrid(half, 1, 1), rng.standard_normal(4))
    prod = dump_functional(tmp_path / "prod.json", tensor_product(g, h))
    verdict_path = tmp_path / "verdict.json"
    assert run("factor-check", "--in", prod, "--cut", "1/2",
               "--out", str(verdict_path)) == 0
    assert "exact-product: true" in capsys.readouterr().out
    doc = read_json(str(verdict_path))
    assert doc["exact_product"] is True
    # for a product the straddle is exactly the product of factor variances
    want = g.backend.values.var() * h.backend.values.var()
    assert abs(doc["straddling_mass"] - want) < 1e-12

    grid2 = TimeGrid(0, 1, 2)
    # a sum of characters from the two sides has rank 2 across the cut
    f = NoiseFunctional.from_walsh_entries(grid2, {(1,): 1.0, (2,): 1.0})
    bad = dump_functional(tmp_path / "bad.json", f)
    assert run("factor-check", "--in", bad, "--cut", "1/2") == 0
    assert "exact-product: false" in capsys.readouterr().out


def test_factor_check_past_the_dense_cap_exits_2_naming_the_cap(tmp_path, capsys):
    parity = dump_functional(tmp_path / "parity.json", make_functional("parity", 5))
    assert run("factor-check", "--in", parity, "--cut", "1/2") == 2
    assert "value tables are capped at 24 cells, got 32" in capsys.readouterr().err


def test_project_past_the_dense_cap_exits_2_naming_the_family(tmp_path, capsys):
    maj3 = dump_functional(tmp_path / "maj3.json", make_functional("majority3-iterated", 10))
    out = str(tmp_path / "proj.json")
    assert run("project", "--in", maj3, "--set", "0:4", "--out", out) == 2
    err = capsys.readouterr().err
    assert "family majority3-iterated at level 10: " in err
    assert "value tables are capped at 24 cells, got 59049" in err
    assert list(tmp_path.iterdir()) == [tmp_path / "maj3.json"]


def test_factor_check_additive_functional_has_no_straddling_mass(tmp_path):
    # constant plus singletons: no spectral set meets both sides of any cut,
    # so the straddling mass is exactly zero, not float residue
    grid = TimeGrid(0, 1, 1, base=12)
    out = tmp_path / "verdict.json"
    for seed in range(5):
        r = np.random.default_rng(seed)
        entries = {(): float(r.standard_normal())}
        entries.update({(i,): float(r.standard_normal()) for i in range(12)})
        f = NoiseFunctional.from_walsh_entries(grid, entries)
        path = dump_functional(tmp_path / f"additive{seed}.json", f)
        for b in range(1, 12):
            assert run("factor-check", "--in", path, "--cut", str(grid.boundary(b)),
                       "--out", str(out)) == 0
            assert read_json(str(out))["straddling_mass"] == 0.0


def test_factor_check_at_the_window_ends_is_an_exact_product(tmp_path, chi01):
    # a cut at either end of the window leaves one side empty: no matrix, nothing straddles
    out = tmp_path / "verdict.json"
    for cut in ("0", "1"):
        assert run("factor-check", "--in", chi01, "--cut", cut, "--out", str(out)) == 0
        verdict = read_json(str(out))
        assert verdict["exact_product"] is True and verdict["second_singular_value"] == 0.0
        assert verdict["cut"] == cut and "straddling_mass" not in verdict


def test_cuts_csv_bytes_for_majority_family_file(tmp_path):
    # captured before TimeGrid.cell_length was cached; the boundary times must not move
    src = dump_functional(tmp_path / "maj.json", make_functional("majority3-iterated", 7))
    out = tmp_path / "cuts.csv"
    assert run("cuts", "--in", src, "--out", str(out)) == 0
    assert sha256_of(str(out)) == (
        "b8a236555ab2fee28356db0dd2a687d5b3cff9d2ba6c2e819b798aca6c5d5684"
    )


@pytest.mark.parametrize("window,level,base", [
    ((Fraction(1, 3), Fraction(7, 5)), 2, 3),
    ((Fraction(-1, 2), Fraction(3, 2)), 3, 2),
    ((Fraction(1, 3), Fraction(5, 7)), 2, 3),
])
def test_cuts_csv_times_equal_grid_boundaries(tmp_path, window, level, base):
    grid = TimeGrid(*window, level, base)
    values = np.random.default_rng(level).standard_normal(1 << grid.n_cells)
    src = dump_functional(tmp_path / "f.json", NoiseFunctional.from_table(grid, values))
    out = tmp_path / "cuts.csv"
    assert run("cuts", "--in", src, "--out", str(out)) == 0
    rows = [line.split(",") for line in open(str(out)).read().splitlines()[1:]]
    assert [int(r[0]) for r in rows] == list(range(1, grid.n_cells))
    for b, exact, time, _ in rows:
        t = grid.boundary(int(b))
        assert (exact, time) == (str(t), repr(float(t)))


def test_cuts_csv_for_tribes_14_family_file(tmp_path):
    # the root's 1638-way `or` once overflowed C(m, t) on every cut query
    src = dump_functional(tmp_path / "tribes.json", make_functional("tribes", 14))
    out = tmp_path / "cuts.csv"
    assert run("cuts", "--in", src, "--out", str(out)) == 0
    rows = open(str(out)).read().splitlines()[1:]
    assert len(rows) == 16383
    distances = np.array([float(r.split(",")[3]) for r in rows])
    assert np.all((distances >= 0.0) & (distances <= 1.0))


def test_cuts_csv(chi01, tmp_path):
    out = tmp_path / "cuts.csv"
    assert run("cuts", "--in", chi01, "--out", str(out)) == 0
    lines = open(str(out)).read().splitlines()
    assert lines[0] == "boundary_index,time_exact,time,distance"
    assert len(lines) == 4  # three interior boundaries on four cells
    # chi_{0,1} straddles boundaries 1 and does not straddle 2, 3
    rows = {int(l.split(",")[0]): float(l.split(",")[3]) for l in lines[1:]}
    assert rows[1] > 0.5
    assert rows[3] == 0.0


def test_classify_run(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert run("classify", "--family", "majority3-iterated", "--levels", "1..2",
               "--out", str(out)) == 0
    doc = read_json(str(out))
    assert [r["level"] for r in doc["records"]] == [1, 2]
    assert doc["singleton_fractions"] == [0.75, 0.5625]
    assert capsys.readouterr().out.strip() != ""


def test_ito_gate(tmp_path, capsys):
    kpath = tmp_path / "k.json"
    write_json(str(kpath), {"order": 1, "constant": 1.0})
    assert run("ito", "--kernel", str(kpath), "--level", "4", "--paths", "20000",
               "--seed", "2") == 0
    assert run("ito", "--kernel", str(kpath), "--level", "4", "--paths", "20000",
               "--seed", "2", "--gate", "1e-6") == 3
    err = capsys.readouterr().err
    assert "tolerance failure" in err


def test_npoint_order1(tmp_path):
    out = tmp_path / "density.csv"
    assert run("npoint", "--family", "white-noise-i1", "--level", "3",
               "--order", "1", "--paths", "20000", "--seed", "1",
               "--out", str(out)) == 0
    lines = open(str(out)).read().splitlines()
    assert lines[0] == "cell,coeff,density"
    densities = [float(l.split(",")[2]) for l in lines[1:]]
    assert len(densities) == 8
    assert abs(np.mean(densities) - 1.0) < 0.1


def test_dim_and_calibrate(tmp_path, capsys):
    out = tmp_path / "dim.csv"
    assert run("dim", "--family", "parity", "--levels", "5,6", "--samples", "4",
               "--seed", "0", "--out", str(out)) == 0
    assert "slope 1.0" in capsys.readouterr().out

    report = tmp_path / "cal.json"
    assert run("calibrate", "--depth", "5", "--samples", "8", "--seed", "0",
               "--out", str(report)) == 0
    doc = read_json(str(report))
    assert all(r["pass"] for r in doc["results"].values())
    assert set(doc["results"]) == {"point", "full-interval", "cantor-thirds"}


@pytest.mark.parametrize("argv,digest", [
    (["classify", "--family", "majority3-iterated", "--levels", "3..6"],
     "fe7a16bffcd4d02cd1779428ad58c0e78269f1d9448c5a5dac00e3d95d17e330"),
    (["classify", "--family", "tribes", "--levels", "3..5"],
     "c690cc9448835436fa61eb195fa06882ca797e096786f0465cc12f4810416e3a"),
    (["classify", "--family", "coordinate-sum", "--levels", "1..4"],
     "c2b6f1e1a0d71683eda9f8f45fb5045814172bf679f146f97ff2925011f0255f"),
    (["dim", "--family", "majority3-iterated", "--levels", "6..7", "--samples", "500",
      "--seed", "1"],
     "1edf4b04e3d36a248a61d15cb9b8c10d3c86b808ec1f9542a2119f2c83e86089"),
    (["dim", "--family", "cantor-calibration", "--levels", "5..6", "--samples", "500",
      "--seed", "1"],
     "02055aa872af050e7e9c32e201f95634037c61db2e56c2b7344c2948e5724035"),
    (["npoint", "--family", "white-noise-i1", "--level", "5", "--order", "1",
      "--paths", "4000", "--seed", "1", "--threads", "1"],
     "48bdee302f8fd9c73962e3eb5c0fb7ae0e3b8da5270d75b9eb3776b86541f72d"),
    (["npoint", "--family", "white-noise-i2", "--level", "4", "--order", "2",
      "--paths", "4000", "--seed", "1", "--threads", "1"],
     "40b3475b6608f19318e7427ff2346304e24f82d3a5de98e4dc6396979f6c6ef2"),
])
def test_report_and_table_bytes_are_pinned(argv, digest, tmp_path):
    # captured before the commands wrote the library's records directly
    out = tmp_path / "out"
    assert run(*argv, "--out", str(out)) == 0
    assert sha256_of(str(out)) == digest


def test_usage_errors_exit_2(tmp_path, capsys):
    assert run("decompose", "--in", str(tmp_path / "missing.json"),
               "--out", str(tmp_path / "o.json")) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run("decompose", "--in", str(bad), "--out", str(tmp_path / "o.json")) == 2
    assert run("spectrum", "--family", "nonesuch", "--level", "3",
               "--out", str(tmp_path / "o.json")) == 2
    assert run("spectrum", "--family", "parity", "--out", str(tmp_path / "o.json")) == 2
    assert run("dim", "--family", "parity", "--levels", "2..x", "--samples", "4",
               "--seed", "0", "--out", str(tmp_path / "o.csv")) == 2
    assert run("classify", "--family", "parity", "--levels", ",",
               "--out", str(tmp_path / "o.json")) == 2
    err = capsys.readouterr().err
    assert err.count("error:") == 6


def test_non_finite_input_exits_2(tmp_path, capsys):
    grid = TimeGrid(0, 1, 2)
    values = np.ones(1 << grid.n_cells)
    values[5] = np.nan
    f = NoiseFunctional.from_table(grid, values)
    path = dump_functional(tmp_path / "nan.json", f)
    assert run("decompose", "--in", path, "--out", str(tmp_path / "o.json")) == 2
    assert "must be finite" in capsys.readouterr().err
    assert not (tmp_path / "o.json").exists()


def test_bad_set_spec_exits_2(chi01, tmp_path):
    assert run("project", "--in", chi01, "--set", "0:99",
               "--out", str(tmp_path / "o.json")) == 2


@pytest.mark.parametrize("spec", ["5:2", "1:2:3", "0, 3:1", "4:", ":3", "0,x"])
def test_malformed_set_range_exits_2_naming_the_part(spec, chi01, tmp_path, capsys):
    assert run("project", "--in", chi01, "--set", spec, "--out", str(tmp_path / "o.json")) == 2
    part = spec.split(",")[-1].strip()
    assert f"bad cell range {part!r}" in capsys.readouterr().err
    assert not (tmp_path / "o.json").exists()


def test_program_file_with_a_coefficient_free_poly_map_exits_2(tmp_path, capsys):
    path = tmp_path / "p.json"
    path.write_text(json.dumps({
        "schema_version": "1", "grid": {"start": "0", "end": "1", "level": 2}, "kind": "program",
        "terms": [{"type": "map", "weight": 1.0,
                   "factors": [{"cell": 0, "channel": 0, "fn": "poly", "params": []}]}]}))
    out = tmp_path / "o.json"
    assert run("spectrum", "--in", str(path), "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert "terms[0]: a poly map needs at least one coefficient" in err
    assert "Traceback" not in err and not out.exists()


def test_dense_kernel_file_with_weight_below_the_diagonal_exits_2(tmp_path, capsys):
    kpath = tmp_path / "k.json"
    kpath.write_text('{"order": 2, "dense": [[0.0, 1.0], [5.0, 0.0]]}')
    out = tmp_path / "o.json"
    assert run("ito", "--kernel", str(kpath), "--level", "1", "--paths", "2000",
               "--seed", "1", "--out", str(out)) == 2
    captured = capsys.readouterr()
    assert "weight 5.0 at (1, 0) is not above the diagonal" in captured.err
    assert "exact" not in captured.out
    assert not out.exists()


@pytest.mark.parametrize("record", [
    '{"order": 1, "dense": [1.0, NaN, 2.0, 0.5]}',
    '{"order": 2, "factors": [[1.0, Infinity, 2.0, 0.5], [1.0, 1.0, 1.0, 1.0]]}',
    '{"order": 1, "constant": -Infinity}',
])
def test_non_finite_kernel_file_exits_2(record, tmp_path, capsys):
    kpath = tmp_path / "k.json"
    kpath.write_text(record)
    out = tmp_path / "o.json"
    assert run("ito", "--kernel", str(kpath), "--level", "2", "--paths", "1000",
               "--seed", "1", "--out", str(out)) == 2
    assert "must be finite" in capsys.readouterr().err
    assert not out.exists()


def test_ito_runs_a_two_channel_kernel_file(tmp_path, capsys):
    kpath = tmp_path / "k.json"
    write_json(str(kpath), {"order": 2, "constant": 1.0, "channels": [0, 1]})
    out = tmp_path / "o.json"
    assert run("ito", "--kernel", str(kpath), "--level", "3", "--paths", "20000",
               "--seed", "1", "--out", str(out)) == 0
    assert abs(read_json(str(out))["z"]) <= 5


@pytest.mark.parametrize("channel, shown",
                         [(0.7, "got 0.7"), (True, "got True"), (-1, "got (-1,)")])
def test_kernel_file_with_a_channel_that_is_not_a_slot_exits_2(channel, shown, tmp_path, capsys):
    # int() would read 0.7 as channel 0
    kpath = tmp_path / "k.json"
    write_json(str(kpath), {"order": 1, "constant": 1.0, "channels": [channel]})
    assert run("ito", "--kernel", str(kpath), "--level", "2", "--paths", "1000",
               "--seed", "1") == 2
    assert shown in capsys.readouterr().err


@pytest.mark.parametrize("record, shown", [
    ({"order": 2.9, "n_cells": 4.5, "constant": 1.0}, "kernel order and n_cells"),
    ({"order": 1, "n_cells": 4.5, "constant": 1.0}, "must be integers, got 4.5")])
def test_kernel_file_with_a_float_order_or_size_exits_2(record, shown, tmp_path, capsys):
    # int() would read order 2.9 as 2 and 4.5 cells as 4
    kpath = tmp_path / "k.json"
    write_json(str(kpath), record)
    assert run("ito", "--kernel", str(kpath), "--level", "2", "--paths", "1000",
               "--seed", "1") == 2
    assert shown in capsys.readouterr().err


def test_ito_gate_fails_on_a_nan_z(tmp_path, capsys, monkeypatch):
    from noisespectra import cli
    from noisespectra.functionals import MCEstimate
    from noisespectra.whitenoise import MomentCheck

    nan_check = MomentCheck(float("nan"), MCEstimate(1.0, 0.1, 1000))
    monkeypatch.setattr(cli, "isometry_check", lambda *args: nan_check)
    kpath = tmp_path / "k.json"
    write_json(str(kpath), {"order": 1, "constant": 1.0})
    assert run("ito", "--kernel", str(kpath), "--level", "2", "--paths", "1000",
               "--seed", "1") == 3
    assert "tolerance failure" in capsys.readouterr().err


@pytest.mark.parametrize("cell", [99, -1, 1.7, True, "1"])
def test_single_coordinate_file_with_a_bad_cell_exits_2(cell, tmp_path, capsys):
    grid = TimeGrid(0, 1, 2)
    path = tmp_path / "f.json"
    path.write_text(json.dumps({
        "schema_version": "1", "grid": grid_to_data(grid), "kind": "family",
        "name": "single-coordinate", "level": 2, "params": {"cell": cell},
    }))
    assert run("project", "--in", str(path), "--set", "0:2",
               "--out", str(tmp_path / "o.json")) == 2
    assert run("factor-check", "--in", str(path), "--cut", "1/2") == 2
    err = capsys.readouterr().err
    assert err.count("cell must be an integer in 0..3") == 2
    assert not (tmp_path / "o.json").exists()


def test_argparse_level_errors(capsys):
    assert run("nonesuch") == 2
    assert run() == 2
    capsys.readouterr()


def test_parse_levels():
    assert _parse_levels("1..4") == [1, 2, 3, 4]
    assert _parse_levels("2,5,7") == [2, 5, 7]
    with pytest.raises(FormatError):
        _parse_levels("4..1")
    for bad in ("a,b", "", ","):
        with pytest.raises(FormatError):
            _parse_levels(bad)


# every command that takes --out, with its arguments and the seed it records;
# "{f}" and "{k}" stand for a functional file and a kernel file
MANIFEST_CASES = {
    "decompose": (["--in", "{f}"], None),
    "project": (["--in", "{f}", "--set", "0:1"], None),
    "spectrum": (["--in", "{f}"], None),
    "sample": (["--in", "{f}", "--samples", "10", "--seed", "3"], 3),
    "factor-check": (["--in", "{f}", "--cut", "1/2"], None),
    "cuts": (["--in", "{f}"], None),
    "classify": (["--family", "parity", "--levels", "1..2"], None),
    "ito": (["--kernel", "{k}", "--level", "3", "--paths", "2000", "--seed", "5"], 5),
    "npoint": (["--family", "white-noise-i1", "--level", "3", "--order", "1",
                "--paths", "2000", "--seed", "6"], 6),
    "dim": (["--family", "parity", "--levels", "5,6", "--samples", "4", "--seed", "7"], 7),
    "calibrate": (["--depth", "5", "--samples", "8", "--seed", "8"], 8),
}


@pytest.fixture
def files(chi01, tmp_path):
    kernel = str(tmp_path / "k.json")
    write_json(kernel, {"order": 1, "constant": 1.0})
    return {"{f}": chi01, "{k}": kernel}


@pytest.mark.parametrize("command", sorted(MANIFEST_CASES))
def test_manifest_records_parsed_argv(command, files, tmp_path):
    options, seed = MANIFEST_CASES[command]
    out = str(tmp_path / "result")
    argv = [command] + [files.get(a, a) for a in options] + ["--out", out]
    assert main(argv) == 0
    manifest = read_json(out + ".manifest.json")
    assert manifest["command"] == command
    assert manifest["argv"] == argv
    assert manifest["seed"] == seed
    assert manifest["inputs"] == {p: sha256_of(p) for p in files.values() if p in argv}
    assert manifest["outputs"] == [out]


def test_manifest_argv_defaults_to_command_line(tmp_path, monkeypatch):
    out = str(tmp_path / "mu.json")
    argv = ["spectrum", "--family", "tribes", "--level", "5", "--out", out]
    monkeypatch.setattr(sys, "argv", ["noisespectra"] + argv)
    assert main() == 0
    assert read_json(out + ".manifest.json")["argv"] == argv


@pytest.mark.parametrize("command", ["factor-check", "ito", "calibrate"])
def test_no_manifest_without_out(command, files, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main([command] + [files.get(a, a) for a in MANIFEST_CASES[command][0]]) == 0
    assert list(tmp_path.rglob("*.manifest.json")) == []


def test_no_manifest_on_usage_error(tmp_path):
    out = tmp_path / "o.json"
    assert run("decompose", "--in", str(tmp_path / "missing.json"), "--out", str(out)) == 2
    assert run("classify", "--family", "parity", "--levels", ",", "--out", str(out)) == 2
    assert run("spectrum", "--family", "nonesuch", "--level", "3", "--out", str(out)) == 2
    assert list(tmp_path.rglob("*.manifest.json")) == []


MANIFEST_KEYS = ["schema_version", "command", "argv", "seed", "versions", "inputs", "outputs",
                 "wall_time_s"]


@pytest.mark.parametrize("command", ["decompose", "cuts", "npoint"])
def test_manifest_keys_keep_their_order(command, files, tmp_path):
    out = str(tmp_path / "result")
    argv = [command] + [files.get(a, a) for a in MANIFEST_CASES[command][0]] + ["--out", out]
    assert main(argv) == 0
    manifest = read_json(out + ".manifest.json")
    assert list(manifest) == MANIFEST_KEYS
    assert list(manifest["versions"]) == ["package", "numpy", "python"]


def test_selftest_writes_no_manifest(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run("selftest", "--level", "4") == 0
    assert run("selftest", "--level", "4", "--out", str(tmp_path / "o.json")) == 2
    assert list(tmp_path.iterdir()) == []


def test_threads_is_only_an_option_of_the_monte_carlo_commands(tmp_path, capsys):
    assert run("spectrum", "--family", "tribes", "--level", "3",
               "--out", str(tmp_path / "o.json"), "--threads", "2") == 2
    assert "--threads" in capsys.readouterr().err
    assert not (tmp_path / "o.json").exists()


ITO_ARGS = ["--level", "3", "--paths", "2000", "--seed", "5"]


@pytest.mark.parametrize("value", ["0", "-1", "two", "2_0", "+2"])
def test_thread_variable_must_be_a_positive_integer(value, files, tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("NOISESPECTRA_THREADS", value)
    out = tmp_path / "o.json"
    assert run("ito", "--kernel", files["{k}"], *ITO_ARGS, "--out", str(out)) == 2
    assert f"NOISESPECTRA_THREADS must be a positive integer, got {value!r}" in (
        capsys.readouterr().err
    )
    assert not out.exists()


NPOINT_ARGS = ["--family", "white-noise-i1", "--level", "3", "--order", "1",
               "--paths", "2000", "--seed", "1"]


@pytest.mark.parametrize("value", ["0", "-1", "two", "2_0", "+2"])
def test_threads_option_must_be_a_positive_integer(value, tmp_path, capsys):
    # refused while parsing, before any path is drawn
    out = tmp_path / "density.csv"
    assert run("npoint", *NPOINT_ARGS, "--threads", value, "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert f"argument --threads: must be a positive integer, got {value!r}" in err
    assert not out.exists()


def test_threads_option_takes_a_positive_integer(tmp_path):
    out = tmp_path / "density.csv"
    assert run("npoint", *NPOINT_ARGS, "--threads", "2", "--out", str(out)) == 0
    assert len(out.read_text().splitlines()) == 9


def test_thread_variable_sets_the_worker_count(files, tmp_path, monkeypatch):
    via_option = tmp_path / "option.json"
    assert run("ito", "--kernel", files["{k}"], *ITO_ARGS, "--threads", "3",
               "--out", str(via_option)) == 0
    monkeypatch.setenv("NOISESPECTRA_THREADS", "3")
    via_env = tmp_path / "env.json"
    assert run("ito", "--kernel", files["{k}"], *ITO_ARGS, "--out", str(via_env)) == 0
    assert via_env.read_bytes() == via_option.read_bytes()
    serial = tmp_path / "serial.json"
    assert run("ito", "--kernel", files["{k}"], *ITO_ARGS, "--threads", "1",
               "--out", str(serial)) == 0
    assert serial.read_bytes() != via_env.read_bytes()


def test_cells_off_the_grid_exit_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    data = functional_to_data(NoiseFunctional.from_walsh_entries(TimeGrid(0, 1, 2), {(0,): 1.0}))
    data["entries"][0]["cells"] = [9]
    path.write_text(json.dumps(data))
    assert run("spectrum", "--in", str(path), "--out", str(tmp_path / "o.json")) == 2
    assert "entries[0]: cells [9]" in capsys.readouterr().err
    assert not (tmp_path / "o.json").exists()
