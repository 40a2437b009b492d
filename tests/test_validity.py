"""Index and site validity has one owner per object: `ChaosCoefficients` for chaos
indices, `NoiseFunctional` for a program's sites, `TimeGrid`, `SimplexKernel`,
`BrownianProgram` and `MapFactor` for their own integers.  Every entry point, in memory
or from a file, meets the same rule."""
import numpy as np
import pytest

from noisespectra import SimplexKernel, TimeGrid, decompose, random_functional
from noisespectra.chaos import HERMITE, WALSH, ChaosCoefficients, add_coefficients, hermite_index
from noisespectra.grid import left_of
from noisespectra.functionals import (
    ItoTerm,
    MapFactor,
    MapTerm,
    NoiseFunctional,
    hermite_decompose,
    shift,
)
from noisespectra.serialize import (
    FormatError,
    functional_from_data,
    grid_from_data,
    grid_to_data,
    kernel_from_data,
)
from noisespectra.spectral import SpectralMeasure
from noisespectra.structure import additive_integral_of
from noisespectra.transform import conditional_expectation, level_projection
from noisespectra.whitenoise import isometry_check, orthogonality_check

GRID = TimeGrid(0, 1, 2)  # 4 cells
FOUR = grid_to_data(GRID)


def chaos_file(kind, entries, **extra):
    return lambda: functional_from_data({"grid": FOUR, "kind": kind, "entries": entries, **extra})


def program_file(*terms):
    return lambda: functional_from_data({"grid": FOUR, "kind": "program", "terms": list(terms)})


def program(*terms, channels=1):
    return lambda: NoiseFunctional.from_program(GRID, list(terms), channels=channels)


KERNEL_07 = {"order": 1, "constant": 1.0, "channels": [0.7]}
HERMITE_RULE = r" are not sorted \(cell, channel, degree\) integer triples"
WALSH_RULE = r" are not strictly increasing integers in 0\.\.3$"

# (build, error type, message); every message names the entry or term and the bad value
REFUSALS = {
    "walsh cell off the grid": (
        lambda: ChaosCoefficients(GRID, {(9,): 1.0}), ValueError,
        r"^entries\[0\]: cells \[9\]" + WALSH_RULE),
    "walsh cells falling": (
        lambda: ChaosCoefficients(GRID, {(): 1.0, (3, 1): 1.0}), ValueError,
        r"^entries\[1\]: cells \[3, 1\]" + WALSH_RULE),
    "walsh float cell": (
        lambda: ChaosCoefficients(GRID, {(1.0,): 1.0}, WALSH), ValueError,
        r"^entries\[0\]: cells \[1\.0\]" + WALSH_RULE),
    "hermite channel past the channels": (
        lambda: ChaosCoefficients(GRID, {((0, 5, 1),): 1.0}, HERMITE), ValueError,
        r"^entries\[0\]: terms \(\(0, 5, 1\),\)" + HERMITE_RULE + ".*channels in 0\\.\\.0"),
    "hermite cell off the grid": (
        lambda: ChaosCoefficients(GRID, {((9, 0, 1),): 1.0}, HERMITE), ValueError,
        r"^entries\[0\]: terms \(\(9, 0, 1\),\)" + HERMITE_RULE),
    "hermite terms unsorted": (
        lambda: ChaosCoefficients(GRID, {((1, 0, 1), (0, 0, 1)): 1.0}, HERMITE), ValueError,
        r"^entries\[0\]: terms \(\(1, 0, 1\), \(0, 0, 1\)\)" + HERMITE_RULE),
    "hermite degree zero": (
        lambda: ChaosCoefficients(GRID, {(): 1.0, ((2, 0, 0),): 1.0}, HERMITE), ValueError,
        r"^entries\[1\]: terms \(\(2, 0, 0\),\)" + HERMITE_RULE),
    "walsh entries off the grid": (
        lambda: NoiseFunctional.from_walsh_entries(GRID, {(0,): 1.0, (4, 1): 1.0}), ValueError,
        r"^entries\[1\]: cells \[1, 4\]" + WALSH_RULE),
    "map factor off the grid": (
        program(MapTerm(1.0, (MapFactor(99, 0, "sin"),))), ValueError,
        r"^terms\[0\]: cell 99 and channel 0 must be integers in 0\.\.3 and 0\.\.0$"),
    "map factor channel past the channels": (
        program(ItoTerm(1.0, SimplexKernel.constant(1, 4)),
                MapTerm(1.0, (MapFactor(1, 2, "sin"),)), channels=2), ValueError,
        r"^terms\[1\]: cell 1 and channel 2 must be integers in 0\.\.3 and 0\.\.1$"),
    "map factor float cell": (
        lambda: MapFactor(1.5, 0, "sin"), ValueError,
        r"^map cell and channel must be integers, got 1\.5$"),
    "kernel on another grid": (
        program(ItoTerm(1.0, SimplexKernel.constant(1, 8))), ValueError,
        r"^terms\[0\]: kernel on 8 cells, grid of 4$"),
    "kernel channel past the channels": (
        program(ItoTerm(1.0, SimplexKernel.constant(2, 4, channels=(0, 1)))), ValueError,
        r"^terms\[0\]: cell 0 and channel 1 must be integers in 0\.\.3 and 0\.\.0$"),
    "kernel float channel": (
        lambda: SimplexKernel.constant(1, 4, channels=(0.5,)), ValueError,
        r"^kernel channels must be integers, got 0\.5$"),
    "kernel negative channel": (
        lambda: SimplexKernel.constant(2, 4, channels=(0, -1)), ValueError,
        r"^one channel tag >= 0 per kernel slot required, got \(0, -1\)$"),
    "kernel file float channel": (
        lambda: kernel_from_data(KERNEL_07, 4), FormatError,
        r"^bad kernel record: kernel channels must be integers, got 0\.7$"),
    "shift by a float": (
        lambda: shift(NoiseFunctional.from_walsh_entries(GRID, {(0,): 1.0}), 1.5), ValueError,
        r"^shift steps must be integers, got 1\.5$"),
    "walsh-chaos file off the grid": (
        chaos_file("walsh-chaos", [{"cells": [0], "coeff": 1.0}, {"cells": [9], "coeff": 1.0}]),
        FormatError, r"^bad functional record: entries\[1\]: cells \[9\]" + WALSH_RULE),
    "hermite-chaos file repeat": (
        chaos_file("hermite-chaos", [{"terms": [[0, 0, 1]], "coeff": 2.0},
                                     {"terms": [[0, 0, 1]], "coeff": 1.0}]),
        FormatError, r"^entries\[1\]: terms \[\[0, 0, 1\]\] repeat an earlier one$"),
    "hermite-chaos file channel": (
        chaos_file("hermite-chaos", [{"terms": [[0, 1, 1]], "coeff": 1.0}], channels=1),
        FormatError,
        r"^bad functional record: entries\[0\]: terms \(\(0, 1, 1\),\)" + HERMITE_RULE),
    "program file float cell": (
        program_file({"type": "map", "weight": 1.0,
                      "factors": [{"cell": 1.5, "channel": 0, "fn": "sin"}]}),
        FormatError, r"^terms\[0\]: map cell and channel must be integers, got 1\.5$"),
    "program file kernel float channel": (
        program_file({"type": "ito", "weight": 1.0, "kernel": KERNEL_07}), FormatError,
        r"^terms\[0\]: bad kernel record: kernel channels must be integers, got 0\.7$"),
    "program file kernel channel past the channels": (
        program_file({"type": "ito", "weight": 1.0,
                      "kernel": {"order": 2, "constant": 1.0, "channels": [0, 3]}}), FormatError,
        r"^bad functional record: terms\[0\]: cell 0 and channel 3 must be integers"),
    "walsh entries naming one set twice": (
        lambda: NoiseFunctional.from_walsh_entries(GRID, {(0, 1): 1.0, (1, 0): 2.0}), ValueError,
        r"^entries\[1\]: cells \[1, 0\] repeat an earlier one$"),
    "walsh coefficient off the grid": (
        lambda: ChaosCoefficients(GRID, {(0, 1): 2.0}).coefficient((9,)), ValueError,
        r"^index \(9,\) outside grid with 4 cells, channels 0\.\.0$"),
    "walsh coefficient of a float cell": (
        lambda: ChaosCoefficients(GRID, {(0, 1): 2.0}).coefficient((1.0, 0)), ValueError,
        r"^Walsh index cells must be integers, got 1\.0$"),
    "hermite coefficient past the channels": (
        lambda: ChaosCoefficients(GRID, {((0, 0, 1),): 2.0}, HERMITE).coefficient(((0, 1, 1),)),
        ValueError, r"^index \(\(0, 1, 1\),\) outside grid with 4 cells, channels 0\.\.0$"),
    "hermite coefficient of a float cell": (
        lambda: ChaosCoefficients(GRID, {((0, 0, 1),): 2.0}, HERMITE).coefficient(((0.5, 0, 1),)),
        ValueError, r"cells, channels and degrees must be integers, got 0\.5$"),
    "measure mass of a float cell": (
        lambda: SpectralMeasure(GRID, {(1,): 1.0}).mass([1.5]), ValueError,
        r"^cells must be integers, got 1\.5$"),
    "measure mass of a cell off the grid": (
        lambda: SpectralMeasure(GRID, {(1,): 1.0}).mass([9]), ValueError,
        r"^cells \(9,\) outside grid with 4 cells$"),
    "grid float level": (
        lambda: TimeGrid(0, 1, 2.7), ValueError, r"^grid level and base must be integers, got 2\.7$"),
    "kernel float order": (
        lambda: SimplexKernel.constant(2.9, 4), ValueError,
        r"^kernel order and n_cells must be integers, got 2\.9$"),
    "program float channels": (
        program(channels=2.0), ValueError,
        r"^program degree cap and channels must be integers, got 2\.0$"),
    "grid file float level": (
        lambda: grid_from_data({**FOUR, "level": 2.7}), FormatError,
        r"^bad grid record: grid level and base must be integers, got 2\.7$"),
    "grid file float base": (
        lambda: grid_from_data({**FOUR, "base": 2.5}), FormatError,
        r"^bad grid record: grid level and base must be integers, got 2\.5$"),
    "kernel file float order and size": (
        lambda: kernel_from_data({"order": 2.9, "n_cells": 4.5, "constant": 1.0}), FormatError,
        r"^bad kernel record: kernel order and n_cells must be integers, got 2\.9$"),
    "kernel file float size": (
        lambda: kernel_from_data({"order": 2, "n_cells": 4.5, "constant": 1.0}), FormatError,
        r"^bad kernel record: kernel order and n_cells must be integers, got 4\.5$"),
    "hermite-chaos file float channels": (
        chaos_file("hermite-chaos", [{"terms": [[0, 1, 1]], "coeff": 1.0}], channels=2.7),
        FormatError, r"^bad functional record: chaos channels must be integers, got 2\.7$"),
    "program file float degree cap": (
        lambda: functional_from_data({"grid": FOUR, "kind": "program", "terms": [],
                                      "degree_cap": 2.5}), FormatError,
        r"^bad functional record: program degree cap and channels must be integers, got 2\.5$"),
    "family file float level": (
        lambda: functional_from_data({"grid": {**FOUR, "base": 3}, "kind": "family",
                                      "name": "majority3-iterated", "level": 2.7}), FormatError,
        r"^bad functional record: grid level and base must be integers, got 2\.7$"),
}


@pytest.mark.parametrize("case", REFUSALS)
def test_every_entry_point_refuses_a_bad_index_or_site(case):
    build, error, message = REFUSALS[case]
    with pytest.raises(error, match=message):
        build()


def test_good_indices_and_sites_still_build():
    c = ChaosCoefficients(GRID, {(): 1.0, (np.int64(1), 3): 0.5})
    assert c.entries == {(): 1.0, (1, 3): 0.5}
    # a coefficient is read at its index as walsh_index and hermite_index read it
    assert c.coefficient((3, np.int64(1))) == 0.5 and c.coefficient([2]) == 0.0
    h = ChaosCoefficients(GRID, {((0, 1, 2), (3, 0, 1)): 1.0}, HERMITE, channels=2)
    assert list(h.entries) == [((0, 1, 2), (3, 0, 1))]
    assert h.coefficient(((3, 0, 1), (0, 1, 2))) == 1.0
    fa = MapFactor(np.int64(3), np.uint8(1), "sin")
    assert (fa.cell, fa.channel) == (3, 1) and type(fa.cell) is type(fa.channel) is int
    k = SimplexKernel.constant(2, 4, channels=np.array([1, 0]))
    assert k.channels == (1, 0) and all(type(ch) is int for ch in k.channels)
    f = NoiseFunctional.from_program(GRID, [ItoTerm(1.0, k), MapTerm(1.0, (fa,))], channels=2)
    assert len(f.backend.terms) == 2
    # integer fields come out as ints, whatever integer type they arrive as
    grid = TimeGrid(0, 1, np.int64(2), np.uint8(3))
    assert (grid.level, grid.base) == (2, 3) and type(grid.level) is type(grid.base) is int
    k = SimplexKernel.constant(np.int32(1), np.int64(4))
    assert (k.order, k.n_cells) == (1, 4) and type(k.order) is type(k.n_cells) is int
    assert SpectralMeasure(GRID, {(1, 3): 0.5}).mass(np.array([3, 1])) == 0.5


def test_trusted_builders_never_run_the_owner_check(monkeypatch, rng):
    table = random_functional(GRID, rng)
    walsh = decompose(table)
    hermite = ChaosCoefficients(GRID, {((0, 0, 1),): 1.0, ((1, 1, 2), (2, 0, 1)): 0.5},
                                HERMITE, channels=2)
    p = NoiseFunctional.from_program(GRID, [
        ItoTerm(1.0, SimplexKernel.constant(2, 4, channels=(1, 0))),
        MapTerm(0.5, (MapFactor(2, 1, "sin"), MapFactor(0, 0, "poly", (0.1, 1.0, 0.3))))],
        degree_cap=3, channels=2).backend

    def refuse(self):
        raise AssertionError("the owner check ran on a trusted build")

    monkeypatch.setattr(ChaosCoefficients, "__post_init__", refuse)
    with pytest.raises(AssertionError, match="owner check ran"):
        ChaosCoefficients(GRID, {(): 1.0})
    built = [
        decompose(table),
        walsh.filtered(lambda ix: len(ix) < 2),
        walsh.scaled(2.0),
        add_coefficients(walsh, walsh),
        shift(NoiseFunctional.from_chaos(walsh), 1).backend,
        shift(NoiseFunctional.from_chaos(hermite), -1, "truncate").backend,
        conditional_expectation(NoiseFunctional.from_chaos(walsh), left_of(GRID, 2)).backend,
        level_projection(NoiseFunctional.from_chaos(hermite), 1).backend,
        additive_integral_of(table).member(0, 0.5).backend,
        hermite_decompose(GRID, p),
    ]
    assert all(isinstance(c, ChaosCoefficients) and c.entries for c in built)


def test_hermite_decompose_keys_are_canonical_in_the_former_order():
    # the keys are built as plain tuples; hermite_index leaves each one as it is, so
    # canonicalizing every key would give the same keys in the same order
    grid = TimeGrid(0, 1, 3)
    p = NoiseFunctional.from_program(grid, [
        ItoTerm(0.5, SimplexKernel(2, 8, dense=np.random.default_rng(3).standard_normal((8, 8)),
                                   channels=(1, 0))),
        ItoTerm(1.0, SimplexKernel.constant(1, 8, channels=(1,))),
        MapTerm(1.0, (MapFactor(6, 0, "sin", (0.7,)), MapFactor(2, 1, "poly", (0.2, 1.0, 0.5)),
                      MapFactor(2, 0, "cos"))),
    ], degree_cap=3, channels=2).backend
    c = hermite_decompose(grid, p)
    keys = list(c.entries)
    assert len(keys) > 50
    assert keys == [hermite_index(ix) for ix in keys]
    assert all(type(v) is int for ix in keys for site in ix for v in site)
    assert ChaosCoefficients(grid, c.entries, HERMITE, channels=2).entries == c.entries


def test_a_bare_multi_channel_kernel_runs_its_moment_checks():
    grid = TimeGrid(0, 1, 3)
    k2 = SimplexKernel(2, 8, dense=np.random.default_rng(1).standard_normal((8, 8)),
                       channels=(0, 1))
    k1 = SimplexKernel.constant(1, 8, channels=(1,))
    iso = isometry_check(grid, k2, 20000, seed=1)
    assert iso.target > 0 and abs(iso.z) <= 5
    assert abs(orthogonality_check(grid, k2, k1, 20000, seed=1).z) <= 5
