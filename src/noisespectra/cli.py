"""Command-line surface: file-based, reproducible pipelines over the library.

Exit codes: 0 success, 2 validation or usage error, 3 ran-but-failed a
numerical tolerance.  `main()` runs every command the same way: a command
given `--out` that does not exit 2 also writes `<out>.manifest.json`,
recording the argv `main()` parsed, the seed, versions, input digests and
wall time.  `selftest` writes no file and no manifest.  Outputs are atomic.
"""
from __future__ import annotations

import argparse
import functools
import math
import sys
import time
from dataclasses import asdict, astuple, fields
from fractions import Fraction

import numpy as np

from . import families
from ._rng import default_workers, worker_count
from .chaos import add_coefficients
from .dimension import ScalePoint, estimate_dimension
from .functionals import (
    BackendError,
    NoiseFunctional,
    evaluate_table,
    random_functional,
    tensor_product,
)
from .grid import ElementarySet, GridMismatchError, TimeGrid
from .serialize import (
    SCHEMA_VERSION,
    FormatError,
    functional_from_data,
    functional_to_data,
    grid_to_data,
    kernel_from_data,
    measure_to_data,
    read_json,
    write_csv,
    write_json,
    write_manifest,
)
from .spectral import (
    _plain_by_mask,
    cardinality_profile,
    mass_of_subsets_of,
    product,
    restrict,
    sample_sets,
    singleton_mass,
    spectral_measure_of,
    straddle_mass,
)
from .structure import additive_integral_of, classify, interior_cut_distances
from .transform import conditional_expectation, decompose
from .whitenoise import isometry_check, npoint_density_estimate

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_TOLERANCE = 3

USAGE_ERRORS = (FormatError, GridMismatchError, BackendError, ValueError, OSError)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="noisespectra",
        description="spectral measures of noise functionals on finite grids",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, run, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(run=run)
        return p

    def add_threads(p):
        p.add_argument("--threads", type=_positive_int, default=None,
                       help="worker count (default: NOISESPECTRA_THREADS or 1)")

    p = add("decompose", cmd_decompose, "chaos coefficients of a functional")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--tol", type=float, default=None)

    p = add("project", cmd_project, "conditional expectation onto an elementary set")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--set", dest="region", required=True,
                   help='cell ranges like "0:2,5:6"; "" is the empty set')
    p.add_argument("--out", required=True)

    p = add("spectrum", cmd_spectrum, "spectral measure of a functional")
    _add_source(p)
    p.add_argument("--out", required=True)

    p = add("sample", cmd_sample, "draw spectral sets")
    _add_source(p)
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)

    p = add("factor-check", cmd_factor_check, "is a functional an exact product across a cut")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--cut", required=True, help="grid point, e.g. 0.5 or 1/2")
    p.add_argument("--tol", type=float, default=1e-12)
    p.add_argument("--out", default=None)

    p = add("cuts", cmd_cuts, "per-boundary cut distances")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)

    p = add("classify", cmd_classify, "cross-resolution spectral summaries of a family")
    p.add_argument("--family", required=True)
    p.add_argument("--levels", required=True, help='range "1..6" or list "1,2,3"')
    p.add_argument("--out", required=True)

    p = add("ito", cmd_ito, "Monte Carlo isometry check of an iterated integral")
    p.add_argument("--kernel", required=True, help="kernel JSON file")
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--paths", type=int, default=100000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--gate", type=float, default=5.0,
                   help="max |z| between MC moment and exact target")
    p.add_argument("--out", default=None)
    add_threads(p)

    p = add("npoint", cmd_npoint, "n-point spectral density table by MC Hermite projection")
    _add_source(p)
    p.add_argument("--order", type=int, required=True, choices=(1, 2))
    p.add_argument("--paths", type=int, default=100000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    add_threads(p)

    p = add("dim", cmd_dim, "box-counting dimension of sampled spectral sets")
    p.add_argument("--family", required=True)
    p.add_argument("--levels", required=True)
    p.add_argument("--samples", type=int, default=20000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)

    p = add("calibrate", cmd_calibrate, "gate the dimension estimator on deterministic sets")
    p.add_argument("--depth", type=int, default=8)
    p.add_argument("--samples", type=int, default=64)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)

    p = add("selftest", cmd_selftest, "exact-identity suite end to end")
    p.add_argument("--level", type=int, default=10,
                   help="cell count for the dense corpus, 4..20")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--tol", type=float, default=1e-10)

    return parser


def _add_source(p: argparse.ArgumentParser) -> None:
    p.add_argument("--in", dest="infile", default=None)
    p.add_argument("--family", default=None)
    p.add_argument("--level", type=int, default=None)


def _load_source(args) -> NoiseFunctional:
    if args.infile and args.family:
        raise FormatError("give either --in or --family, not both")
    if args.infile:
        return functional_from_data(read_json(args.infile))
    if args.family:
        if args.level is None:
            raise FormatError("--family needs --level")
        return NoiseFunctional.from_family(args.family, args.level)
    raise FormatError("a source is required: --in FILE or --family NAME --level K")


def _workers(args) -> int:
    return args.threads if args.threads is not None else default_workers()


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else EXIT_OK
    started = time.monotonic()
    try:
        code = args.run(args)
    except USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    out = getattr(args, "out", None)
    if out:
        inputs = [getattr(args, "infile", None), getattr(args, "kernel", None)]
        write_manifest(out, args.command, argv, getattr(args, "seed", None), started, inputs)
    return code


# ---------------------------------------------------------------------------
# commands


def cmd_decompose(args) -> int:
    f = functional_from_data(read_json(args.infile))
    coeffs = decompose(f, args.tol)
    out = functional_to_data(NoiseFunctional.from_chaos(coeffs))
    write_json(args.out, out)
    print(f"{len(coeffs.coeffs)} entries, residual {coeffs.residual!r}")
    return EXIT_OK


def cmd_project(args) -> int:
    f = functional_from_data(read_json(args.infile))
    region = ElementarySet.parse(f.grid, args.region)
    g = conditional_expectation(f, region)
    write_json(args.out, functional_to_data(g))
    print(f"projected onto {region.cell_count} cells")
    return EXIT_OK


def cmd_spectrum(args) -> int:
    f = _load_source(args)
    mu = spectral_measure_of(f)
    if mu.is_dense:
        data = measure_to_data(mu)
    else:
        profile = cardinality_profile(mu)
        data = {
            "schema_version": SCHEMA_VERSION,
            "grid": grid_to_data(mu.grid),
            "kind": "profile",
            "total_mass": mu.total_mass,
            "empty_mass": mu.empty_atom,
            "singleton_mass": singleton_mass(mu),
            "cardinality_profile": {str(k): v for k, v in profile.items()},
        }
    write_json(args.out, data)
    print(f"total mass {mu.total_mass!r}")
    return EXIT_OK


def cmd_sample(args) -> int:
    f = _load_source(args)
    sets = sample_sets(f, args.samples, args.seed)
    rows = [
        (i, s.cardinality, " ".join(str(c) for c in s.cells))
        for i, s in enumerate(sets)
    ]
    write_csv(args.out, ["index", "cardinality", "cells"], rows)
    print(f"wrote {len(sets)} sets")
    return EXIT_OK


def cmd_factor_check(args) -> int:
    f = functional_from_data(read_json(args.infile))
    cut = f.grid.boundary_index(Fraction(args.cut))
    n = f.grid.n_cells
    values = evaluate_table(f)
    verdict: dict = {"cut": args.cut, "cut_index": cut}
    if 0 < cut < n:  # the table is a matrix of at least 2 x 2
        s = np.linalg.svd(values.reshape(1 << (n - cut), 1 << cut), compute_uv=False)
        verdict["second_singular_value"] = float(s[1])
        verdict["exact_product"] = float(s[1]) <= args.tol * max(float(s[0]), 1.0)
        # for an exact product the straddling mass is the product of the
        # factor variances, so it vanishes only when a factor is constant
        verdict["straddling_mass"] = straddle_mass(spectral_measure_of(f), cut)
    else:
        verdict["exact_product"] = True
        verdict["second_singular_value"] = 0.0
    print(f"exact-product: {'true' if verdict['exact_product'] else 'false'}")
    if args.out:
        write_json(args.out, {"schema_version": SCHEMA_VERSION, **verdict})
    return EXIT_OK


def cmd_cuts(args) -> int:
    f = functional_from_data(read_json(args.infile))
    distances = interior_cut_distances(f)
    # boundary b is (a + b * h) / den in exact ints; int / int rounds
    # correctly, as float(Fraction) does
    a, h, den = f.grid.ticks
    rows = []
    for b, d in enumerate(distances.tolist(), start=1):
        num = a + b * h
        g = math.gcd(num, den)
        exact = str(num // g) if g == den else f"{num // g}/{den // g}"
        rows.append((b, exact, num / den, d))
    write_csv(args.out, ["boundary_index", "time_exact", "time", "distance"], rows)
    print(f"max cut distance {float(distances.max()) if len(distances) else 0.0!r}")
    return EXIT_OK


def cmd_classify(args) -> int:
    levels = _parse_levels(args.levels)
    report = classify(args.family, levels)
    write_json(args.out, {"schema_version": SCHEMA_VERSION, **asdict(report)})
    for v in report.verdicts:
        print(v)
    return EXIT_OK


def cmd_ito(args) -> int:
    grid = TimeGrid(0, 1, args.level)
    kernel = kernel_from_data(read_json(args.kernel), grid.n_cells)
    check = isometry_check(grid, kernel, args.paths, args.seed, _workers(args))
    data = {
        "schema_version": SCHEMA_VERSION,
        "grid": grid_to_data(grid),
        "order": kernel.order,
        "paths": args.paths,
        "seed": args.seed,
        "exact_second_moment": check.target,
        "mc_second_moment": check.estimate.value,
        "stderr": check.estimate.stderr,
        "z": check.z,
    }
    if args.out:
        write_json(args.out, data)
    print(
        f"exact {check.target!r}  mc {check.estimate.value!r} "
        f"+- {check.estimate.stderr!r}  z {check.z:.3f}"
    )
    return _verdict([] if abs(check.z) <= args.gate else [f"|z| > {args.gate}"])  # a NaN z fails


def cmd_npoint(args) -> int:
    f = _load_source(args)
    est = npoint_density_estimate(f, args.order, args.paths, args.seed, _workers(args))
    n = f.grid.n_cells
    if args.order == 1:
        cells, header = (np.arange(n),), ["cell"]
    else:
        cells, header = np.triu_indices(n, 1), ["cell_i", "cell_j"]
    columns = [*cells, est.coefficients[cells], est.densities[cells]]
    write_csv(args.out, header + ["coeff", "density"], zip(*(c.tolist() for c in columns)))
    print(f"mean density {est.mean_density!r} +- {est.mean_density_stderr!r}")
    return EXIT_OK


def cmd_dim(args) -> int:
    est = estimate_dimension(args.family, _parse_levels(args.levels), args.samples, args.seed)
    header = [field.name for field in fields(ScalePoint)]
    write_csv(args.out, header, map(astuple, est.points))
    print(f"slope {est.slope!r}  r2 {est.r_squared:.6f}  empty_fraction {est.empty_fraction!r}")
    return EXIT_OK


def cmd_calibrate(args) -> int:
    gates = {
        "point": (0.0, 0.02),
        "full-interval": (1.0, 0.02),
        "cantor-thirds": (math.log(2) / math.log(3), 0.05),
    }
    results = {}
    for name, (target, tol) in gates.items():
        fam = functools.partial(families.calibration_measure, name)
        est = estimate_dimension(fam, [args.depth], args.samples, args.seed)
        ok = abs(est.slope - target) <= tol
        results[name] = {"slope": est.slope, "target": target, "tolerance": tol,
                         "r_squared": est.r_squared, "pass": ok}
        print(f"{name}: slope {est.slope!r} target {target!r} {'PASS' if ok else 'FAIL'}")
    if args.out:
        write_json(args.out,
                   {"schema_version": SCHEMA_VERSION, "depth": args.depth, "results": results})
    return _verdict([name for name, result in results.items() if not result["pass"]])


def cmd_selftest(args) -> int:
    # fewer cells would split into a one-cell window; past 20 the dense corpus runs for minutes
    if not 4 <= (n := args.level) <= 20:
        raise ValueError(f"--level must be in 4..20, got {n}")
    grid = TimeGrid(0, 1, 1, base=n)
    rng = np.random.default_rng(args.seed)
    worst: dict[str, float] = {}

    def check(name: str, err: float) -> None:
        worst[name] = max(worst.get(name, 0.0), err)

    def random_region() -> ElementarySet:
        return ElementarySet.from_cells(grid, np.flatnonzero(rng.integers(0, 2, size=n)))

    for _ in range(25):
        f = random_functional(grid, rng)
        mu = spectral_measure_of(f)
        for _ in range(8):
            region = random_region()
            proj = conditional_expectation(f, region)
            check("projection-norm-vs-subset-mass",
                  abs(mass_of_subsets_of(mu, region) - proj.norm_sq))
            lhs = conditional_expectation(proj, other := random_region())
            rhs = conditional_expectation(f, region & other)
            check("projection-composition",
                  float(np.max(np.abs(lhs.backend.values - rhs.backend.values))))
            check("restriction-vs-projected-measure",
                  _max_gap(restrict(mu, region), spectral_measure_of(proj)))

    # adjacent windows of equal cell length covering [0, 1)
    half = n // 2
    wl = TimeGrid(0, Fraction(half, n), 1, base=half)
    wr = TimeGrid(Fraction(half, n), 1, 1, base=n - half)
    for _ in range(20):
        a, b = random_functional(wl, rng), random_functional(wr, rng)
        mu_prod = product(spectral_measure_of(a), spectral_measure_of(b))
        check("window-factorization",
              _max_gap(spectral_measure_of(tensor_product(a, b)), mu_prod))

    for _ in range(20):
        fam = additive_integral_of(random_functional(grid, rng))
        r, s, t = map(grid.boundary, sorted(rng.choice(n + 1, size=3, replace=True).tolist()))
        lhs = add_coefficients(fam.member(r, s).backend, fam.member(s, t).backend)
        rhs = fam.member(r, t).backend
        check("additive-integral-concatenation", _max_gap(lhs, rhs))

    failed = [name for name, err in worst.items() if not err <= args.tol]
    for name, err in worst.items():
        print(f"{name}: max error {err!r} {'FAIL' if name in failed else 'PASS'}")
    return _verdict(failed)


# ---------------------------------------------------------------------------
# helpers


def _verdict(failed: list[str]) -> int:
    """The exit code of a gated command: 3, naming every failed gate on stderr, or 0."""
    if failed:
        print(f"tolerance failure: {', '.join(failed)}", file=sys.stderr)
        return EXIT_TOLERANCE
    return EXIT_OK


def _max_gap(a, b) -> float:
    """max |a - b| over the cell sets of two dense measures, or two Walsh expansions, on one
    grid; a missing set reads 0, so each gap is the subtraction their entry dicts give."""
    return float(np.abs(_plain_by_mask(a) - _plain_by_mask(b)).max())


def _positive_int(text: str) -> int:
    """A worker count as argparse reads it, by the rule of `_rng.worker_count`."""
    if (workers := worker_count(text)) is None:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return workers


def _parse_levels(text: str) -> list[int]:
    text = text.strip()
    try:
        if ".." in text:
            lo, hi = text.split("..")
            lo, hi = int(lo), int(hi)
            if hi < lo:
                raise ValueError
            return list(range(lo, hi + 1))
        levels = [int(p) for p in text.split(",") if p.strip()]
        if not levels:
            raise ValueError
        return levels
    except ValueError:
        raise FormatError(f'bad level spec {text!r}; use "1..6" or "1,2,3"') from None


if __name__ == "__main__":
    sys.exit(main())
