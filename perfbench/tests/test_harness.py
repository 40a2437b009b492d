"""Tests of the benchmark harness itself: percentile rule, span arithmetic,
trace installation and removal, repeatability of traced counts."""
import importlib
import json
import sys

import numpy as np
import pytest

import noisespectra as ns
from perfbench import harness, spans, workloads


@pytest.mark.parametrize("n", list(range(1, 60)) + [99, 100, 101, 109, 110, 250, 1000])
def test_tail_percentile_keeps_ten_ops_beyond(n):
    values = list(np.random.default_rng(n).permutation(n) * 1.5)
    tail = harness.tail_percentile(values)
    beyond = sum(1 for v in values if v > tail.value)
    assert tail.beyond == beyond
    if n >= 100:
        assert tail.percentile == 90.0 and beyond >= 10
    elif beyond >= 10:
        assert beyond == 10 and tail.percentile >= 50.0
    else:  # median fallback: even the median has fewer than ten beyond it
        assert n < 20 and tail.percentile == 50.0 and tail.value == np.median(values)


def test_tail_percentile_is_p90_when_possible():
    tail = harness.tail_percentile(range(1, 201))
    assert (tail.value, tail.percentile, tail.beyond) == (180, 90.0, 20)


def test_self_time_subtracts_direct_children_only():
    # A[0,100] holds B[10,40] and D[50,70]; B holds C[15,25]
    starts = [0, 10, 15, 50]
    ends = [100, 40, 25, 70]
    parents = [-1, 0, 1, 0]
    assert spans.self_times_ns(starts, ends, parents) == [50, 20, 10, 20]


def test_layer_metrics_from_synthetic_spans():
    tr = spans.Tracer(
        names=["walsh.fwht", "walsh.fwht", "transform.decompose", "walsh.fwht"],
        starts=[0, 200, 300, 400],
        ends=[100, 250, 900, 500],
        parents=[-1, -1, -1, 2],
        errors=[False, True, False, False],
    )
    tr.count("walsh.fwht.elems", 3072)
    # two traced ops: [0, 260) covers spans 0-1, [260, 1000) covers 2-3
    windows = [(0, 260, 0, 2), (260, 1000, 2, 4)]
    m = spans.layer_metrics(tr, windows, untraced_ns=800)
    assert m["walsh.fwht.calls"] == 3
    assert m["walsh.fwht.self_s"] == pytest.approx(250e-9)
    assert m["transform.decompose.self_s"] == pytest.approx(500e-9)
    assert m["walsh.fwht.elems"] == 3072
    assert m["trace_overhead_frac"] == pytest.approx(1000 / 800 - 1)
    assert m["untraced_frac"] == pytest.approx((1000 - 750) / 1000)
    assert set(m) == {name for name, _ in spans.LAYER_METRICS}


def _package_bindings():
    for mod_name, _, _ in spans.TARGETS:
        importlib.import_module(f"noisespectra.{mod_name}")
    tree_model = sys.modules["noisespectra.families"].TreeModel
    return {
        (key, attr): value
        for key, mod in sys.modules.items()
        if key == "noisespectra" or key.startswith("noisespectra.")
        for attr, value in vars(mod).items()
        if callable(value)
    } | {
        ("TreeModel", meth): tree_model.__dict__[meth]
        for meth in ("subset_mass", "prefix_mass", "sample")
    }


def test_wrappers_are_installed_only_inside_and_removed_after():
    before = _package_bindings()
    plan = workloads.build_dense_small(seed=7, n_rounds=2, scratch="")
    ops = [op for rnd in plan.rounds for op in rnd]
    tracer = spans.Tracer()
    installation = spans.Installation(tracer)
    with installation:
        assert ns.walsh.fwht is not before[("noisespectra.walsh", "fwht")]
        assert ns.spectral_measure_of is not before[("noisespectra", "spectral_measure_of")]
    assert _package_bindings() == before
    windows, failures, untraced_ns, _ = harness._timed_traced(ops, ["op"] * 2, [], tracer)
    assert not failures and len(windows) == 2 and untraced_ns > 0
    assert tracer.names.count("spectral.spectral_measure_of") == 2
    assert _package_bindings() == before


def test_untraced_run_installs_nothing():
    before = _package_bindings()
    record = harness.run_workload("dense-small", seed=5, seconds=0.05, trace=False)
    assert record["result"]["correct"]
    assert _package_bindings() == before


@pytest.mark.parametrize("workload", ["dense-small", "tree-model"])
def test_traced_counts_repeat_exactly_for_a_seed(workload):
    first, second = (
        harness.run_workload(workload, seed=11, seconds=0.05, trace=True)["result"]
        for _ in range(2)
    )
    assert first["correct"] and second["correct"]
    counts = [
        name for name, unit in spans.LAYER_METRICS if unit in ("count", "bytes")
    ]
    assert {k: first["metrics"][k] for k in counts} == {k: second["metrics"][k] for k in counts}
    assert first["metrics"]["walsh.fwht.calls"]["value"] > 0 or workload == "tree-model"


def test_tree_model_probe_reports_known_errors():
    record = harness.run_workload("tree-model", seed=2, seconds=0.05, trace=True)
    m = record["result"]["metrics"]
    assert m["structure.cut_distance.errors"]["value"] >= 1
    assert m["spectral.mass_of_subsets_of.errors"]["value"] >= 1
    assert record["result"]["failed"] == 0


def test_value_domain_oracles_match_the_library():
    grid = ns.TimeGrid(0, 1, 1, base=8)
    values = np.random.default_rng(3).standard_normal(256)
    f = ns.NoiseFunctional.from_table(grid, values)
    mu = ns.spectral_measure_of(f)
    assert np.allclose(workloads.straddle_distances(values, 8), ns.interior_cut_distances(mu),
                       atol=1e-12)
    region = ns.ElementarySet.from_cells(grid, (0, 3, 4, 7))
    assert workloads.region_norm(values, 8, region.cells()) == pytest.approx(
        ns.mass_of_subsets_of(mu, region), abs=1e-12)


def test_benchmark_json_names_match_the_harness():
    spec = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(harness.WORKLOAD_NAMES)
    assert list(harness.WORKLOAD_NAMES) == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(harness.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(spans.LAYER_METRICS)


def test_timed_scales_wall_time_by_the_reference_kernel(monkeypatch):
    monkeypatch.setattr(harness, "reference_ns", lambda: 2 * harness.REFERENCE_NS)
    result, wall, adjusted, ref_after = harness._timed(lambda mark: "done", harness.REFERENCE_NS)
    assert result == "done" and ref_after == 2 * harness.REFERENCE_NS
    # mean of the kernel times around the block is 1.5x nominal
    assert adjusted == pytest.approx(wall / 1.5)


def test_marks_split_a_block_without_losing_time(monkeypatch):
    calls = []

    def kernel():
        calls.append(1)
        return 2 * harness.REFERENCE_NS

    monkeypatch.setattr(harness, "reference_ns", kernel)

    def block(mark):
        sum(range(10_000))
        mark()
        sum(range(10_000))
        mark()

    _, wall, adjusted, _ = harness._timed(block, 2 * harness.REFERENCE_NS)
    assert len(calls) == 3  # one per mark, one after the block
    assert adjusted == pytest.approx(wall / 2)
