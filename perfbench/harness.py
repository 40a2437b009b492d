"""Run one workload: set-up, timed phase, output checks, metrics, run context.

Untraced runs (``--trace 0``) report the end-to-end metrics.  Traced runs
(``--trace 1``) replay the same ops twice, once with the wrappers of
`perfbench.spans` installed and once without, alternating which goes first,
and report per-layer metrics plus the tracing overhead between the two.

The timed phase runs a fixed number of whole rounds, scaled from --seconds
by each workload's calibrated rate, so the op mix, the percentile ranks and
every computed count repeat exactly for a given (seed, seconds).

End-to-end times are host-speed adjusted.  On a shared host a core's speed
can switch between two levels (1.75x apart for dense-small) for seconds at a
time, which moves wall-clock medians between runs by far more than a code
change would.  The kernel in `perfbench.reference` runs before and after
every timed block and wherever an op calls its `mark` argument between
stages; each segment's wall time is scaled by REFERENCE_NS over the mean of
the kernel times at its two ends.  Raw wall times are printed beside the
adjusted ones and kept in the run record.
"""
from __future__ import annotations

import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

from perfbench import spans
from perfbench.reference import reference_ns

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
WORKLOAD_NAMES = ("dense-small", "dense-large", "tree-model", "white-noise-mc")
SETUP_REPEATS = 3
TAIL_PERCENTILE = 90
TAIL_BEYOND = 10
# usual time of the reference kernel on the calibration host (2-core Sapphire
# Rapids KVM guest), so adjusted times read close to wall times there
REFERENCE_NS = 380_000

# (metric, unit); all but failed_frac are BENCHMARK.json's end-to-end metrics.
# failed_frac is 0 when every check passes, so it travels as the result's
# `attempted` and `failed` counts rather than as a bounded metric.
END_TO_END = (
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

# times the package import, then the reference kernel (numpy is loaded by then)
_IMPORT_TIMER = (
    "import sys, time\n"
    "sys.path[:0] = sys.argv[1:3]\n"
    "t = time.perf_counter_ns()\n"
    "import noisespectra\n"
    "t = time.perf_counter_ns() - t\n"
    "from perfbench.reference import reference_ns\n"
    "print(t, reference_ns(), noisespectra.__file__)\n"
)


@dataclass(frozen=True)
class Tail:
    """A tail latency and the percentile it was taken at."""

    value: float
    percentile: float
    beyond: int
    samples: int

    def describe(self) -> str:
        return f"p{self.percentile:.1f} of {self.samples} ops, {self.beyond} beyond it"


def tail_percentile(values, pct: int = TAIL_PERCENTILE, beyond: int = TAIL_BEYOND) -> Tail:
    """Nearest-rank `pct` percentile, or the highest with `beyond` samples past it.

    When even the median has fewer than `beyond` samples past it, the median
    is reported and `beyond` says how many samples it actually has past it.
    """
    xs = sorted(values)
    n = len(xs)
    rank = (pct * n + 99) // 100  # ceil(pct * n / 100), 1-based
    if n - rank >= beyond:
        return Tail(xs[rank - 1], float(pct), n - rank, n)
    rank = n - beyond
    if rank < (n + 1) // 2:
        median = statistics.median(xs)
        return Tail(median, 50.0, sum(1 for x in xs if x > median), n)
    return Tail(xs[rank - 1], 100.0 * rank / n, beyond, n)


def _no_mark() -> None:
    pass


def _attempt(op, mark=_no_mark) -> str | None:
    """Run one op; None when it passed, else why it failed."""
    # workloads imports numpy and the package, so it loads only after the
    # import time has been measured
    from perfbench.workloads import CheckFailed

    try:
        op(mark)
    except CheckFailed as exc:
        return f"check failed: {exc}"
    except Exception as exc:  # an op that raises counts as failed, the run goes on
        frame = traceback.extract_tb(exc.__traceback__)[-1]
        where = f"{os.path.relpath(frame.filename, ROOT)}:{frame.lineno}"
        return f"{type(exc).__name__} at {where}: {exc}"
    return None


def _adjust(wall_ns: int, ref_ns: float) -> float:
    return wall_ns * REFERENCE_NS / ref_ns


class _Segments:
    """Wall and adjusted time of one block, split wherever `mark` is called."""

    def __init__(self, ref_ns: int):
        self.ref = ref_ns
        self.wall = 0
        self.adjusted = 0.0
        self._t0 = time.perf_counter_ns()

    def mark(self) -> None:
        wall = time.perf_counter_ns() - self._t0
        ref = reference_ns()
        self.wall += wall
        self.adjusted += _adjust(wall, (self.ref + ref) / 2)
        self.ref = ref
        self._t0 = time.perf_counter_ns()


def _timed(fn, ref_before: int):
    """(result, wall ns, adjusted ns, kernel ns after) for one call fn(mark)."""
    seg = _Segments(ref_before)
    result = fn(seg.mark)
    seg.mark()
    return result, seg.wall, seg.adjusted, seg.ref


def _import_ns() -> tuple[int, float]:
    """(wall, adjusted) import time of the package in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, "-c", _IMPORT_TIMER, str(SRC), str(ROOT)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    wall, ref, path = done.stdout.split(maxsplit=2)
    path = path.strip()
    if not Path(path).resolve().is_relative_to(SRC):
        raise RuntimeError(f"noisespectra imported from {path}, not from {SRC}")
    return int(wall), _adjust(int(wall), int(ref))


# ---------------------------------------------------------------------------
# run context


def _git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        return None
    return None


def _cpu_facts() -> dict:
    facts: dict = {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0))}
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                facts["cpu_model"] = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind in ("Unified", "Data") and level in ("2", "3"):
            caches[f"L{level}"] = size
    facts["caches_per_cpu0"] = caches
    return facts


def run_context(workload: str, seed: int, seconds: float, trace: bool, plan, n_rounds: int) -> dict:
    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError, ValueError):
        pass
    thread_env = {
        k: os.environ[k]
        for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                  "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
                  "NOISESPECTRA_THREADS")
        if k in os.environ
    }
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "rounds": n_rounds,
        "op_kinds": plan.kinds,
        "workers": plan.sizes.get("workers", 1),
        "input_sizes": plan.sizes,
        "inputs_sha256": plan.digest,
        "git_commit": _git_commit(),
        "machine": _cpu_facts(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")
                 if k in blas},
        "thread_env": thread_env,
    }


# ---------------------------------------------------------------------------
# one workload


def _timed_untraced(ops, kinds):
    """Per-op wall and adjusted latencies (ns), and the failures."""
    walls, adjusted, failures = [], [], []
    ref = reference_ns()
    for i, op in enumerate(ops):
        why, wall, adj, ref = _timed(lambda mark: _attempt(op, mark), ref)
        walls.append(wall)
        adjusted.append(adj)
        if why:
            failures.append((i, kinds[i], why))
    return walls, adjusted, failures


def _latency_metrics(lat_ns: list[float]) -> tuple[dict, Tail]:
    tail = tail_percentile(lat_ns)
    return {
        "ops_per_s": len(lat_ns) / (sum(lat_ns) / 1e9),
        "op_p50_ms": statistics.median(lat_ns) / 1e6,
        "op_p90_ms": tail.value / 1e6,
    }, tail


def _timed_traced(ops, kinds, probes, tracer):
    """Each op untraced and traced, alternating order; then probes, traced."""
    installation = spans.Installation(tracer)
    windows, failures, untraced_ns = [], [], 0
    for i, op in enumerate(ops):
        whys = []
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            if traced:
                with installation:
                    first = len(tracer.names)
                    t0 = time.perf_counter_ns()
                    whys.append(_attempt(op))
                    t1 = time.perf_counter_ns()
                windows.append((t0, t1, first, len(tracer.names)))
            else:
                t0 = time.perf_counter_ns()
                whys.append(_attempt(op))
                untraced_ns += time.perf_counter_ns() - t0
        why = next((w for w in whys if w), None)
        if why:
            failures.append((i, kinds[i], why))
    with installation:
        outcomes = [_attempt(p.run) for p in probes]
    leaked = [(o, a) for o, a, original in installation.bindings() if getattr(o, a) is not original]
    if leaked:
        raise RuntimeError(f"trace wrappers left installed: {leaked[:3]}")
    return windows, failures, untraced_ns, outcomes


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Set up, run and check one workload; returns the full result record."""
    imports = [_import_ns() for _ in range(SETUP_REPEATS)]
    from perfbench import workloads

    wl = workloads.WORKLOADS[name]
    n_rounds = max(1, round(seconds * wl.rounds_per_second))
    OUT.mkdir(exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"{name}-", dir=OUT)
    try:
        builds, digests, plan = [], [], None
        ref = reference_ns()
        for _ in range(SETUP_REPEATS):
            plan = None  # free the previous build first
            # one round more than timed: round 0 feeds the warm-up op
            plan, wall, adj, ref = _timed(lambda _: wl.build(seed, n_rounds + 1, scratch), ref)
            builds.append((wall, adj))
            digests.append(plan.digest)
        warm_failure, wall, adj, _ = _timed(lambda mark: _attempt(plan.rounds[0][0], mark), ref)
        # (wall, adjusted) seconds of each set-up part
        setup = {
            "import_s": [statistics.median(x[k] for x in imports) / 1e9 for k in (0, 1)],
            "inputs_s": [statistics.median(x[k] for x in builds) / 1e9 for k in (0, 1)],
            "warmup_s": [wall / 1e9, adj / 1e9],
        }

        ops = [op for rnd in plan.rounds[1:] for op in rnd]
        kinds = plan.kinds * n_rounds
        if trace:
            tracer = spans.Tracer()
            windows, failures, untraced_ns, outcomes = _timed_traced(
                ops, kinds, plan.probes, tracer)
            metrics = spans.layer_metrics(tracer, windows, untraced_ns)
            units = dict(spans.LAYER_METRICS)
            spans_path = OUT / f"spans-{name}-seed{seed}.json"
            spans_path.write_text(json.dumps(tracer.spans()))
            extra = {"spans_file": str(spans_path.relative_to(ROOT)), "spans": len(tracer.names)}
        else:
            walls, adjusted, failures = _timed_untraced(ops, kinds)
            outcomes = [_attempt(p.run) for p in plan.probes]
            metrics, tail = _latency_metrics(adjusted)
            metrics["setup_s"] = sum(adj for _, adj in setup.values())
            metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            wall_metrics, _ = _latency_metrics(walls)
            wall_metrics["setup_s"] = sum(wall for wall, _ in setup.values())
            units = dict(END_TO_END)
            extra = {"op_p90_ms_taken_at": tail.describe(),
                     "failed_frac": len(failures) / len(ops),
                     "wall": wall_metrics,
                     "latencies_ms": [x / 1e6 for x in walls],
                     "adjusted_latencies_ms": [x / 1e6 for x in adjusted]}
        context = run_context(name, seed, seconds, trace, plan, n_rounds)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    checks = {
        "inputs_repeat_for_seed": len(set(digests)) == 1,
        "warmup": warm_failure or "ok",
        "ops_failed": [{"op": i, "kind": k, "why": w} for i, k, w in failures],
        "known_defects": [
            {"probe": p.name, "site": p.site,
             "status": "reproduced" if why else "no longer reproduces", "detail": why}
            for p, why in zip(plan.probes, outcomes)
        ],
    }
    correct = checks["inputs_repeat_for_seed"] and warm_failure is None and not failures
    return {
        "context": context,
        "setup": setup,
        "checks": checks,
        "details": extra,
        "result": {
            "correct": bool(correct),
            "attempted": len(ops),
            "failed": len(failures),
            "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()},
        },
    }


def _print_report(record: dict) -> None:
    ctx, res, checks = record["context"], record["result"], record["checks"]
    mode = "traced" if ctx["trace"] else "untraced"
    print(f"perfbench {ctx['workload']} seed={ctx['seed']} {mode}: {res['attempted']} ops "
          f"in {ctx['rounds']} rounds of [{', '.join(ctx['op_kinds'])}]")
    print("context " + json.dumps(ctx, sort_keys=True))
    details = record["details"]
    for name, m in res["metrics"].items():
        note = ""
        if name == "op_p90_ms":
            note = f"  ({details['op_p90_ms_taken_at']})"
        elif name == "setup_s":
            s = record["setup"]
            note = (f"  (median import {s['import_s'][1]:.3f} + median inputs "
                    f"{s['inputs_s'][1]:.3f} + warm-up op {s['warmup_s'][1]:.3f})")
        elif name in spans.COMPUTED:
            note = "  (computed from call inputs)"
        if name in details.get("wall", {}):
            note = f"  [wall {details['wall'][name]:.6g}]" + note
        print(f"  {name:<44} {m['value']:.6g} {m['unit']}{note}")
    if "failed_frac" in details:
        print(f"  {'failed_frac':<44} {details['failed_frac']:.6g} ratio"
              f"  ({res['failed']} of {res['attempted']} ops)")
    print(f"checks: inputs repeat for the seed: {checks['inputs_repeat_for_seed']}; "
          f"warm-up: {checks['warmup']}; ops: {res['attempted'] - res['failed']} passed, "
          f"{res['failed']} failed")
    for f in checks["ops_failed"]:
        print(f"  FAILED op {f['op']} ({f['kind']}): {f['why']}")
    for d in checks["known_defects"]:
        print(f"known defect {d['probe']} [{d['site']}]: {d['status']}"
              + (f" ({d['detail']})" if d["detail"] else ""))


def main_one(name: str, seed: int, seconds: float, trace: bool) -> int:
    record = run_workload(name, seed, seconds, trace)
    OUT.mkdir(exist_ok=True)
    path = OUT / f"result-{name}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    _print_report(record)
    print(json.dumps(record["result"]), flush=True)
    return 0


def main_all(script: str, seed: int, seconds: float, trace: bool) -> int:
    """Every workload, each in its own process so peak RSS stays per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOAD_NAMES:
        done = subprocess.run(
            [sys.executable, script, "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            capture_output=True, text=True, timeout=900,
        )
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            status = done.returncode or 1
            combined["correct"] = False
            continue
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, m in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = m
    print(json.dumps(combined), flush=True)
    return status
