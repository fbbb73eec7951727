"""Benchmark of the driftband CLI on seeded workloads.

Run from the repository root:

    python3 perfbench/run.py --workload toy-grid --seed 1 --seconds 20 --trace 0

Inputs are generated from ``--seed`` (see ``inputs.py``) and every
workload is one invocation of the public entry point
``driftband.cli.main(argv)`` with the default environment. With
``--trace 0`` the run times warm invocations in this process and cold
ones (``python -m driftband``) in fresh child processes, interleaved for
``--seconds``, and reports the end-to-end metrics named in
``BENCHMARK.json``. Times are reported at reference host speed (see
``reference_s``). With ``--trace 1`` it interleaves plain and traced
warm invocations, reports the per-layer metrics (``tracing.py``) and
writes the spans of the last traced invocation to
``.perfbench_spans/<workload>.jsonl``, replacing that of an earlier run.
Every invocation's outputs are checked (``checks.py``) and their SHA-256
digests must match across repeats. The last line of stdout is the JSON
result; the exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"
SPANS_DIR = ROOT / ".perfbench_spans"

MIN_SAMPLES = 3
# A 2-vCPU VM whose host is shared gives a process 20-30 % more or less CPU
# speed from one quarter hour to the next, slowing every part of the program
# alike, so the same code measured twice drifts by more than a bound can
# allow. A fixed pure-Python loop timed before and after each sample gauges
# the speed at that moment; each time is reported as measured * REF_S /
# (loop time around it), i.e. in seconds on a host that runs the loop in
# REF_S. No code under test runs in the loop, so a change to the program
# cannot move it.
REF_S = 0.18
REF_LOOPS = 1_200_000
SETUP_REPEATS = 3
BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_child(argv: list[str], cwd: Path) -> tuple[int, float, float]:
    """Run a fresh process; return (exit code, wall s, its own peak RSS in MiB)."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=cwd, env=child_env(), stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    names = set(BLAS_THREAD_VARS) | {k for k in os.environ if k.endswith("_NUM_THREADS")}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "thread_vars": {k: os.environ.get(k, "unset") for k in sorted(names)},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "loadavg": os.getloadavg(),
    }


class Session:
    """Runs and checks invocations of one workload, counting cells."""

    def __init__(self, workload, work: Path) -> None:
        self.workload = workload
        self.work = work
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.reference: dict[str, str] | None = None
        self.quality: dict[str, float] = {}
        self._runs = 0

    def _next_out(self) -> Path:
        self._runs += 1
        return self.work / f"out-{self._runs}"

    def warm(self, tracer=None) -> float:
        """One in-process invocation; returns its wall time in seconds."""
        from driftband import cli

        out = self._next_out()
        argv = self.workload.argv(out)
        gc.collect()
        with contextlib.ExitStack() as stack:
            stack.enter_context(contextlib.redirect_stdout(io.StringIO()))
            main = cli.main
            if tracer is not None:
                from perfbench import tracing

                tracer.clear()
                stack.enter_context(tracing.instrumented(tracer))
                main = tracer.traced(cli.main, tracing.ROOT)
            start = time.perf_counter()
            try:
                code = main(argv)
            except Exception:  # noqa: BLE001 - a crash is a failed invocation
                code = None
                self.problems.append(traceback.format_exc())
            wall = time.perf_counter() - start
        self._check(code, out)
        return wall

    def cold(self) -> tuple[float, float]:
        """One fresh-process invocation; returns (wall s, peak RSS MiB)."""
        out = self._next_out()
        code, wall, rss = run_child(
            [sys.executable, "-m", "driftband", *self.workload.argv(out)], self.work
        )
        self._check(code, out)
        return wall, rss

    def _check(self, code, out: Path) -> None:
        from perfbench.checks import check_cell
        from perfbench.inputs import ALPHA

        cells = self.workload.cells
        self.attempted += len(cells)
        if code != 0:
            self.failed += len(cells)
            self.problems.append(f"invocation exited with {code}")
            shutil.rmtree(out, ignore_errors=True)
            return
        results = [check_cell(out, c.name, c.method, c.test_steps) for c in cells]
        shutil.rmtree(out)
        digests = {f: d for r in results for f, d in r.digests.items()}
        if self.reference is None:
            self.reference = digests
            target = 1.0 - ALPHA
            gaps = [abs(r.coverage - target) for r in results if r.coverage is not None]
            widths = [r.median_width for r in results if r.median_width is not None]
            if gaps and widths:
                self.quality = {
                    "quality.coverage_gap": max(gaps),
                    "quality.median_width": statistics.median(widths),
                }
        for r in results:
            changed = sorted(f for f, d in r.digests.items() if self.reference.get(f) != d)
            if changed:
                r.problems.append(f"outputs differ from the first repeat: {', '.join(changed)}")
            if r.problems:
                self.failed += 1
                self.problems.extend(f"{r.name}: {p}" for p in r.problems)


def reference_s() -> float:
    """Seconds this host takes for a fixed pure-Python loop right now."""
    start = time.perf_counter()
    acc = 0.0
    table = {}
    for i in range(REF_LOOPS):
        acc += math.sqrt(i) * 0.5
        table[i & 255] = acc
    return time.perf_counter() - start


def interleave(seconds: float, runners: dict) -> dict[str, list[tuple]]:
    """Call the runners in turn until ``seconds`` have passed and each has
    given MIN_SAMPLES results. The reference loop runs between calls; return
    by runner name its results, each paired with the mean reference time
    just before and after it."""
    results: dict[str, list] = {kind: [] for kind in runners}
    deadline = time.perf_counter() + seconds

    def done(kind):
        return time.perf_counter() >= deadline and len(results[kind]) >= MIN_SAMPLES

    ref_before = reference_s()
    while not all(done(kind) for kind in runners):
        for kind, run in runners.items():
            if not done(kind):
                value = run()
                ref_after = reference_s()
                results[kind].append((value, (ref_before + ref_after) / 2))
                ref_before = ref_after
    return results


def at_reference_speed(samples: list[tuple[float, float]]) -> list[float]:
    """Measured times scaled to a host that runs the reference loop in REF_S."""
    return [value * REF_S / ref for value, ref in samples]


def _print_samples(samples: dict[str, list[tuple[float, float]]]) -> None:
    for kind, pairs in samples.items():
        print(f"samples {kind} (n={len(pairs)}), measured s: "
              + " ".join(f"{v:.4f}" for v, _ in pairs))
        print(f"samples {kind}, reference loop s: " + " ".join(f"{r:.4f}" for _, r in pairs))


def measure_end_to_end(session: Session, seconds: float) -> dict:
    # No separate warm-up: the first warm sample follows a cold run and a
    # set-up sample, so the file cache is warm; the median absorbs the rest.
    def setup() -> float:
        # An import takes about as long as the reference loop, so one sample
        # is the median of a few, which steadies set-up time at little cost.
        return statistics.median(
            run_child([sys.executable, "-c", "import driftband.cli"], session.work)[1]
            for _ in range(SETUP_REPEATS)
        )

    samples = interleave(seconds, {"cold": session.cold, "setup": setup, "warm": session.warm})
    cold = [(wall, ref) for (wall, _), ref in samples["cold"]]
    rss = [peak for (_, peak), _ in samples["cold"]]
    _print_samples({"warm": samples["warm"], "cold": cold, "setup": samples["setup"]})
    print("samples peak_rss_mb: " + " ".join(f"{v:.3f}" for v in rss))
    times = {"wall_s": samples["warm"], "cold_wall_s": cold, "setup_s": samples["setup"]}
    print("measured medians, s: " + json.dumps(
        {k: statistics.median(v for v, _ in pairs) for k, pairs in times.items()}))
    metrics = {k: statistics.median(at_reference_speed(pairs)) for k, pairs in times.items()}
    attempted = max(session.attempted, 1)
    return {
        **metrics,
        "steps_per_s": session.workload.forecast_steps / metrics["wall_s"],
        "peak_rss_mb": statistics.median(rss),
        "ok_ratio": (attempted - session.failed) / attempted,
    }


def measure_layers(session: Session, seconds: float, spans_path: Path) -> dict:
    from perfbench import tracing

    tracer = tracing.Tracer()
    layers: list[dict] = []
    last_spans: list[tuple] = []

    def traced() -> float:
        wall = session.warm(tracer)
        layers.append(tracing.layer_metrics(tracer.spans, tracer.bytes_written))
        # Tuples of plain values drop out of the collector's tracking, so the
        # kept spans do not slow the plain invocations' garbage collection.
        last_spans[:] = map(tuple, tracer.spans)
        tracer.clear()
        return wall

    samples = interleave(seconds, {"plain": session.warm, "traced": traced})
    _print_samples(samples)
    spans_path.parent.mkdir(exist_ok=True)
    tracing.write_spans(last_spans, spans_path)
    print(f"spans of the last traced invocation: {spans_path.relative_to(ROOT)}")
    metrics = {k: statistics.median(layer[k] for layer in layers) for k in layers[0]}
    metrics["trace.overhead_ratio"] = (
        statistics.median(at_reference_speed(samples["traced"]))
        / statistics.median(at_reference_speed(samples["plain"]))
    )
    metrics.update(session.quality)
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "driftband" / "cli.py").is_file():
        print(f"perfbench: no driftband sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    sys.path[:0] = [str(SRC), str(ROOT)]
    import driftband.cli

    if Path(driftband.__file__).resolve().parent != (SRC / "driftband").resolve():
        print(f"perfbench: imported driftband from {driftband.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    from perfbench import inputs

    if args.workload not in inputs.BUILDERS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(inputs.BUILDERS)}", file=sys.stderr)
        return 2
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    print("environment: " + json.dumps(environment()))
    work = WORK_ROOT / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        workload = inputs.build(args.workload, args.seed, work)
        session = Session(workload, work)
        if args.trace:
            spans_path = SPANS_DIR / f"{args.workload}.jsonl"
            metrics = measure_layers(session, args.seconds, spans_path)
        else:
            metrics = measure_end_to_end(session, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_ROOT.rmdir()

    print("digests: " + json.dumps(session.reference, sort_keys=True))
    for problem in session.problems:
        print(f"check failed: {problem}")
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        print(f"perfbench: no value for {', '.join(missing)}", file=sys.stderr)
        return 2
    result = {}
    for m in wanted:
        value = metrics[m["name"]]
        print(f"{m['name']:28s} {value:.6g} {m['unit']}")
        result[m["name"]] = {"value": value, "unit": m["unit"]}
    correct = session.failed == 0 and not session.problems
    print(json.dumps({
        "correct": correct,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": result,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
