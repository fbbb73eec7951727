"""Spans around the calls into each driftband module, recorded from outside.

``instrumented(tracer)`` swaps module attributes (and a few class
attributes) for wrappers that record a span per call, and hands the run
loop a proxy ``Forecaster`` from wrapped factories. Nothing under
``src/`` changes; everything is restored on exit. Spans live in memory
as ``[name, start_ns, end_ns, parent_index]``; ``layer_metrics`` folds
one invocation's spans into per-layer self times and counts, and
``write_spans`` saves them as JSON lines.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import statistics
import time

from driftband import cli, conformal, datagen, evaluate, fileio, forecasters

ROOT = "cli.main"
NS = 1e-9


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.bytes_written = 0
        self._stack: list[int] = []

    def clear(self) -> None:
        """Start a new invocation; wrappers made earlier keep the old lists."""
        self.spans = []
        self._stack = []
        self.bytes_written = 0

    def traced(self, fn, name: str):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()

        return wrapper


class TracedForecaster(forecasters.Forecaster):
    """Proxy that records a span around each contract call of a forecaster."""

    def __init__(self, inner: forecasters.Forecaster, tracer: Tracer) -> None:
        self._fit = tracer.traced(inner.fit, "forecasters.fit")
        self._predict = tracer.traced(inner.predict_one, "forecasters.predict")
        self._observe = tracer.traced(inner.observe, "forecasters.observe")

    def fit(self, window) -> None:
        self._fit(window)

    def predict_one(self, history) -> float:
        return self._predict(history)

    def observe(self, y: float) -> None:
        self._observe(y)


def _proxy_factory(factory, tracer: Tracer):
    def build(*args, **kwargs):
        return TracedForecaster(factory(*args, **kwargs), tracer)

    return build


# (owner, attribute, span name): every place a layer's public function is
# looked up at call time by the CLI or the run loop.
_SPANNED = (
    (evaluate, "run_rolling", "evaluate.run"),
    (evaluate, "compute_metrics", "evaluate.metrics"),
    (evaluate, "write_bands_csv", "evaluate.bands_csv"),
    (evaluate, "write_metrics_json", "evaluate.metrics_json"),
    (datagen, "generate_toy", "datagen.generate"),
    (datagen, "generate_lorenz", "datagen.generate"),
    (evaluate, "fit_scaler", "series.fit_scaler"),
    (evaluate, "load_series_csv", "series.load_csv"),
    (cli, "load_series_csv", "series.load_csv"),
    (forecasters, "ar_fit", "forecasters.ar_fit"),
    (forecasters.ExternalForecastTrace, "from_csv", "forecasters.trace_load"),
    (forecasters.ExternalForecastTrace, "validate_against", "forecasters.trace_load"),
    (conformal, "aci_step", "conformal.band"),
    (conformal, "agaci_step", "conformal.band"),
    (conformal, "empirical_quantile", "conformal.quantile"),
    (conformal, "aci_update", "conformal.update"),
    (conformal, "agaci_update", "conformal.update"),
    (conformal.ScoreBuffer, "append", "conformal.append"),
)


@contextlib.contextmanager
def instrumented(tracer: Tracer):
    """Install the span wrappers for the duration of the block."""
    saved = []

    def patch(owner, attr, value):
        saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    try:
        for owner, attr, name in _SPANNED:
            wrapped = tracer.traced(getattr(owner, attr), name)
            if isinstance(vars(owner)[attr], classmethod):
                wrapped = staticmethod(wrapped)  # wraps the already-bound method
            patch(owner, attr, wrapped)
        write = tracer.traced(fileio.atomic_write_text, "fileio.write")

        def atomic_write_text(path, text):
            write(path, text)
            tracer.bytes_written += os.path.getsize(path)

        # The workloads write only through evaluate (metrics JSON, bands CSV).
        patch(evaluate, "atomic_write_text", atomic_write_text)
        patch(evaluate, "make_forecaster", _proxy_factory(evaluate.make_forecaster, tracer))
        patch(cli, "ReplayForecaster", _proxy_factory(cli.ReplayForecaster, tracer))
        yield
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)


def self_times(spans) -> list[int]:
    """Each span's duration minus the durations of its direct children.

    Spans come from synchronous calls, so children nest inside their
    parent without overlapping and their durations simply add up.
    """
    out = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def _percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def layer_metrics(spans, bytes_written: int) -> dict[str, float]:
    """Per-layer times (s), counts and step latencies of one invocation.

    ``spans`` must hold exactly one root span, the CLI call itself. Within
    each run, the buffer appends made before its first band are the
    calibration seeding; a test step spans from one test-time
    ``predict_one`` entry to the next.
    """
    own = self_times(spans)
    children: dict[int, list[int]] = {}
    for i, span in enumerate(spans):
        children.setdefault(span[3], []).append(i)
    total: dict[str, float] = {}
    selft: dict[str, float] = {}
    count: dict[str, int] = {}

    def add(name, idx):
        _, start, end, _ = spans[idx]
        total[name] = total.get(name, 0.0) + (end - start) * NS
        selft[name] = selft.get(name, 0.0) + own[idx] * NS
        count[name] = count.get(name, 0) + 1

    steps_us: list[float] = []
    seeding: set[int] = set()
    for run in (i for i, span in enumerate(spans) if span[0] == "evaluate.run"):
        kids = children.get(run, [])
        first_band = next((j for j in kids if spans[j][0] == "conformal.band"), len(spans))
        seed = [j for j in kids if spans[j][0] == "conformal.append" and j < first_band]
        seeding.update(seed)
        starts = [spans[j][1] for j in kids if spans[j][0] == "forecasters.predict"]
        test = starts[len(seed):]
        steps_us.extend((b - a) * NS * 1e6 for a, b in zip(test, test[1:]))
    for i, (name, _, _, parent) in enumerate(spans):
        parent_name = spans[parent][0] if parent >= 0 else None
        if i in seeding:
            name = "conformal.seed"
        elif name == "forecasters.ar_fit" and parent_name == "forecasters.observe":
            add("forecasters.refit", i)
        elif name == "conformal.update" and parent_name == "conformal.update":
            continue  # an aggregated bank's per-expert updates nest inside it
        add(name, i)

    def t(name):
        return total.get(name, 0.0)

    (root,) = children[-1]
    steps_us = steps_us or [0.0]
    return {
        "datagen.generate_s": t("datagen.generate"),
        "datagen.calls": count.get("datagen.generate", 0),
        "series.load_csv_s": t("series.load_csv"),
        "series.fit_scaler_s": t("series.fit_scaler"),
        "forecasters.fit_s": t("forecasters.fit"),
        "forecasters.predict_s": t("forecasters.predict"),
        "forecasters.observe_s": selft.get("forecasters.observe", 0.0),
        "forecasters.refit_s": t("forecasters.refit"),
        "forecasters.refits": count.get("forecasters.refit", 0),
        "forecasters.trace_load_s": t("forecasters.trace_load"),
        "conformal.seed_s": t("conformal.seed"),
        "conformal.band_s": selft.get("conformal.band", 0.0),
        "conformal.update_s": t("conformal.update"),
        "conformal.quantile_s": t("conformal.quantile"),
        "conformal.quantile_calls": count.get("conformal.quantile", 0),
        "conformal.append_s": t("conformal.append"),
        "conformal.appends": count.get("conformal.append", 0),
        "evaluate.run_s": t("evaluate.run"),
        "evaluate.loop_self_s": selft.get("evaluate.run", 0.0),
        "evaluate.metrics_s": t("evaluate.metrics"),
        "evaluate.bands_csv_s": selft.get("evaluate.bands_csv", 0.0),
        "evaluate.step_us_p50": statistics.median(steps_us),
        "evaluate.step_us_p99": _percentile(steps_us, 0.99),
        "fileio.write_s": t("fileio.write"),
        "fileio.files": count.get("fileio.write", 0),
        "fileio.bytes": bytes_written,
        "trace.unattributed_s": own[root] * NS,
    }


def write_spans(spans, path) -> None:
    """Write spans as JSON lines of name, start and end (ns from the first
    span's start) and the index of the parent span (-1 for the root)."""
    origin = spans[0][1] if spans else 0
    with open(path, "w", encoding="utf-8") as handle:
        for name, start, end, parent in spans:
            row = {"name": name, "start_ns": start - origin, "end_ns": end - origin,
                   "parent": parent}
            handle.write(json.dumps(row, separators=(",", ":")) + "\n")
