"""Tests of the benchmark harness's own pieces."""

import contextlib
import io
import json

import pytest

from driftband import cli, conformal, evaluate
from perfbench import checks, inputs, tracing


def _aci_final_level(alpha, gamma, covered):
    """The working level after a run with these hits, by the ACI update rule."""
    level = alpha
    for c in covered:
        level = level + gamma * (alpha - (0.0 if c else 1.0))
    return level


def test_telescoping_residual_is_tiny_on_a_true_path_and_catches_one_flip():
    covered = [i % 7 != 0 for i in range(5000)]
    final = _aci_final_level(0.1, 0.01, covered)
    assert checks.telescoping_residual(0.1, 0.01, final, covered) < checks.TELESCOPING_TOL
    covered[10] = not covered[10]
    assert checks.telescoping_residual(0.1, 0.01, final, covered) > 0.5


def _run_toy(tmp_path, method="aci", name="cell"):
    tmp_path.mkdir(parents=True, exist_ok=True)
    config = tmp_path / f"{name}.json"
    config.write_text(json.dumps({"dataset": "toy", "forecaster": "ar", "method": method,
                                  "name": name, "seed": 3}))
    out = tmp_path / "out"
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["run", "--config", str(config), "--out", str(out)]) == 0
    return out


def test_check_cell_passes_real_output_and_rejects_a_tampered_bands_file(tmp_path):
    out = _run_toy(tmp_path)
    cell = inputs.Cell("cell", "aci", inputs.TOY_T)
    assert checks.check_cell(out, "cell", "aci", cell.test_steps).problems == []

    bands = out / "cell.bands.csv"
    lines = bands.read_text().splitlines()
    row = lines[5].split(",")
    row[-1] = "0" if row[-1] == "1" else "1"
    lines[5] = ",".join(row)
    bands.write_text("\n".join(lines) + "\n")
    problems = checks.check_cell(out, "cell", "aci", cell.test_steps).problems
    assert any("telescoping" in p for p in problems)


def test_check_cell_rejects_one_changed_middle_alpha_t(tmp_path):
    out = _run_toy(tmp_path)
    bands = out / "cell.bands.csv"
    lines = bands.read_text().splitlines()
    middle = len(lines) // 2
    row = lines[middle].split(",")
    row[-2] = repr(float(row[-2]) + 1e-6)
    lines[middle] = ",".join(row)
    bands.write_text("\n".join(lines) + "\n")
    cell = inputs.Cell("cell", "aci", inputs.TOY_T)
    problems = checks.check_cell(out, "cell", "aci", cell.test_steps).problems
    assert [p for p in problems if "alpha_t update" in p]
    assert not [p for p in problems if "telescoping" in p]


def test_recurrence_residual_names_the_worst_row_and_treats_nan_as_worst():
    covered = [True, False, True]
    levels = [0.1]
    for c in covered:
        levels.append(levels[-1] + 0.01 * (0.1 - (0.0 if c else 1.0)))
    assert checks.recurrence_residual(0.1, 0.01, levels[-1], levels[:-1], covered)[1] == 0.0
    bad = [levels[0], levels[1], float("nan")]
    assert checks.recurrence_residual(0.1, 0.01, levels[-1], bad, covered)[0] == 1


def test_self_times_subtract_direct_children():
    spans = [
        ["root", 0, 100, -1],
        ["a", 10, 40, 0],
        ["b", 15, 25, 1],
        ["c", 50, 60, 0],
    ]
    assert tracing.self_times(spans) == [60, 20, 10, 10]


def test_layer_metrics_split_seeding_from_test_steps():
    spans = [["cli.main", 0, 1000, -1], ["evaluate.run", 10, 900, 0]]

    def add(name, start, end, parent=1):
        spans.append([name, start, end, parent])
        return len(spans) - 1

    for t in (100, 120):  # seeding: predict, append, observe
        add("forecasters.predict", t, t + 2)
        add("conformal.append", t + 3, t + 5)
        add("forecasters.observe", t + 6, t + 8)
    for t in (200, 300, 450):  # test steps, 100 ns then 150 ns apart
        add("forecasters.predict", t, t + 2)
        band = add("conformal.band", t + 3, t + 13)
        add("conformal.quantile", t + 4, t + 10, parent=band)
        add("conformal.append", t + 20, t + 24)
    m = tracing.layer_metrics(spans, bytes_written=0)
    ns = tracing.NS
    assert m["conformal.seed_s"] == pytest.approx(4 * ns)
    assert m["conformal.appends"] == 3
    assert m["conformal.append_s"] == pytest.approx(12 * ns)
    assert m["conformal.band_s"] == pytest.approx(12 * ns)
    assert m["conformal.quantile_calls"] == 3
    assert m["evaluate.step_us_p50"] == pytest.approx(0.125)
    assert m["trace.unattributed_s"] == pytest.approx(110 * ns)


def test_write_spans_keeps_names_parents_and_durations(tmp_path):
    spans = [["cli.main", 500, 900, -1], ["evaluate.run", 510, 880, 0]]
    tracing.write_spans(spans, tmp_path / "spans.jsonl")
    rows = [json.loads(line) for line in (tmp_path / "spans.jsonl").read_text().splitlines()]
    assert rows == [
        {"name": "cli.main", "start_ns": 0, "end_ns": 400, "parent": -1},
        {"name": "evaluate.run", "start_ns": 10, "end_ns": 380, "parent": 0},
    ]


def test_tracing_changes_no_output_byte_and_restores_every_attribute(tmp_path):
    plain = _run_toy(tmp_path / "plain", method="agaci")
    before = (evaluate.run_rolling, conformal.ScoreBuffer.append, cli.ReplayForecaster)
    tracer = tracing.Tracer()
    with tracing.instrumented(tracer):
        traced = _run_toy(tmp_path / "traced", method="agaci")
    assert (evaluate.run_rolling, conformal.ScoreBuffer.append, cli.ReplayForecaster) == before
    for name in ("cell.bands.csv", "cell.metrics.json"):
        assert (plain / name).read_bytes() == (traced / name).read_bytes()
    names = {s[0] for s in tracer.spans}
    assert {"evaluate.run", "conformal.quantile", "forecasters.predict"} <= names


def _tree(path):
    return {p.name: p.read_bytes() for p in sorted(path.iterdir())}


@pytest.mark.parametrize("workload", sorted(inputs.BUILDERS))
def test_inputs_are_a_function_of_the_seed(tmp_path, workload):
    first = inputs.build(workload, 4, tmp_path / "a")
    again = inputs.build(workload, 4, tmp_path / "b")
    other = inputs.build(workload, 5, tmp_path / "c")
    assert _tree(tmp_path / "a") == {
        k: v.replace(str(tmp_path / "b").encode(), str(tmp_path / "a").encode())
        for k, v in _tree(tmp_path / "b").items()
    }
    assert [c.name for c in first.cells] == [c.name for c in again.cells]
    assert _tree(tmp_path / "a") != _tree(tmp_path / "c")
    assert other.forecast_steps == first.forecast_steps
