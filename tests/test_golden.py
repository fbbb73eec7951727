"""Output bytes pinned across refactors of the calibration loop and the writers.

Persistence forecasts keep BLAS out of the numbers, so these digests
depend only on the generator, the scaler, calibration and formatting.
"""

import hashlib
import json

import pytest

from driftband.cli import main
from driftband.datagen import default_toy_spec, generate_toy
from driftband.series import write_series_csv

# SHA-256 of (bands CSV, metrics JSON) of toy seed 3 with persistence
# forecasts, through `run` and through `wrap` of a persistence trace. The
# two commands write the same bands; their metrics differ in name and
# forecaster.
PINNED_SHA256 = {
    ("run", "split"): ("f12e98b6631ed4b317c7c69ed900240bacdcc84fef98b70338552a15453a14ba",
                       "a1192dbfabbbdfe6898d5aef042d2a6da18b07cce4e213bd817b535194de4105"),
    ("run", "aci"): ("8d60280b97036c8410dbfde3fa0d4571a302296ef69cac6e118b1734c6c2f8cb",
                     "0394ae1089feb266c19903d68b35a9decc3a361a6ab7eb83b3dc31b48ea65b6c"),
    ("run", "agaci"): ("fa680b986cd885823361c058efccf6ecbf58c598074e41795d19cd2ce583adf5",
                       "e4d22552fc0a6c12ffc62fa566fb965f5c4bbfa610ad86f5f31f3790b82c9d53"),
    ("wrap", "split"): ("f12e98b6631ed4b317c7c69ed900240bacdcc84fef98b70338552a15453a14ba",
                        "0cc1b9e009cd9b0e312d1ceaadbf2ce8797264a2eeaab6c561212ea46344f68d"),
    ("wrap", "aci"): ("8d60280b97036c8410dbfde3fa0d4571a302296ef69cac6e118b1734c6c2f8cb",
                      "cd46a19d3ba927ba6d48018a744f7de0e87b75e1d24039bef1597c77d551c3e5"),
    ("wrap", "agaci"): ("fa680b986cd885823361c058efccf6ecbf58c598074e41795d19cd2ce583adf5",
                        "4dfe40dd5cb466b94542130a9fd5117efb25c297c8113f199800bbb5942b4ac6"),
}


def _digests(directory, name):
    return tuple(
        hashlib.sha256((directory / f"{name}.{suffix}").read_bytes()).hexdigest()
        for suffix in ("bands.csv", "metrics.json")
    )


@pytest.fixture(scope="module")
def toy3(tmp_path_factory):
    """The seed-3 toy series as a CSV and a persistence trace of it."""
    root = tmp_path_factory.mktemp("golden")
    series, _ = generate_toy(default_toy_spec(seed=3))
    write_series_csv(root / "toy3.csv", series)
    values = series.values.tolist()
    lines = ["index,y_true,y_hat"]
    lines.extend(f"{t},{values[t]!r},{values[t - 1]!r}" for t in range(1, len(values)))
    (root / "trace.csv").write_text("\n".join(lines) + "\n")
    return root


@pytest.mark.parametrize("command, method", sorted(PINNED_SHA256))
def test_run_and_wrap_outputs_are_byte_pinned(toy3, tmp_path, capsys, command, method):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(
        {"dataset": "toy", "forecaster": "persistence", "method": method, "seed": 3}
    ))
    out = tmp_path / "out"
    if command == "run":
        argv, name = ["run", "--config", str(config)], f"toy-persistence-{method}"
    else:
        argv = ["wrap", "--config", str(config), "--trace", str(toy3 / "trace.csv"),
                "--series", str(toy3 / "toy3.csv")]
        name = f"toy3-replay-{method}"
    assert main(argv + ["--out", str(out)]) == 0
    assert _digests(out, name) == PINNED_SHA256[command, method]


@pytest.mark.parametrize("jobs", [1, 2])
def test_a_grid_of_the_run_configs_reproduces_their_pinned_outputs(tmp_path, capsys, jobs):
    methods = sorted(method for command, method in PINNED_SHA256 if command == "run")
    configs = []
    for method in methods:
        config = tmp_path / f"{method}.json"
        config.write_text(json.dumps(
            {"dataset": "toy", "forecaster": "persistence", "method": method, "seed": 3}
        ))
        configs.append(str(config))
    out = tmp_path / "out"
    assert main(["run", "--config", *configs, "--jobs", str(jobs), "--out", str(out)]) == 0
    for method in methods:
        assert _digests(out, f"toy-persistence-{method}") == PINNED_SHA256["run", method]



# SHA-256 of (bands CSV, metrics JSON) of more toy seed 3 persistence runs,
# each named after its key. Two are six-expert AgACI banks: the 0.5 step
# drives its expert's level below 0, so a quarter of the steps cap an
# infinite expert band, once with a frozen buffer and fixed weights and once
# with sharp reweighing and no weight floor, where an infinite band's zero
# factor leaves its expert weightless. The unbanded run fills no buffer.
SIX_EXPERT_GRID = [0.0, 1e-4, 1e-3, 1e-2, 0.05, 0.5]
PINNED_CASE_SHA256 = {
    "frozen-fixed": (
        {"method": "agaci", "gamma_grid": SIX_EXPERT_GRID, "buffer_mode": "frozen",
         "aggregation": "fixed"},
        ("8a55e987920d9edaaa5231418c0d5a2bb510a9062eb0bb25974af0c913aa2f75",
         "76c800f85a9087b3081e37fd0f7cf287dc750ca2f430db01fb3f0b8ad8d1348b"),
    ),
    "eta5-floor0": (
        {"method": "agaci", "gamma_grid": SIX_EXPERT_GRID, "eta": 5.0, "weight_floor": 0.0},
        ("c807b5ff24195d7ec0cdd20c85c9105225c40d878a50d18e52ac85846d6e54da",
         "0d58b46e5bfa102ab3d59aa579ff96365f32ed448c1252b3354f98fbd77d2b73"),
    ),
    "none": (
        {"method": "none"},
        ("eb1b2f4dfb162b83b38b9f3389070a3aaf185d4fdb021bc694a57cf2c7faca82",
         "910ed12be52e898c1657f3e7319e7f92b1ad0fa6a0001e5d4a3fa640603a4c90"),
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED_CASE_SHA256))
def test_more_run_options_are_byte_pinned(tmp_path, capsys, name):
    options, digests = PINNED_CASE_SHA256[name]
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(
        {"dataset": "toy", "forecaster": "persistence", "seed": 3, "name": name, **options}
    ))
    out = tmp_path / "out"
    assert main(["run", "--config", str(config), "--out", str(out)]) == 0
    assert _digests(out, name) == digests
