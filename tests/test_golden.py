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
