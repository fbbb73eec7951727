import dataclasses
import glob
import json
import re
import shlex
from pathlib import Path

import driftband
from driftband import cli, datagen, evaluate
from driftband.errors import AlignmentError, ConfigError, NumericError

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_lists_exactly_the_exported_names():
    text = README.read_text(encoding="utf-8")
    _, after = text.split("`driftband` exports exactly these names (`__all__`)", 1)
    # the bullet list that follows the sentence, up to the next blank line
    bullets = after[after.index("\n- "):].strip().split("\n\n")[0]
    names = re.findall(r"`(\w+)`", bullets)
    assert len(names) == len(set(names))
    assert sorted(names) == sorted(driftband.__all__)


def test_the_cli_quickstart_runs_as_written(tmp_path, monkeypatch, capsys):
    """Steps 1-3 of "CLI quickstart" through ``cli.main`` in an empty
    directory, with the README's own config: the run prints the stdout line
    the README shows and every file a ``# ->`` line names exists."""
    text = README.read_text(encoding="utf-8")
    block = text.split("## CLI quickstart", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    config_name, config = re.search(r"cat > (\S+) <<'EOF'\n(.*?\n)EOF\n", block, re.S).groups()
    commands = [shlex.split(line)[1:] for line in block.splitlines()
                if line.startswith("driftband ")]
    (stdout_line,) = re.findall(r"^# stdout: (.*)$", block, re.M)
    promised = [name for line in re.findall(r"^# -> (.*)$", block, re.M)
                for name in re.findall(r"runs/[\w.-]+", line)]
    monkeypatch.chdir(tmp_path)
    Path(config_name).write_text(config, encoding="utf-8")
    printed = []
    for argv in commands:  # the shell's glob expansion, done here
        argv = [a for arg in argv for a in (sorted(glob.glob(arg)) if "*" in arg else [arg])]
        assert cli.main(argv) == 0
        printed.append(capsys.readouterr().out)
    assert [c[0] for c in commands] == ["generate", "run", "report"]
    assert printed[1] == stdout_line + "\n"
    assert len(promised) == 4
    assert all(Path(name).is_file() for name in promised), promised


def test_the_run_config_table_lists_exactly_the_run_config_keys():
    """The keys in the first column of the "Run config reference" table, the
    ``RunConfig`` fields and the keys a JSON run config may hold are one set."""
    text = README.read_text(encoding="utf-8")
    section = text.split("## Run config reference", 1)[1].split("\n## ", 1)[0]
    rows = [line for line in section.splitlines() if line.startswith("| `")]
    keys = [key for row in rows for key in re.findall(r"`(\w+)`", row.split("|")[1])]
    assert len(keys) == len(set(keys))
    fields = {f.name for f in dataclasses.fields(evaluate.RunConfig)}
    assert set(keys) == fields == set(evaluate._RUN_CONFIG_TYPES)


def test_the_python_api_sketch_runs_as_written():
    text = README.read_text(encoding="utf-8")
    sketch = text.split("## Python API sketch", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    namespace = {}
    exec(compile(sketch, "README.md", "exec"), namespace)
    assert isinstance(namespace["report"], driftband.RunReport)
    assert namespace["report"].config.dataset == "walk"


def test_the_generator_spec_blocks_are_the_defaults():
    """README says every field of the two "Generator spec reference" blocks
    defaults to the value shown, so each parses to its family's default spec."""
    text = README.read_text(encoding="utf-8")
    section = text.split("## Generator spec reference", 1)[1].split("\n## ", 1)[0]
    toy, lorenz = re.findall(r"```json\n(.*?)```", section, re.S)
    assert datagen.generator_spec_from_json(json.loads(toy)) == datagen.default_toy_spec()
    assert datagen.generator_spec_from_json(json.loads(lorenz)) == datagen.LorenzSpec()


def test_the_exit_code_table_is_the_cli_table():
    """Codes 2-5 of the "Exit codes" table are the codes ``cli.main`` gives
    the four error classes, and each row names its class's kind of problem."""
    text = README.read_text(encoding="utf-8")
    section = text.split("## Exit codes", 1)[1].split("\n## ", 1)[0]
    rows = dict(re.findall(r"^\| (\d+) \| (.*) \|$", section, re.M))
    kinds = {ConfigError: "config/spec problem", OSError: "I/O problem",
             NumericError: "numeric failure", AlignmentError: "trace/series alignment failure"}
    assert sorted(rows) == ["0", *sorted(map(str, cli._EXIT_CODES.values()))]
    for cls, code in cli._EXIT_CODES.items():
        assert rows[str(code)].startswith(kinds[cls]), (cls, rows[str(code)])
