import glob
import re
import shlex
from pathlib import Path

import driftband
from driftband import cli

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
