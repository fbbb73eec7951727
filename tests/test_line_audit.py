"""The line audit's allow-list, checked without tracing: every entry names an
executable line of its file, so deleting a line cannot leave its entry behind."""

from line_audit import ALLOWED, PACKAGE, executable_lines


def test_every_allowed_entry_names_an_executable_line_of_its_file():
    for name, text in ALLOWED:
        path = PACKAGE / name
        source = path.read_text(encoding="utf-8").splitlines()
        assert text in {source[line - 1].strip() for line in executable_lines(path)}, (name, text)
