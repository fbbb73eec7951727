import re
from pathlib import Path

import driftband

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_lists_exactly_the_exported_names():
    text = README.read_text(encoding="utf-8")
    _, after = text.split("`driftband` exports exactly these names (`__all__`)", 1)
    # the bullet list that follows the sentence, up to the next blank line
    bullets = after[after.index("\n- "):].strip().split("\n\n")[0]
    names = re.findall(r"`(\w+)`", bullets)
    assert len(names) == len(set(names))
    assert sorted(names) == sorted(driftband.__all__)
