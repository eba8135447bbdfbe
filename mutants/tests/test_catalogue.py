"""The mutant catalogue still applies: each snippet occurs exactly once in
`src/`, in the file its entry names, and each test it names exists. The
mutants themselves run in `mutants/run.py`, outside the Tier-1 suite."""

import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from catalogue import MUTANTS  # noqa: E402

SOURCES = {p: p.read_text() for p in sorted((ROOT / "src").rglob("*.py"))}


def test_names_are_unique():
    names = [m.name for m in MUTANTS]
    assert len(names) == len(set(names))


@pytest.mark.parametrize("m", MUTANTS, ids=lambda m: m.name)
def test_the_snippet_occurs_once_in_src(m):
    assert m.old and m.new != m.old
    counts = {p.relative_to(ROOT).as_posix(): text.count(m.old)
              for p, text in SOURCES.items() if m.old in text}
    assert counts == {m.file: 1}


@pytest.mark.parametrize("m", MUTANTS, ids=lambda m: m.name)
def test_each_named_test_exists(m):
    assert m.tests
    for test_id in m.tests:
        path, *scopes = test_id.split("::")
        text = (ROOT / path).read_text()
        for scope in scopes[:-1]:
            assert re.search(rf"^class {scope}\b", text, re.M), test_id
        name = scopes[-1].split("[")[0]  # less a parameter id
        assert re.search(rf"^\s*def {name}\(", text, re.M), test_id
