"""Every `$ coxlang …` example of README.md runs as shown."""

import re
import shlex
from pathlib import Path

import pytest

from coxlang.cli import main

ROOT = Path(__file__).resolve().parent.parent


def _examples():
    """(argv, shown output or None) for each `$ coxlang` line of a fenced
    block; the output is the lines up to the next `$` line or the fence."""
    examples = []
    for block in re.findall(r"^```\n(.*?)^```$", (ROOT / "README.md").read_text(),
                            re.M | re.S):
        for example in re.split(r"^(?=\$ )", block, flags=re.M):
            command, _, shown = example.partition("\n")
            if command.startswith("$ coxlang "):
                examples.append((shlex.split(command)[2:], shown or None))
    return examples


EXAMPLES = _examples()


def test_readme_has_its_examples():
    assert len(EXAMPLES) == 9


@pytest.mark.parametrize("argv,shown", EXAMPLES,
                         ids=[" ".join(argv) for argv, _ in EXAMPLES])
def test_readme_example(capsys, monkeypatch, argv, shown):
    """The example exits 0, and prints what the README shows, if anything."""
    monkeypatch.chdir(ROOT)
    assert main(argv) == 0
    if shown is not None:
        assert capsys.readouterr().out == shown
