"""The README's worked examples run, its list of reproduce ids is the
fixture table's, and it names every config key."""

import re
import shlex
from pathlib import Path

import pytest

from kipa_lab import cli
from kipa_lab.config import SCHEMA
from kipa_lab.reproduce import FIXTURES

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text()


def _after(marker: str) -> str:
    """The README text after the line that starts with ``marker``."""
    start = README.index("\n" + marker) + 1
    return README[README.index("\n", start) + 1:]


def _worked_examples():
    block = _after("Worked examples against the bundled configs:")
    block = block[block.index("```sh\n") + 6:block.index("```\n", block.index("```sh\n") + 6)]
    return [shlex.split(line, comments=True) for line in block.splitlines() if line.startswith("kipa-lab ")]


EXAMPLES = _worked_examples()


def test_worked_examples_are_found():
    assert len(EXAMPLES) >= 16
    assert ["kipa-lab", "reproduce", "all"] in EXAMPLES


@pytest.mark.parametrize("argv", EXAMPLES, ids=[" ".join(a[1:]) for a in EXAMPLES])
def test_worked_example_exits_0(tmp_path, capsys, argv):
    args = argv[1:]
    for i in range(1, len(args)):  # configs/ lies at the repository root; write --out under tmp_path
        if args[i - 1] == "--config":
            args[i] = str(ROOT / args[i])
        elif args[i - 1] == "--out":
            args[i] = str(tmp_path / args[i])
    assert cli.main(args) == 0, capsys.readouterr().err
    assert capsys.readouterr().out


def test_readme_lists_every_fixture_id_in_order():
    paragraph = _after("The ids, in report order:").strip().split("\n\n")[0]
    assert re.findall(r"`([^`]+)`", paragraph) == list(FIXTURES)


def test_readme_names_every_config_key():
    missing = [f"{block}: {key}" for block, keys in SCHEMA.items() for key in keys
               if not re.search(rf"\b{re.escape(key)}\b", README)]
    assert not missing, f"the README never names {len(missing)} SCHEMA keys: {', '.join(missing)}"
