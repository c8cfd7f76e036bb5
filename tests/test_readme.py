"""README's examples run as shown.

Every `$ blochframes ...` line of an ```sh block runs through cli.main, and its
stdout must match the lines shown under it.  A `...` line skips the rest of the
object it stands in (every line indented at least as far).  Numbers agree
within 1e-15 absolute or 1e-12 relative, since deviations reduced by BLAS may
move in their last bits from one CPU to another; all other text agrees exactly.
An example shown without output must exit 0.  The Library block runs too.
"""

import re
import shlex
from pathlib import Path

import pytest

from blochframes.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()
_BLOCKS = re.findall(r"^```(\w+)\n(.*?)^```$", README, flags=re.M | re.S)
_NUMBER = re.compile(r"-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?")


def _examples() -> list[tuple[str, list[str]]]:
    """(command, shown output lines) for each `$ blochframes` line of the sh blocks."""
    examples = []
    for lang, body in _BLOCKS:
        current = None
        for line in body.replace("\\\n", " ").splitlines() if lang == "sh" else ():
            if line.startswith("$ blochframes "):
                current = (line[len("$ blochframes "):], [])
                examples.append(current)
            elif line.startswith("$ "):
                current = None
            elif current and line:
                current[1].append(line)
    return examples


def _indent(line: str) -> int:
    return len(line) - len(line.lstrip())


def _same_line(shown: str, got: str) -> bool:
    if _NUMBER.split(shown) != _NUMBER.split(got):
        return False
    for a, b in zip(map(float, _NUMBER.findall(shown)), map(float, _NUMBER.findall(got))):
        if not abs(a - b) <= max(1e-15, 1e-12 * abs(a)):
            return False
    return True


def _matches(shown: list[str], got: list[str]) -> bool:
    i = 0
    for line in shown:
        if line.strip() == "...":
            while i < len(got) and _indent(got[i]) >= _indent(line):
                i += 1
        elif i < len(got) and _same_line(line, got[i]):
            i += 1
        else:
            return False
    return i == len(got)


_EXAMPLES = _examples()


def test_readme_shows_every_subcommand():
    assert {command.split()[0] for command, _ in _EXAMPLES} == {
        "bounds", "coeffs", "verify-ensemble", "min-wcan", "witness", "ppt"}


@pytest.mark.parametrize("command, shown", _EXAMPLES, ids=[c.split()[0] for c, _ in _EXAMPLES])
def test_readme_example_prints_what_it_shows(capsys, command, shown):
    code = main(shlex.split(command))
    got = capsys.readouterr().out.splitlines()
    assert code == 0
    if shown:
        assert _matches(shown, got), "\n".join(got)


def test_readme_library_block_runs(capsys):
    (code,) = [body for lang, body in _BLOCKS if lang == "python"]
    exec(compile(code, "README.md", "exec"), {})
    # the block prints the table's least entry, which it calls negative
    assert float(capsys.readouterr().out) < 0
