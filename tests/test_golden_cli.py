"""Golden outputs of the command line, compared byte for byte.

The cases are every command of the README's "Command line" block plus
`paper-examples --seed 0`, each run with `--format text` and with
`--format structured`.  `golden_cli.json` holds the stdout, stderr and exit
code of each.  Regenerate it, only when an output is meant to change, with

    PYTHONPATH=src python tests/test_golden_cli.py

ROADMAP item 2 (reducing generators by the dual echelon) changes the
`graded` outcome of the level pair y1^2*y2*y3 + y3^3, y1*y2^2*y3 + y2*y3^3
on purpose; that change regenerates these goldens.
"""

import contextlib
import io
import json
import re
import shlex
from pathlib import Path

import pytest

from apolar.cli import main

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden_cli.json"
README = HERE.parent / "README.md"


def readme_commands() -> list[list[str]]:
    """The argv of each `apolar` line in the README's "Command line" block."""
    section = README.read_text().split("## Command line", 1)[1].split("\n## ", 1)[0]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    return [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("apolar ")]


def cases() -> list[list[str]]:
    commands = readme_commands() + [["paper-examples", "--seed", "0"]]
    return [argv + ["--format", fmt] for argv in commands for fmt in ("text", "structured")]


def run(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return {"argv": argv, "exit_code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


# Missing goldens collect no cases; the coverage test below then fails.
GOLDENS = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else []


def test_goldens_cover_the_readme_commands():
    assert [g["argv"] for g in GOLDENS] == cases()


@pytest.mark.parametrize("golden", GOLDENS, ids=lambda g: " ".join(g["argv"]))
def test_output_is_byte_identical(golden):
    assert run(golden["argv"]) == golden


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps([run(argv) for argv in cases()], indent=1) + "\n")
