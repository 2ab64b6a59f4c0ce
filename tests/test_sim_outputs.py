"""Pin the stdout and exit code of `saska sim` byte for byte.

tests/data/sim_outputs.txt holds one block per command: the command after
"$ ", its stdout, and its exit code.  A refactor must keep the file as it
is.  If a change is meant to alter simulator output, regenerate the file
and say why in the change:

    PYTHONPATH=src python tests/test_sim_outputs.py > tests/data/sim_outputs.txt
"""

import contextlib
import io
import shlex
from pathlib import Path

import pytest

from saska import cli

DATA = Path(__file__).parent / "data" / "sim_outputs.txt"
PROMPT = "$ saska sim --strategy "

COMMANDS = [
    "impersonate-responder --k 3 --exhaustive --params test --seed 1",
    "honest --k 3 --exhaustive --params test --seed 1",
    "honest --trials 100 --params test --seed 2",
    "full-mitm --k 8 --trials 2000 --params test --seed 42",
    "impersonate-initiator --k 2 --exhaustive --trials 1000 --params test --seed 5 --guess adaptive",
    "full-mitm --k 1 --trials 1000 --params test --seed 9",
    "impersonate-responder --k 4 --exhaustive --params p40 --seed 3 --guess uniform",
    "full-mitm --k 3 --exhaustive --trials 1000 --params test --seed 1",
    "impersonate-initiator --k 5 --exhaustive --params test --seed 11 --guess uniform",
    "full-mitm --k 6 --exhaustive --params p40 --seed 8 --guess uniform",
]


def render(command: str) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["sim", "--strategy", *shlex.split(command)])
    return f"{PROMPT}{command}\n{out.getvalue()}exit {code}\n"


def expected_blocks() -> dict[str, str]:
    blocks = DATA.read_text().split(PROMPT)[1:]
    return {block.split("\n", 1)[0]: PROMPT + block for block in blocks}


def test_data_holds_every_command_once():
    assert list(expected_blocks()) == COMMANDS


@pytest.mark.parametrize("command", COMMANDS)
def test_sim_output_unchanged(command):
    assert render(command) == expected_blocks()[command]


if __name__ == "__main__":
    print("".join(render(command) for command in COMMANDS), end="")
