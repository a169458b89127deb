"""CLI text of the trunk and reduction commands, pinned byte for byte.

cli_golden.json holds, for `trunks`, `irreducible`, `reduce`, `minn` and
`member`, plain and with --json, on the paper's six codes and the 6-neuron
power set, the exit code and standard output each run must give.  `member`
runs every ordered pair of those codes; with the power set as source it
refuses at the default trunk cap and exits 3.
"""

import json
from pathlib import Path

import pytest

from codecat.cli import main

GOLDEN = json.loads((Path(__file__).with_name("cli_golden.json")).read_text())


def test_golden_covers_every_command_and_code():
    seen = {(e["argv"][0], "--json" in e["argv"]) for e in GOLDEN}
    assert seen == {(c, j) for c in ("trunks", "irreducible", "reduce", "member")
                    for j in (False, True)} | {("minn", False)}
    assert len(GOLDEN) == 7 * 7 + 7 * 7 * 2


@pytest.mark.parametrize("entry", GOLDEN,
                         ids=[f"{i}-{e['argv'][0]}" for i, e in enumerate(GOLDEN)])
def test_cli_output_is_byte_identical(capsys, entry):
    rc = main(list(entry["argv"]))
    assert (rc, capsys.readouterr().out) == (entry["exit"], entry["stdout"])
