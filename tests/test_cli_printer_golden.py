"""CLI text of the trunk, morphism and ring printers, pinned byte for byte.

cli_printer_golden.json holds, plain and with --json, the exit code,
standard output and standard error of:
- `trunks` (every trunk, and one --sigma), `irreducible` and `ring` (the
  coordinates, one --sigma monomial, one --word indicator) on six codes,
  among them the 12-neuron [[1,2],[10],[1,2,12]], the zero-word code [] and
  the one-word code {0}, with sigmas that overflow some codes and exit 2;
- `decompose` on three morphisms, one with an empty trunk, and on a map
  that is not a morphism;
- `member` with a witness found, with none, and on the 0-neuron codes.
"""

import json
from pathlib import Path

import pytest

from codecat.cli import main

GOLDEN = json.loads((Path(__file__).with_name("cli_printer_golden.json")).read_text())


def test_golden_covers_every_printer_mode():
    seen = {(e["argv"][0], next((a for a in e["argv"] if a in ("--sigma", "--word")), None),
             "--json" in e["argv"]) for e in GOLDEN}
    assert seen == {(c, opt, j) for c, opts in (("trunks", (None, "--sigma")),
                                                ("irreducible", (None,)),
                                                ("ring", (None, "--sigma", "--word")),
                                                ("decompose", (None,)), ("member", (None,)))
                    for opt in opts for j in (False, True)}
    assert {(e["argv"][0], e["exit"]) for e in GOLDEN} >= {
        ("trunks", 2), ("ring", 2), ("decompose", 1), ("member", 0), ("member", 1)}
    assert any(": none" in e["stdout"] for e in GOLDEN if e["argv"][0] == "decompose")
    assert len(GOLDEN) == 230


@pytest.mark.parametrize("entry", GOLDEN,
                         ids=[f"{i}-{e['argv'][0]}" for i, e in enumerate(GOLDEN)])
def test_printer_output_is_byte_identical(capsys, entry):
    rc = main(list(entry["argv"]))
    out = capsys.readouterr()
    assert (rc, out.out, out.err) == (entry["exit"], entry["stdout"], entry["stderr"])
