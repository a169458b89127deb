"""Property test: no input to a read-only subcommand makes the CLI raise.

Every run must return exit code 0, 1, 2 or 3 from main, whatever code
literals or explicit-map JSON it is given, with no traceback on stderr.
"""

import contextlib
import io
import json

import pytest

from codecat import Code, format_code
from codecat.cli import main

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

ONE_CODE = ["parse", "trunks", "irreducible", "reduce", "minn", "intcomplete",
            "maxint", "images", "local-obs", "ring"]
TWO_CODES = ["iso", "member", "diff-images", "product", "coproduct"]


@st.composite
def codes(draw, max_n=5, max_words=7):
    n = draw(st.integers(0, max_n))
    masks = draw(st.lists(st.integers(0, (1 << n) - 1), max_size=max_words))
    return Code(n, masks)


@st.composite
def literals(draw):
    """A code literal, in compact or JSON spelling, or a mangled one."""
    code = draw(codes())
    text = format_code(code, draw(st.sampled_from(["compact", "json"])))
    mangle = draw(st.sampled_from(["none", "none", "none", "cut", "prefix", "text"]))
    if mangle == "cut":
        text = text[:draw(st.integers(0, len(text)))]
    elif mangle == "prefix":
        text = f"n={draw(st.integers(0, 70))} {text}"
    elif mangle == "text":
        text = draw(st.text("{}[],0123456789n=; ", max_size=12))
    return text


@st.composite
def explicit_maps(draw):
    """Explicit-map JSON: every domain word sent to a codomain word, maybe
    with one pair dropped, or one image outside the codomain."""
    domain, codomain = draw(codes(4, 6)), draw(codes(4, 6))
    targets = [list(w) for w in codomain.words] or [[]]
    pairs = [[sorted(w), draw(st.sampled_from(targets))] for w in domain.words]
    if pairs and draw(st.booleans()):
        pairs.pop(draw(st.integers(0, len(pairs) - 1)))
    if draw(st.integers(0, 4)) == 0:
        pairs.append([[], [codomain.n + 1]])
    return json.dumps({"domain": format_code(domain, "json"),
                       "codomain": format_code(codomain, "json"), "pairs": pairs})


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(ONE_CODE + TWO_CODES + ["is-morphism", "decompose"]))
    if command in ONE_CODE:
        argv = [command, draw(literals())]
    elif command in TWO_CODES:
        argv = [command, draw(literals()), draw(literals())]
    else:
        argv = [command, draw(explicit_maps())]
    if command in ("images", "diff-images"):
        argv.append("--no-cache")
    if command != "minn" and draw(st.booleans()):
        argv.append("--json")
    return argv


@hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)
@hypothesis.given(argvs())
def test_read_only_subcommands_exit_cleanly(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    assert rc in (0, 1, 2, 3), (argv, rc, err.getvalue())
    assert "Traceback" not in err.getvalue()
