"""The library keeps trunks as word-index masks and builds Trunk and
Morphism values only where it returns them, with generators read off the
lattice and no is_trunk recheck.  These tests pin every such value against
the checked constructors and the slow references in helpers: same order,
member sets, generators, repr and JSON."""

import json

import pytest

from codecat import (Code, Morphism, Trunk, all_trunks, canonical_form, irreducible_trunks,
                     minimum_neuron_number, parse_code, reduce_code, redundant_neurons,
                     simple_trunks, trivial_neurons, trunk_of, verify_image_membership)
from codecat.reduction import _min_relabeling
from codecat.trunks import trunk_to_obj

from helpers import (all_trunks_checked, cycle_code, edge_codes, hollow_triangles,
                     irreducible_trunks_by_lattice, membership_by_full_walk, random_codes,
                     reduce_code_checked, redundant_neurons_by_trunk_of)

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

PAPER = {"CF": "{2345,123,134,145,13,14,23,34,45,3,4,0}",
         "DF": "{2345,234,345,123,134,145,13,14,23,34,45,3,4,0}",
         "EF": "{2345,123,134,145,13,14,23,34,45,3,4,1,0}",
         "C0": "{3456,123,145,256,45,56,1,2,3,0}",
         "C1": "{1236,3456,145,256,26,36,45,56,1,6,0}",
         "C2": "{124,135,145,234,14,15,24,3,4,0}"}


def corpus() -> list[Code]:
    """Power sets n <= 9, hollow triangles k <= 4 with and without vertex
    words, cycles, the paper's codes, edge codes, unreduced codes with
    copied and trivial neurons, and seeded random codes."""
    codes = [Code(n, range(1 << n)) for n in range(10)]
    codes += [hollow_triangles(k, v) for k in range(1, 5) for v in (False, True)]
    codes += [cycle_code(n) for n in range(3, 13)]
    codes += [parse_code(t) for t in PAPER.values()]
    codes += edge_codes()
    codes += [Code(4, [[1, 2], [1, 2, 3], [3]]), Code(5, [[1, 2], [2, 3], [1, 2, 3]]),
              Code(3, [[1, 2], [1, 2, 3]]), Code(12, [[1, 2], [12], [1, 2, 12]])]
    for n in range(1, 9):
        codes += random_codes(12, 300 + n, n=n, max_words=min(1 << n, 24))
    return codes


CORPUS = corpus()
IDS = [f"{i}-n{c.n}-w{len(c)}" for i, c in enumerate(CORPUS)]


def assert_checked_trunk(t: Trunk) -> None:
    # The checked constructor finds the same generator from the members
    # (Trunk equality compares both fields).
    assert t == Trunk(t.member_masks)


def assert_same_trunks(got: list[Trunk], want: list[Trunk]) -> None:
    assert got == want
    assert [repr(t) for t in got] == [repr(t) for t in want]
    assert (json.dumps([trunk_to_obj(t) for t in got])
            == json.dumps([trunk_to_obj(t) for t in want]))
    for t in got:
        assert_checked_trunk(t)


def assert_same_reduction(code: Code) -> None:
    got, want = reduce_code(code), reduce_code_checked(code)
    assert got.reduced == want.reduced and got.reduced.masks == want.reduced.masks
    assert got.iso.domain is code and got.iso.trunks == want.iso.trunks
    assert got.neuron_origin == want.neuron_origin
    assert repr(got) == repr(want)
    for t in got.iso.trunks:
        assert_checked_trunk(t)
    # The checked Morphism accepts the trunks, and gives the same image.
    assert Morphism(code, got.iso.trunks) == got.iso
    assert got.iso.image() == want.iso.image()
    assert minimum_neuron_number(code) == len(irreducible_trunks_by_lattice(code))


def assert_same_neurons(code: Code) -> None:
    assert redundant_neurons(code) == redundant_neurons_by_trunk_of(code)
    assert trivial_neurons(code) == {i for i, t in simple_trunks(code) if not t.member_masks}


@pytest.mark.parametrize("code", CORPUS, ids=IDS)
def test_trunks_match_checked_references(code):
    assert_same_trunks(all_trunks(code), all_trunks_checked(code))
    assert_same_trunks(irreducible_trunks(code), irreducible_trunks_by_lattice(code))


@pytest.mark.parametrize("code", CORPUS, ids=IDS)
def test_reduction_matches_checked_reference(code):
    assert_same_reduction(code)
    assert_same_neurons(code)


@pytest.mark.parametrize("code", CORPUS, ids=IDS)
def test_canonical_form_matches_checked_reduction(code):
    red = reduce_code_checked(code).reduced
    masks, perm = _min_relabeling(red.masks, red.n)
    got = canonical_form(code)
    assert got.code.masks == masks and got.witness == perm


@pytest.mark.parametrize("source", ["CF", "C0", "C1", "C2"])
@pytest.mark.parametrize("target", ["C0", "C1", "C2", "{12,23,1,3,0}"])
def test_membership_witness_is_a_checked_morphism(source, target):
    src, tgt = parse_code(PAPER[source]), parse_code(PAPER.get(target, target))
    got, want = verify_image_membership(src, tgt), membership_by_full_walk(src, tgt)
    assert got == want
    if got is not None:
        assert repr(got) == repr(want)
        for t in got.trunks:
            assert_checked_trunk(t)
        assert Morphism(src, got.trunks) == got


@st.composite
def codes(draw):
    n = draw(st.integers(0, 7))
    masks = draw(st.lists(st.integers(0, (1 << n) - 1), max_size=20))
    return Code(n, masks)


@hypothesis.settings(max_examples=200, deadline=None, derandomize=True, database=None)
@hypothesis.given(codes())
def test_drawn_codes_match_checked_references(code):
    assert_same_trunks(all_trunks(code), all_trunks_checked(code))
    assert_same_trunks(irreducible_trunks(code), irreducible_trunks_by_lattice(code))
    assert_same_reduction(code)
    assert_same_neurons(code)


@pytest.mark.parametrize("word", [[0], [1, 99], "ab", True, None, 2 ** 70, [1.5], -1],
                         ids=repr)
def test_malformed_word_is_not_in_a_trunk(word):
    # As in Code.contains: a malformed or out-of-range word is simply absent.
    code = Code(3, [[1, 2], [2, 3], [1], []])
    assert word not in code
    for t in all_trunks(code) + [trunk_of(code, [1])]:
        assert word not in t


def test_well_formed_words_in_a_trunk():
    t = trunk_of(Code(3, [[1, 2], [2, 3], [1], []]), [2])
    assert [1, 2] in t and 0b110 in t and frozenset({2, 3}) in t
    assert [1] not in t and [] not in t and [2, 9] not in t
