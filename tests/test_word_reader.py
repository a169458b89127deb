"""Every public function that takes a codeword reads it through
codes.word_mask: the int mask and the index list of one word give the same
result, and a bool, a negative mask or a mask wider than the allowed neurons
is refused with ValueError (Code.contains and `word in trunk` answer False
instead).
word_mask takes a plain in-range index after one test; through the JSON
code reader it must accept, and refuse with the same message, exactly what
the full checks of every index do."""

import enum
import json
import random
from types import SimpleNamespace

import pytest

from codecat import (Code, MAX_NEURONS, Morphism, RingElement, SimplicialComplex,
                     all_trunks, evaluate_monomial, indicator, is_trunk, link,
                     morphism_to_monomial_map, restriction_morphism, simplicial_complex,
                     parse_code, trunk_of, union_morphism)
from codecat.codes import _words_from_json_lists, mask_members

from helpers import code_from_json_lists_by_full_checks, random_code

N = 5

# name -> (reads the word against n, call with fixtures and a word)
READERS = {
    "Code": (True, lambda fx, w: Code(N, [w])),
    "Code.contains": (False, lambda fx, w: fx.code.contains(w)),
    "Trunk.__contains__": (False, lambda fx, w: w in fx.trunk),
    "trunk_of": (True, lambda fx, w: trunk_of(fx.code, w)),
    "is_trunk": (False, lambda fx, w: is_trunk(fx.code, [w])),
    "Morphism.apply": (False, lambda fx, w: fx.morphism.apply(w)),
    "ExplicitMap.apply": (False, lambda fx, w: fx.explicit.apply(w)),
    "restriction_morphism": (True, lambda fx, w: restriction_morphism(fx.code, w)),
    "union_morphism": (True, lambda fx, w: union_morphism(fx.code, w)),
    "RingElement.value_at": (False, lambda fx, w: fx.element.value_at(w)),
    "indicator": (False, lambda fx, w: indicator(fx.code, w)),
    "evaluate_monomial": (True, lambda fx, w: evaluate_monomial(fx.code, w)),
    "MonomialMap.monomial_image": (True, lambda fx, w: fx.ring_map.monomial_image(w)),
    "MonomialMap.indicator_image": (True, lambda fx, w: fx.ring_map.indicator_image(w)),
    "SimplicialComplex.from_faces": (True, lambda fx, w: SimplicialComplex.from_faces(N, [w])),
    "SimplicialComplex.has_face": (True, lambda fx, w: fx.complex.has_face(w)),
    "link": (True, lambda fx, w: link(fx.complex, w)),
}


def fixtures(seed: int) -> SimpleNamespace:
    """A random code on N neurons and one object of each word-taking kind;
    the morphism has N trunks, so the ring map's from-side is on N too."""
    rng = random.Random(seed)
    code = random_code(rng, N, 14, force_empty_word=True)
    trunks = all_trunks(code)
    morphism = Morphism(code, tuple(rng.choice(trunks) for _ in range(N)))
    return SimpleNamespace(
        code=code,
        trunk=trunk_of(code, rng.randrange(1 << N)),
        morphism=morphism,
        explicit=morphism.as_explicit(),
        element=RingElement(code, frozenset(m for m in code.masks if rng.random() < 0.5)),
        ring_map=morphism_to_monomial_map(morphism),
        complex=simplicial_complex(code),
    )


def outcome(call):
    try:
        return ("value", call())
    except ValueError as exc:
        return ("ValueError", str(exc))


def bad_masks(checks_n: bool) -> list:
    return [True, False, -1, -2, -(1 << 70), 1 << MAX_NEURONS] + ([1 << N] if checks_n else [])


@pytest.mark.parametrize("name", READERS)
@pytest.mark.parametrize("seed", range(4))
def test_mask_and_indices_read_alike(name, seed):
    _, call = READERS[name]
    fx = fixtures(seed)
    for mask in range(1 << N):
        members = list(mask_members(mask))
        assert outcome(lambda: call(fx, mask)) == outcome(lambda: call(fx, members)), mask


@pytest.mark.parametrize("name", READERS)
def test_bad_masks_are_refused(name):
    checks_n, call = READERS[name]
    fx = fixtures(0)
    for bad in bad_masks(checks_n):
        if name in ("Code.contains", "Trunk.__contains__"):
            assert call(fx, bad) is False
        else:
            with pytest.raises(ValueError):
                call(fx, bad)


@pytest.mark.parametrize("bad, message", [
    (True, "codeword must be neuron indices or an int mask, got True"),
    (-1, "codeword mask must be >= 0, got -1"),
    (1 << N, f"codeword mask holds neuron {N + 1}, which exceeds declared n={N}"),
    ([0], "neuron index must be a positive int, got 0"),
    ([2.0], "neuron index must be a positive int, got 2.0"),
    ([N + 1], f"neuron index {N + 1} exceeds declared n={N}"),
])
def test_one_message_per_fault(bad, message):
    with pytest.raises(ValueError) as info:
        Code(N, [bad])
    assert str(info.value) == message


def test_unbounded_masks_are_capped():
    with pytest.raises(ValueError, match=f"exceeds the cap of {MAX_NEURONS}"):
        Code.from_words([1 << MAX_NEURONS])
    with pytest.raises(ValueError, match=f"neuron index 70 exceeds the cap of {MAX_NEURONS}"):
        Code.from_words([[70]])
    assert Code.from_words([0b101, [2]]) == Code(3, [[1, 3], [2]])


@pytest.mark.parametrize("bad", [None, 1.5, object()])
def test_a_word_neither_int_nor_iterable_is_refused(bad):
    with pytest.raises(ValueError) as info:
        Code(2, [bad])
    assert str(info.value) == f"codeword must be neuron indices or an int mask, got {bad!r}"
    code = Code(2, [[1], []])
    assert code.contains(bad) is False
    assert bad not in code


class Neuron(enum.IntEnum):
    FIRST = 1
    THIRD = 3


def json_word_cases() -> list[list]:
    """Word lists for the JSON reader: every kind of bad index, alone and
    after a good one, duplicates, the empty word, and seeded random words on
    n = 0..64 neurons."""
    bad = [True, False, 1.0, "1", [1], None, 0, -1, 65, MAX_NEURONS + 1]
    cases = [[[]], [], [[1, 1]], [[2, 1, 2], []], [[1, 2], [2, 1]]]
    cases += [[[i]] for i in bad] + [[[1, i]] for i in bad] + [[[2], [1, i]] for i in bad]
    rng = random.Random(9)
    for n in range(MAX_NEURONS + 1):
        for _ in range(3):
            cases.append([rng.sample(range(1, n + 1), rng.randint(0, n))
                          for _ in range(rng.randint(0, 6))])
    return cases


def declared_ns(words: list) -> list[int]:
    """n values to declare with a word list: the smallest that holds it,
    one too small, one larger, and the bounds."""
    top = max((i for w in words for i in w if type(i) is int), default=0)
    return sorted({0, max(top - 1, 0), top, top + 1, MAX_NEURONS} & set(range(MAX_NEURONS + 1)))


def test_json_reader_matches_the_full_checks():
    for words in json_word_cases():
        expect = outcome(lambda: code_from_json_lists_by_full_checks(words, None))
        text = json.dumps(words)
        assert outcome(lambda: parse_code(text)) == expect, text
        assert outcome(lambda: _words_from_json_lists(words, None)) == expect, text
        for n in declared_ns(words):
            expect = outcome(lambda: code_from_json_lists_by_full_checks(words, n))
            obj = {"n": n, "words": words}
            assert outcome(lambda: parse_code(f"n={n} {text}")) == expect, (n, text)
            assert outcome(lambda: parse_code(obj)) == expect, obj
            assert outcome(lambda: parse_code(json.dumps(obj))) == expect, obj


@pytest.mark.parametrize("words, n, message", [
    ([[True]], None, "neuron index must be a positive int, got True"),
    ([[1, 1.0]], 3, "neuron index must be a positive int, got 1.0"),
    ([[1], ["1"]], None, "neuron index must be a positive int, got '1'"),
    ([[None]], 2, "neuron index must be a positive int, got None"),
    ([[3]], 2, "neuron index 3 exceeds declared n=2"),
    ([[65]], None, f"neuron index 65 exceeds the cap of {MAX_NEURONS}"),
    ([[1]], 65, f"neuron count must be in 0..{MAX_NEURONS}, got 65"),
    ([[1]], -1, f"neuron count must be in 0..{MAX_NEURONS}, got -1"),
])
def test_json_reader_messages(words, n, message):
    with pytest.raises(ValueError) as info:
        _words_from_json_lists(words, n)
    assert str(info.value) == message


def test_json_reader_accepts_an_int_subclass_index():
    words = [[Neuron.FIRST, Neuron.THIRD], [2, Neuron.FIRST], [Neuron.THIRD]]
    expect = Code(3, [[1, 3], [1, 2], [3]])
    for n in (None, 3):
        assert code_from_json_lists_by_full_checks(words, n) == expect
        assert _words_from_json_lists(words, n) == expect
    assert parse_code({"n": 3, "words": words}) == expect
    with pytest.raises(ValueError, match="neuron index 3 exceeds declared n=2"):
        _words_from_json_lists(words, 2)
