"""Every public function that takes a codeword reads it through
codes.word_mask: the int mask and the index list of one word give the same
result, and a bool, a negative mask or a mask wider than the allowed neurons
is refused with ValueError (Code.contains answers False instead)."""

import random
from types import SimpleNamespace

import pytest

from codecat import (Code, MAX_NEURONS, Morphism, RingElement, SimplicialComplex,
                     all_trunks, evaluate_monomial, indicator, is_trunk, link,
                     morphism_to_monomial_map, restriction_morphism, simplicial_complex,
                     trunk_of, union_morphism)
from codecat.codes import mask_members

from helpers import random_code

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
        if name == "Code.contains":
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
