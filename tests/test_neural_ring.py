import random

import pytest

from codecat import (Code, MonomialMap, Morphism, RingElement, all_trunks,
                     compose, compose_monomial_maps, coordinate,
                     evaluate_monomial, indicator, monomial_map_to_morphism,
                     morphism_to_monomial_map, parse_code, trunk_of)

from helpers import random_codes

C5 = parse_code("{12,23,1,3,0}")
CW = parse_code("{12,23,1,2,0}")


def four_trunk_morphism():
    return Morphism(CW, tuple(trunk_of(CW, s) for s in ([], [2], [1], [1, 2])))


def random_elements(rng, code, count):
    words = sorted(code.mask_set)
    for _ in range(count):
        k = rng.randint(0, len(words))
        yield RingElement(code, frozenset(rng.sample(words, k)))


def test_coordinate_supports():
    assert coordinate(C5, 2).support == {0b011, 0b110}
    assert coordinate(C5, 1).support == {0b011, 0b001}
    with pytest.raises(ValueError):
        coordinate(C5, 4)


def test_indicator():
    el = indicator(C5, [1, 2])
    assert el.support == {0b011}
    assert el.value_at([1, 2]) == 1
    assert el.value_at([1]) == 0
    assert indicator(C5, [2]).support == frozenset()  # not a codeword


@pytest.mark.parametrize("word", [[1, 2, 12], [4], 1 << 3, 0b1000011])
def test_indicator_refuses_a_word_beyond_n(word):
    # A word on neurons the code does not have is refused, as trunk_of and
    # MonomialMap.indicator_image refuse it, not read as a missing codeword.
    with pytest.raises(ValueError, match="exceeds declared n=3"):
        indicator(C5, word)


def test_evaluate_monomial_is_trunk_support():
    assert evaluate_monomial(C5, [2]).support == trunk_of(C5, [2]).member_masks
    assert evaluate_monomial(C5, []).support == C5.mask_set
    assert evaluate_monomial(C5, [1, 3]).support == frozenset()


def test_boolean_ring_laws():
    rng = random.Random(3)
    for code in random_codes(10, 21, n=4, max_words=8):
        els = list(random_elements(rng, code, 6))
        one, zero = RingElement.one(code), RingElement.zero(code)
        for a in els:
            assert a + a == zero
            assert a * a == a
            assert a * one == a
            assert a * zero == zero
            assert a.complement() == one + a
        for a, b, c in zip(els, els[1:], els[2:]):
            assert a * (b + c) == a * b + a * c
            assert (a + b) + c == a + (b + c)


def test_indicators_expand_elements():
    # every element is the sum of the indicators in its support
    rng = random.Random(9)
    for code in random_codes(10, 83, n=4, max_words=6):
        for el in random_elements(rng, code, 4):
            total = RingElement.zero(code)
            for m in el.support:
                total = total + indicator(code, m)
            assert total == el


def test_monomial_map_validates_exponents():
    with pytest.raises(ValueError):  # {2} is not maximal: Tk(2) = Tk(12) here
        MonomialMap(Code(1, [1]), parse_code("{12,1,0}"), (frozenset({2}),))
    with pytest.raises(ValueError):  # empty trunk must be encoded as None
        MonomialMap(Code(1, [1]), parse_code("{12,34,1,3,0}"),
                    (frozenset({2, 4}),))
    with pytest.raises(ValueError):  # arity mismatch
        MonomialMap(Code(2, [[1], [2]]), C5, (frozenset({1}),))


def test_morphism_to_monomial_map_golden():
    phi = morphism_to_monomial_map(four_trunk_morphism())
    assert phi.assignment == (frozenset(), frozenset({2}), frozenset({1}),
                              frozenset({1, 2}))
    assert phi.from_code == four_trunk_morphism().image()
    assert phi.to_code == CW


def test_monomial_map_roundtrip():
    rng = random.Random(77)
    for code in random_codes(30, 64, n=4, max_words=7):
        pool = [t for t in all_trunks(code)]
        f = Morphism(code, tuple(rng.choice(pool)
                                 for _ in range(rng.randint(0, 4))))
        phi = morphism_to_monomial_map(f)
        back = monomial_map_to_morphism(phi)
        assert back.domain == code
        assert back.trunks == f.trunks


def test_monomial_map_to_morphism_needs_words_inside():
    # y_1 -> x_1 against a from-side code missing the induced image word
    phi = MonomialMap(Code(1, [0]), parse_code("{1,0}"), (frozenset({1}),))
    with pytest.raises(ValueError):
        monomial_map_to_morphism(phi)


def test_pullback_of_indicator_tracks_preimage():
    f = four_trunk_morphism()
    phi = morphism_to_monomial_map(f)
    for d in f.image().mask_set:
        el = phi.indicator_image(d)
        expect = {c for c in CW.mask_set if f.apply_mask(c) == d}
        assert el.support == expect


def test_pullback_multiplicativity():
    phi = morphism_to_monomial_map(four_trunk_morphism())
    m = phi.from_code.n
    for a in range(1 << m):
        for b in range(1 << m):
            lhs = phi.monomial_image(a | b)
            rhs = phi.monomial_image(a) * phi.monomial_image(b)
            assert lhs == rhs


def test_composition_is_contravariant():
    rng = random.Random(42)
    for code in random_codes(20, 55, n=4, max_words=6):
        pool = all_trunks(code)
        f = Morphism(code, tuple(rng.choice(pool)
                                 for _ in range(rng.randint(1, 3))))
        img = f.image()
        pool2 = all_trunks(img)
        g = Morphism(img, tuple(rng.choice(pool2)
                                for _ in range(rng.randint(1, 3))))
        lhs = morphism_to_monomial_map(compose(g, f))
        rhs = compose_monomial_maps(morphism_to_monomial_map(f),
                                    morphism_to_monomial_map(g))
        assert lhs == rhs


def test_composed_map_acts_like_composition():
    f = four_trunk_morphism()
    img = f.image()
    g = Morphism(img, (trunk_of(img, [1]), trunk_of(img, [2, 3])))
    both = compose_monomial_maps(morphism_to_monomial_map(f),
                                 morphism_to_monomial_map(g))
    h = compose(g, f)
    for j in range(1, h.m + 1):
        expect = {c for c in CW.mask_set
                  if h.apply_mask(c) & (1 << (j - 1))}
        assert both.coordinate_image(j).support == expect
