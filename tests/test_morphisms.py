import enum
import json
import random

import pytest

from codecat import (Code, ExplicitMap, Morphism, all_trunks, compose,
                     decompose, explicit_map_from_obj, explicit_map_to_obj,
                     is_morphism, is_trunk, morphism_from_obj, morphism_to_obj,
                     parse_code, permutation_morphism, restriction_morphism,
                     trunk_of, union_morphism)

from helpers import random_codes

C5 = parse_code("{12,23,1,3,0}")
D5 = parse_code("{12,34,1,3,0}")
CW = parse_code("{12,23,1,2,0}")

BIJ = {frozenset({1, 2}): {1, 2}, frozenset({2, 3}): {3, 4},
       frozenset({1}): {1}, frozenset({3}): {3}, frozenset(): set()}


def four_trunk_morphism():
    return Morphism(CW, tuple(trunk_of(CW, s) for s in ([], [2], [1], [1, 2])))


def random_morphism(rng, code, m):
    pool = all_trunks(code)
    return Morphism(code, tuple(rng.choice(pool) for _ in range(m)))


def test_morphism_apply_and_image():
    f = four_trunk_morphism()
    assert f.apply({2, 3}) == {1, 2}
    assert f.apply({1, 2}) == {1, 2, 3, 4}
    assert f.apply(set()) == {1}
    assert f.image() == parse_code("{1234,12,13,1}")


def test_morphism_rejects_foreign_trunks():
    with pytest.raises(ValueError):
        Morphism(CW, (trunk_of(C5, [2]),))


def test_apply_requires_domain_word():
    with pytest.raises(ValueError):
        four_trunk_morphism().apply({3})


def test_zero_trunk_morphism():
    f = Morphism(CW, ())
    assert f.m == 0
    assert f.image() == Code(0, [0])


def test_explicit_map_roundtrip():
    f = ExplicitMap.from_function(C5, D5, lambda w: BIJ[w])
    assert f.apply({2, 3}) == {3, 4}
    assert f.image() == D5
    assert explicit_map_from_obj(explicit_map_to_obj(f)) == f


def test_explicit_map_requires_total_definition():
    with pytest.raises(ValueError):
        ExplicitMap.from_masks(C5, D5, {0: 0})


def test_bijection_is_morphism_but_inverse_is_not():
    f = ExplicitMap.from_function(C5, D5, lambda w: BIJ[w])
    inv = {frozenset(v): set(k) for k, v in BIJ.items()}
    g = ExplicitMap.from_function(D5, C5, lambda w: inv[w])
    assert is_morphism(f)
    assert not is_morphism(g)


def test_identity_is_morphism():
    for code in random_codes(20, 31, n=5, max_words=8):
        assert is_morphism(ExplicitMap.identity(code))


def test_decompose_recovers_trunks():
    f = ExplicitMap.from_function(C5, D5, lambda w: BIJ[w])
    m = decompose(f)
    assert m.m == 4
    # trunk j must be the preimage of Tk(j) in the codomain
    for j, t in enumerate(m.trunks, start=1):
        expect = {w for w in C5.mask_set
                  if f.apply_mask(w) & (1 << (j - 1))}
        assert t.member_masks == expect
    assert m.as_explicit(D5) == f


def test_decompose_rejects_non_morphism():
    inv = {frozenset(v): set(k) for k, v in BIJ.items()}
    g = ExplicitMap.from_function(D5, C5, lambda w: inv[w])
    with pytest.raises(ValueError):
        decompose(g)


def test_decompose_inverts_normal_form():
    rng = random.Random(6)
    for code in random_codes(30, 19, n=4, max_words=7):
        f = random_morphism(rng, code, rng.randint(0, 4))
        assert decompose(f.as_explicit()).trunks == f.trunks


def test_morphisms_are_monotone():
    rng = random.Random(90)
    for code in random_codes(40, 8, n=5, max_words=10):
        f = random_morphism(rng, code, rng.randint(0, 5))
        words = sorted(code.mask_set)
        for a in words:
            for b in words:
                if a & b == a:
                    assert f.apply_mask(a) & f.apply_mask(b) == f.apply_mask(a)


def test_trunk_preimages_of_image_are_trunks():
    rng = random.Random(14)
    for code in random_codes(30, 51, n=4, max_words=8):
        f = random_morphism(rng, code, rng.randint(1, 4))
        img = f.image()
        ex = f.as_explicit()
        for j in range(1, img.n + 1):
            target = trunk_of(img, [j]).member_masks
            preimage = {m for m in code.mask_set if ex.apply_mask(m) in target}
            assert is_trunk(code, [set(Code(code.n, [m]).words[0])
                                   for m in preimage])


def test_compose_matches_pointwise():
    rng = random.Random(33)
    for code in random_codes(25, 62, n=4, max_words=6):
        f = random_morphism(rng, code, rng.randint(1, 3))
        img = f.image()
        g = random_morphism(rng, img, rng.randint(1, 3))
        h = compose(g, f)
        assert h.domain == code
        for w in code.mask_set:
            assert h.apply_mask(w) == g.apply_mask(f.apply_mask(w))


def test_compose_needs_compatible_codes():
    f = four_trunk_morphism()
    g = Morphism(C5, (trunk_of(C5, [1]),))
    with pytest.raises(ValueError):
        compose(g, f)


def test_restriction_morphism():
    f = restriction_morphism(C5, [1, 2])
    assert f.apply({2, 3}) == {2}
    # the ambient neuron set is kept; only the words shrink
    assert f.image() == Code(3, [[1, 2], [2], [1], []])
    assert is_morphism(f)


def test_union_morphism():
    f = union_morphism(C5, [3])
    assert f.apply({1}) == {1, 3}
    assert is_morphism(f)
    assert all(3 in w for w in f.image().words)


def test_permutation_morphism():
    f = permutation_morphism(C5, [2, 3, 1])
    assert f.apply({1, 2}) == {2, 3}
    assert is_morphism(f)
    assert len(f.image()) == len(C5)
    with pytest.raises(ValueError, match=r"\(1, 1, 2\) is not a permutation of 1..3"):
        permutation_morphism(C5, [1, 1, 2])
    # Indices word_mask refuses are refused, not compared as equal ints or
    # taken for neuron 1; an IntEnum is an int and is accepted.
    for perm in [[1.0, 3, 2], [True, 3, 2], ["1", 3, 2], [None, 3, 2]]:
        with pytest.raises(ValueError, match="neuron index must be a positive int"):
            permutation_morphism(C5, perm)
    labels = enum.IntEnum("Labels", ["ONE", "TWO", "THREE"])
    assert permutation_morphism(C5, [labels.TWO, labels.THREE, labels.ONE]) == f


def test_morphism_json_roundtrip():
    f = four_trunk_morphism()
    obj = morphism_to_obj(f)
    assert obj["trunk_generators"] == [[], [2], [1], [1, 2]]
    assert morphism_from_obj(json.loads(json.dumps(obj))).trunks == f.trunks


def test_morphism_json_empty_trunk_is_null():
    f = Morphism(D5, (trunk_of(D5, [2, 4]),))
    obj = morphism_to_obj(f)
    assert obj["trunk_generators"] == [None]
    assert morphism_from_obj(obj).trunks == f.trunks
