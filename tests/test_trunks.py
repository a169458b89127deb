import itertools
import random

import pytest

from codecat import (Code, Trunk, all_trunks, irreducible_trunks, is_trunk,
                     parse_code, simple_trunks, trunk_of)

from helpers import brute_trunk_family, edge_codes, random_codes


C5 = parse_code("{12,23,1,3,0}")
D5 = parse_code("{12,34,1,3,0}")


def test_trunk_of_basic():
    t = trunk_of(C5, [2])
    assert t.members == {frozenset({1, 2}), frozenset({2, 3})}
    assert t.generator == frozenset({2})
    assert frozenset({1, 2}) in t


def test_trunk_of_accepts_mask():
    assert trunk_of(C5, 0b010) == trunk_of(C5, [2])


def test_empty_sigma_gives_whole_code():
    t = trunk_of(C5, [])
    assert t.members == set(C5.words)
    assert t.generator == frozenset()


def test_empty_trunk_has_no_generator():
    t = trunk_of(D5, [2, 4])
    assert not t.members
    assert t.generator is None


def test_generator_is_the_maximal_defining_set():
    # {12} is the only word containing 2 in this code, so Tk(2) = Tk(12)
    c = parse_code("{12,1,0}")
    assert trunk_of(c, [2]).generator == frozenset({1, 2})


def test_trunk_validates_members():
    with pytest.raises(ValueError):
        Trunk(frozenset({0b100}), generator_mask=0b1)


def test_simple_trunks_count():
    assert [i for i, _ in simple_trunks(C5)] == [1, 2, 3]


def test_all_trunks_counts_on_reference_codes():
    nonempty_c = [t for t in all_trunks(C5) if t.member_masks]
    nonempty_d = [t for t in all_trunks(D5) if t.member_masks]
    assert len(nonempty_c) == 6 and len(all_trunks(C5)) == 7
    assert len(nonempty_d) == 5 and len(all_trunks(D5)) == 6


def test_all_trunks_matches_direct_sweep():
    # the closure construction must produce exactly the sigma-sweep family
    for code in [C5, D5] + random_codes(60, 23, n=5, max_words=8) + edge_codes():
        family = {t.member_masks for t in all_trunks(code)}
        assert family == brute_trunk_family(code) | {frozenset()}


def test_all_trunks_sorted_deterministically():
    power_sets = [Code(n, range(1 << n)) for n in range(7, 10)]
    for code in random_codes(20, 5, n=4, max_words=6) + edge_codes() + power_sets:
        ts = all_trunks(code)
        assert ts == sorted(ts, key=lambda t: t.sort_key())


def test_is_trunk_positive_and_negative():
    assert is_trunk(C5, [{1, 2}, {2, 3}])
    assert not is_trunk(C5, [{1, 2}, {3}])
    assert is_trunk(C5, [])
    assert is_trunk(C5, list(C5.words))


def test_is_trunk_rejects_non_codewords():
    with pytest.raises(ValueError):
        is_trunk(C5, [{1, 2, 3}])


def test_is_trunk_agrees_with_family_membership():
    for code in random_codes(40, 97, n=4, max_words=7):
        family = {t.member_masks for t in all_trunks(code)}
        words = sorted(code.mask_set)
        for k in range(0, min(3, len(words)) + 1):
            for sub in itertools.combinations(words, k):
                expect = frozenset(sub) in family
                got = is_trunk(code, [set(Code(code.n, [m]).words[0])
                                      for m in sub])
                assert got == expect


def test_irreducible_trunks_of_reference_codes():
    gens_c = [t.generator for t in irreducible_trunks(C5)]
    assert gens_c == [frozenset({1}), frozenset({2}), frozenset({3})]
    gens_d = [t.generator for t in irreducible_trunks(D5)]
    assert gens_d == [frozenset({1}), frozenset({1, 2}),
                      frozenset({3}), frozenset({3, 4})]


def test_irreducible_trunks_are_meet_irreducible():
    # no irreducible trunk equals the intersection of its strict supersets
    for code in random_codes(40, 3, n=5, max_words=8):
        family = [t.member_masks for t in all_trunks(code)]
        irr = {t.member_masks for t in irreducible_trunks(code)}
        for members in family:
            if not members or members == frozenset(code.mask_set):
                continue
            supersets = [f for f in family if f > members]
            meet = frozenset(code.mask_set)
            for f in supersets:
                meet &= f
            assert (members in irr) == (meet != members)


def test_every_trunk_is_meet_of_irreducibles():
    for code in random_codes(40, 41, n=5, max_words=8):
        irr = [t.member_masks for t in irreducible_trunks(code)]
        family = {t.member_masks for t in all_trunks(code)}
        whole = frozenset(code.mask_set)
        for members in family:
            if not members:
                continue  # the empty trunk may or may not be a meet
            meet = whole
            for f in irr:
                if f >= members:
                    meet &= f
            assert meet == members


def test_random_trunk_closed_under_intersection():
    rng = random.Random(12)
    for code in random_codes(30, 77, n=5, max_words=10):
        ts = all_trunks(code)
        for _ in range(10):
            a, b = rng.choice(ts), rng.choice(ts)
            both = a.member_masks & b.member_masks
            assert both in {t.member_masks for t in ts}
