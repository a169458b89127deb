"""The trunk lattice against slow references.

The library builds every trunk from the intersection closure of the n simple
trunks and the whole code, as word-index masks, and finds the irreducible
trunks among the simple trunks without the lattice.  These tests rebuild the
same results from the intersection closure of the codewords (the library's
former construction), from the 2^n sigma sweep and from pairwise
intersection closure, on seeded random codes, power sets with and without a
copied neuron, and the edge cases of helpers.edge_codes.
"""

from functools import reduce

import pytest

from codecat import (Code, ResourceCapError, all_trunks, all_trunks_have_unique_minimum,
                     irreducible_trunks, is_max_intersection_complete)
from codecat.enumeration import _index_pool
from codecat.trunks import _intersection_closure, _trunk_family_masksets

from helpers import (all_trunks_by_codewords, brute_trunk_family, edge_codes,
                     intersection_closure, irreducible_trunks_by_lattice,
                     power_set_with_copy, random_codes, trunk_family_by_codewords)


def lattice_inputs():
    randoms = random_codes(60, 2024, n=5, max_words=10)
    return (edge_codes() + randoms + random_codes(20, 11, n=6, max_words=14)
            + [intersection_closure(c) for c in randoms[:20]])


def test_index_pool_matches_direct_sweep_in_order():
    for code in lattice_inputs():
        index = {w: k for k, w in enumerate(code.masks)}
        family = brute_trunk_family(code) | {frozenset()}
        proper = [t for t in family if t and t != code.mask_set]
        # larger trunks first; within a size, by descending word indices
        want = sorted(proper, key=lambda t: (
            -len(t), sorted((index[w] for w in t), reverse=True)))
        words, pool = _index_pool(code, None)
        assert words == code.masks
        got = [frozenset(w for k, w in enumerate(words) if t >> k & 1) for t in pool]
        assert got == want
        _index_pool(code, len(family))  # the cap counts every trunk
        with pytest.raises(ResourceCapError):
            _index_pool(code, len(family) - 1)


def test_lattice_matches_codeword_closure_reference():
    codes = [c for n in range(11)
             for c in random_codes(12, 300 + n, n=n, max_words=min(1 << n, 24))]
    codes += edge_codes() + [Code(n, range(1 << n)) for n in range(11)]
    codes += [power_set_with_copy(n) for n in range(4, 11)]
    for code in codes:
        family = trunk_family_by_codewords(code)
        assert _trunk_family_masksets(code) == family
        assert all_trunks(code) == all_trunks_by_codewords(code)
        assert irreducible_trunks(code) == irreducible_trunks_by_lattice(code)
        total = len(family) + 1  # the empty trunk too
        assert _trunk_family_masksets(code, total) == family
        assert len(all_trunks(code, max_trunks=total)) == total
        for refuse in (_trunk_family_masksets, trunk_family_by_codewords, all_trunks):
            with pytest.raises(ResourceCapError):
                refuse(code, total - 1)


def test_trunk_cap_refuses_before_the_lattice_is_complete():
    # 4096 pairwise disjoint trunks, as word-index masks, meet only in the
    # empty trunk; a cap of 24 must stop the closure after 24 of them, not
    # after all 4096
    read = []

    def trunks():
        for k in range(1 << 12):
            read.append(k)
            yield 1 << k

    with pytest.raises(ResourceCapError, match="raise max_trunks"):
        _intersection_closure(trunks(), cap=24)
    assert len(read) == 24  # 24 trunks and the empty trunk, counted once, are 25
    with pytest.raises(ResourceCapError, match="raise max_trunks"):
        _index_pool(Code(12, range(1 << 12)), 24)


def test_irreducible_trunks_match_brute_meet_irreducibility():
    for code in lattice_inputs():
        family = brute_trunk_family(code) | {frozenset()}
        whole = code.mask_set
        want = []
        for t in family:
            if not t or t == whole:
                continue
            meet = whole
            for s in family:
                if s > t:
                    meet &= s
            if meet != t:
                want.append(t)
        want.sort(key=lambda t: [i for i in range(1, code.n + 1)
                                 if reduce(int.__and__, t) >> (i - 1) & 1])
        assert [t.member_masks for t in irreducible_trunks(code)] == want


def _minimal(words):
    return [m for m in words if not any(o != m and o & m == o for o in words)]


def test_completeness_checks_match_references():
    for code in lattice_inputs():
        unique_minimum = all(len(_minimal(t)) == 1
                             for t in brute_trunk_family(code) if t)
        assert all_trunks_have_unique_minimum(code) == unique_minimum
        maximal = [m for m in code.mask_set
                   if not any(o != m and o & m == m for o in code.mask_set)]
        closed = intersection_closure(Code(code.n, maximal)).mask_set
        assert is_max_intersection_complete(code) == (closed <= code.mask_set)
