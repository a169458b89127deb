"""The trunk lattice against slow references.

The library builds every trunk from the intersection closure of the
codewords; these tests rebuild the same results from the 2^n sigma sweep
and from pairwise intersection closure, on seeded random codes and on the
edge cases of helpers.edge_codes.
"""

from functools import reduce

import pytest

from codecat import (Code, ResourceCapError, all_trunks_have_unique_minimum,
                     irreducible_trunks, is_max_intersection_complete)
from codecat.enumeration import _index_pool
from codecat.trunks import _intersection_closure

from helpers import (brute_trunk_family, edge_codes, intersection_closure,
                     random_codes)


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


def test_trunk_cap_refuses_before_the_lattice_is_complete():
    # the power set on 12 neurons has 4096 trunks; a cap of 24 must stop the
    # closure after a few dozen words, not after all 4096
    read = []

    def words():
        for w in range(1 << 12):
            read.append(w)
            yield w

    with pytest.raises(ResourceCapError, match="raise max_trunks"):
        _intersection_closure(words(), cap=24)
    assert len(read) == 24  # 24 generators and the empty trunk are 25 trunks
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
