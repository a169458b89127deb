import random
import time

import pytest

from codecat import (Code, ExplicitMap, all_trunks,
                     all_trunks_have_unique_minimum, coproduct, format_code,
                     is_intersection_complete, is_max_intersection_complete,
                     is_morphism, parse_code, product)

from helpers import intersection_closure, maximal_word_meets_by_subsets, random_codes


def test_product_golden():
    a, b = parse_code("{12,1,2,0}"), parse_code("{12,1,0}")
    assert format_code(product(a, b)) == "{1234,123,134,234,12,13,23,34,1,2,3,0}"


def test_product_cardinality_and_projections():
    rng = random.Random(10)
    for _ in range(25):
        a = random_codes(1, rng.randint(0, 10**6), n=3, max_words=5)[0]
        b = random_codes(1, rng.randint(0, 10**6), n=4, max_words=5)[0]
        p = product(a, b)
        assert p.n == a.n + b.n
        assert len(p) == len(a) * len(b)
        to_a = ExplicitMap.from_function(p, a,
                                         lambda w: {i for i in w if i <= a.n})
        to_b = ExplicitMap.from_function(p, b,
                                         lambda w: {i - a.n for i in w if i > a.n})
        assert is_morphism(to_a) and is_morphism(to_b)


def test_product_requires_nonempty_factors():
    with pytest.raises(ValueError):
        product(Code(2, []), parse_code("{1}"))


def test_coproduct_golden():
    a, b = parse_code("{12,1,2,0}"), parse_code("{12,1,0}")
    assert format_code(coproduct(a, b)) == "{125,346,15,25,36,5,6}"
    assert format_code(coproduct(a, b, with_empty=True)) == "{125,346,15,25,36,5,6,0}"


def test_coproduct_injections_are_morphisms():
    rng = random.Random(20)
    for _ in range(25):
        a = random_codes(1, rng.randint(0, 10**6), n=3, max_words=5)[0]
        b = random_codes(1, rng.randint(0, 10**6), n=3, max_words=5)[0]
        cp = coproduct(a, b)
        assert cp.n == a.n + b.n + 2
        assert len(cp) == len(a) + len(b)
        tag_a = a.n + b.n + 1
        from_a = ExplicitMap.from_function(a, cp, lambda w: set(w) | {tag_a})
        from_b = ExplicitMap.from_function(
            b, cp, lambda w: {i + a.n for i in w} | {a.n + b.n + 2})
        assert is_morphism(from_a) and is_morphism(from_b)


def test_intersection_complete_golden():
    assert is_intersection_complete(parse_code("{12,34,1,3,0}"))
    assert not is_intersection_complete(parse_code("{12,23,1,3,0}"))
    assert is_intersection_complete(Code(3, []))


def test_intersection_closure_is_complete():
    for code in random_codes(60, 44, n=5, max_words=9):
        assert is_intersection_complete(intersection_closure(code))


def test_unique_minimum_formulation_agrees():
    # closed under pairwise intersections iff every nonempty trunk has a
    # unique minimal word
    for code in random_codes(150, 13, n=5, max_words=10):
        assert (is_intersection_complete(code)
                == all_trunks_have_unique_minimum(code))


def test_unique_minimum_really_checks_trunks():
    c = parse_code("{12,23,1,3,0}")  # Tk(2) = {12,23} has two minimal words
    t = next(t for t in all_trunks(c)
             if t.members == {frozenset({1, 2}), frozenset({2, 3})})
    mins = [w for w in t.member_masks
            if not any(v != w and v & w == v for v in t.member_masks)]
    assert len(mins) == 2
    assert not all_trunks_have_unique_minimum(c)


def test_product_of_complete_codes_is_complete():
    rng = random.Random(31)
    for _ in range(20):
        a = intersection_closure(
            random_codes(1, rng.randint(0, 10**6), n=3, max_words=5)[0])
        b = intersection_closure(
            random_codes(1, rng.randint(0, 10**6), n=3, max_words=5)[0])
        assert is_intersection_complete(product(a, b))


def test_max_intersection_complete_golden():
    c0 = parse_code("{3456,123,145,256,45,56,1,2,3,0}")
    assert not is_max_intersection_complete(c0)  # 145 meet 256 drops to {5}
    assert is_max_intersection_complete(parse_code("{12,34,1,3,0}"))
    assert is_max_intersection_complete(parse_code("{123}"))


def test_max_intersection_complete_stops_at_the_first_miss():
    # any two complements of singletons meet in a word the code lacks;
    # closing all 2^24 of their intersections first takes seconds and
    # gigabytes
    n = 24
    cosingletons = Code(n, [[j for j in range(1, n + 1) if j != i] for i in range(1, n + 1)])
    start = time.perf_counter()
    assert not is_max_intersection_complete(cosingletons)
    assert time.perf_counter() - start < 0.1


def test_max_intersection_complete_matches_every_subset():
    # a "no" comes either from a closure that outgrows the cap of |C| + 1
    # members, the empty set counted, or from one within it that leaves the
    # code; both kinds must occur
    kinds = {"yes": 0, "over the cap": 0, "leaves the code": 0}
    for code in random_codes(300, 47, n=6, max_words=10):
        meets = maximal_word_meets_by_subsets(code)
        complete = meets <= code.mask_set
        assert is_max_intersection_complete(code) == complete
        if complete:
            kinds["yes"] += 1
        elif len(meets) + (0 not in meets) > len(code) + 1:
            kinds["over the cap"] += 1
        else:
            kinds["leaves the code"] += 1
    assert min(kinds.values()) >= 10, kinds


def test_intersection_complete_implies_max_complete():
    for code in random_codes(120, 66, n=5, max_words=9):
        closed = intersection_closure(code)
        assert is_max_intersection_complete(closed)
        if is_intersection_complete(code):
            assert is_max_intersection_complete(code)
