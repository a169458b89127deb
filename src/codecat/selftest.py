"""Golden self-checks runnable from the CLI.

Each check re-derives one of the package's reference results from scratch
and compares against the frozen expectation.  `codecat selftest` prints one
row per check.
"""

from __future__ import annotations

from collections import Counter

from . import (
    Code,
    ExplicitMap,
    Morphism,
    canonical_form,
    compose,
    compose_monomial_maps,
    coproduct,
    decompose,
    enumerate_reduced_images,
    format_code,
    image_set_difference,
    is_collapsible,
    is_intersection_complete,
    is_isomorphic,
    is_max_intersection_complete,
    is_morphism,
    is_reduced,
    is_trunk,
    local_obstruction_report,
    minimum_neuron_number,
    monomial_map_to_morphism,
    morphism_to_monomial_map,
    parse_code,
    product,
    redundant_neurons,
    reduce_code,
    simplicial_complex,
    all_trunks,
    trunk_of,
    verify_image_membership,
)

_C5 = "{12,23,1,3,0}"
_D5 = "{12,34,1,3,0}"
_CW = "{12,23,1,2,0}"
_C0 = "{3456,123,145,256,45,56,1,2,3,0}"
_C1 = "{1236,3456,145,256,26,36,45,56,1,6,0}"
_C2 = "{124,135,145,234,14,15,24,3,4,0}"
_CF = "{2345,123,134,145,13,14,23,34,45,3,4,0}"
_DF = "{2345,234,345,123,134,145,13,14,23,34,45,3,4,0}"
_EF = "{2345,123,134,145,13,14,23,34,45,3,4,1,0}"


def _four_trunk_morphism() -> Morphism:
    cw = parse_code(_CW)
    return Morphism(cw, tuple(trunk_of(cw, s) for s in ([], [2], [1], [1, 2])))


def _check_parse_roundtrip() -> bool:
    for text in (_C5, _D5, _C0, "{1234}", "{0}", "[[1,2],[10]]", "n=3 {12,0}"):
        if format_code(parse_code(text), "json" if "[" in text else "compact") != text:
            return False
    return True


def _check_trunk_counts() -> bool:
    c, d = parse_code(_C5), parse_code(_D5)
    nc = [t for t in all_trunks(c) if t.member_masks]
    nd = [t for t in all_trunks(d) if t.member_masks]
    return (len(nc), len(all_trunks(c)), len(nd), len(all_trunks(d))) == (6, 7, 5, 6)


def _check_trunk_membership() -> bool:
    c = parse_code(_C5)
    t2 = trunk_of(c, [2])
    return (t2.members == {frozenset({1, 2}), frozenset({2, 3})}
            and is_trunk(c, [{1, 2}, {2, 3}])
            and not is_trunk(c, [{1, 2}, {3}]))


def _check_bijection_not_iso() -> bool:
    c, d = parse_code(_C5), parse_code(_D5)
    fw = {frozenset({1, 2}): {1, 2}, frozenset({2, 3}): {3, 4},
          frozenset({1}): {1}, frozenset({3}): {3}, frozenset(): set()}
    f = ExplicitMap.from_function(c, d, lambda w: fw[w])
    g = ExplicitMap.from_function(d, c, lambda w: next(k for k, v in fw.items()
                                                      if frozenset(v) == w))
    return is_morphism(f) and not is_morphism(g)


def _check_image_example() -> bool:
    m = _four_trunk_morphism()
    return (format_code(m.image()) == "{1234,12,13,1}"
            and m.apply({2, 3}) == {1, 2} and m.apply({1, 2}) == {1, 2, 3, 4})


def _check_decompose_bijection() -> bool:
    c, d = parse_code(_C5), parse_code(_D5)
    fw = {frozenset({1, 2}): {1, 2}, frozenset({2, 3}): {3, 4},
          frozenset({1}): {1}, frozenset({3}): {3}, frozenset(): set()}
    m = decompose(ExplicitMap.from_function(c, d, lambda w: fw[w]))
    gens = [t.generator for t in m.trunks]
    members = [t.members for t in m.trunks]
    want = [{frozenset({1, 2}), frozenset({1})}, {frozenset({1, 2})},
            {frozenset({2, 3}), frozenset({3})}, {frozenset({2, 3})}]
    return members == [frozenset(w) for w in want] and gens[1] == frozenset({1, 2})


def _check_redundancy_witness() -> bool:
    return redundant_neurons(parse_code("{123,1,2,0}")) == [(3, frozenset({1, 2}))]


def _check_minimum_neuron_numbers() -> bool:
    vals = [minimum_neuron_number(parse_code(t))
            for t in ("{2,12}", "{0,2,3}", _C5, _D5)]
    return vals == [1, 2, 3, 4]


def _check_reduction_examples() -> bool:
    r1 = reduce_code(parse_code("{2,12}"))
    r2 = reduce_code(parse_code("{0,2,3}"))
    return (is_reduced(r1.reduced) and is_isomorphic(r1.reduced, parse_code("{0,1}"))
            and is_isomorphic(r2.reduced, parse_code("{0,1,2}"))
            and not is_isomorphic(parse_code("{2,12}"), parse_code("{0,2,3}")))


def _check_product_coproduct() -> bool:
    a, b = parse_code("{12,1,2,0}"), parse_code("{12,1,0}")
    return (format_code(product(a, b)) == "{1234,123,134,234,12,13,23,34,1,2,3,0}"
            and format_code(coproduct(a, b, with_empty=True))
            == "{125,346,15,25,36,5,6,0}")


def _check_intersection_complete() -> bool:
    return (is_intersection_complete(parse_code(_D5))
            and not is_intersection_complete(parse_code(_C5)))


def _check_c0_simple_trunks() -> bool:
    c0 = parse_code(_C0)
    flags = []
    for i in range(1, 7):
        tc = Code(6, trunk_of(c0, [i]).member_masks)
        flags.append(is_max_intersection_complete(tc))
    t5 = Code(6, trunk_of(c0, [5]).member_masks)
    return (flags == [True, True, True, True, False, True]
            and canonical_form(t5).code
            == canonical_form(parse_code("{346,14,26,4,6}")).code)


def _check_c0_local_obstructions() -> bool:
    rep = local_obstruction_report(parse_code(_C0))
    if not (rep.locally_great is True and rep.locally_good == "yes"
            and len(rep.entries) == 18):
        return False
    fp = Counter(tuple(sorted(len(f) for f in e.link_facets)) for e in rep.entries)
    return fp == Counter({(1,): 11, (2,): 4, (2, 3): 2, (2, 2, 3): 1})


def _check_collapsibility_edges() -> bool:
    point = simplicial_complex(parse_code("{1}"))
    hollow = simplicial_complex(parse_code("{12,23,13}"))
    return is_collapsible(point) and not is_collapsible(hollow)


def _check_functor_roundtrip() -> bool:
    m = _four_trunk_morphism()
    phi = morphism_to_monomial_map(m)
    if phi.assignment != (frozenset(), frozenset({2}), frozenset({1}),
                          frozenset({1, 2})):
        return False
    back = monomial_map_to_morphism(phi)
    if back.trunks != m.trunks:
        return False
    # pulling back the indicator of f(c) hits c
    c = frozenset({2, 3})
    return phi.indicator_image(m.apply(c)).value_at(c) == 1


def _check_contravariance() -> bool:
    m = _four_trunk_morphism()
    img = m.image()
    g = Morphism(img, tuple(trunk_of(img, s) for s in ([1], [1, 2])))
    lhs = morphism_to_monomial_map(compose(g, m))
    rhs = compose_monomial_maps(morphism_to_monomial_map(m),
                                morphism_to_monomial_map(g))
    return lhs == rhs


def _check_small_images() -> bool:
    c = parse_code(_C5)
    out = enumerate_reduced_images(c)
    keys = {format_code(x) for x in out.images}
    return ({"{0}", "{1,0}"} <= keys
            and canonical_form(c).code in out.images)


def _check_flagship_difference() -> bool:
    diff = image_set_difference(parse_code(_CF), [parse_code(_DF), parse_code(_EF)])
    expect = {canonical_form(parse_code(t)).code for t in (_CF, _C0, _C1, _C2)}
    return len(diff) == 4 and set(diff) == expect


def _check_witness_chain() -> bool:
    cf, c1, c0 = parse_code(_CF), parse_code(_C1), parse_code(_C0)
    w1 = verify_image_membership(cf, c1)
    w2 = verify_image_membership(c1, c0)
    if w1 is None or w2 is None:
        return False
    by_hand = Morphism(c1, tuple(trunk_of(c1, s)
                                 for s in ([1], [2], [3], [4], [5], [5, 6])))
    return (is_isomorphic(w1.image(), c1) and is_isomorphic(w2.image(), c0)
            and by_hand.image() == c0
            and not is_isomorphic(cf, c1) and not is_isomorphic(c1, c0))


def _check_membership_negative() -> bool:
    return verify_image_membership(parse_code("{0}"), parse_code("{12,1,0}")) is None


CHECKS = [
    ("parse/format round trips", _check_parse_roundtrip),
    ("trunk counts of the two 5-word codes", _check_trunk_counts),
    ("trunk membership and is_trunk", _check_trunk_membership),
    ("bijective morphism whose inverse is not one", _check_bijection_not_iso),
    ("four-trunk morphism image {1234,12,13,1}", _check_image_example),
    ("decompose recovers the preimage trunks", _check_decompose_bijection),
    ("redundancy witness (3, {1,2})", _check_redundancy_witness),
    ("minimum neuron numbers 1,2,3,4", _check_minimum_neuron_numbers),
    ("reduction of {2,12} and {0,2,3}", _check_reduction_examples),
    ("product and coproduct of the 4-word pair", _check_product_coproduct),
    ("intersection completeness split", _check_intersection_complete),
    ("10-word code: simple trunks and Tk(5)", _check_c0_simple_trunks),
    ("10-word code: all links collapse", _check_c0_local_obstructions),
    ("collapsibility: point yes, hollow triangle no", _check_collapsibility_edges),
    ("ring functor round trip", _check_functor_roundtrip),
    ("ring functor contravariance", _check_contravariance),
    ("image enumeration basics", _check_small_images),
    ("flagship image difference (4 codes)", _check_flagship_difference),
    ("witness chain through the 11-word code", _check_witness_chain),
    ("membership: images cannot gain words", _check_membership_negative),
]


def run(out=None) -> bool:
    """Run every golden check; prints a table, returns overall success."""
    import sys
    stream = out if out is not None else sys.stdout
    ok = True
    for name, fn in CHECKS:
        try:
            good = bool(fn())
        except Exception as exc:  # a crash is a failure, not an abort
            good = False
            name = f"{name} ({type(exc).__name__}: {exc})"
        ok &= good
        print(f"{'ok  ' if good else 'FAIL'}  {name}", file=stream)
    print(f"{'all checks passed' if ok else 'CHECKS FAILED'} "
          f"({len(CHECKS)} run)", file=stream)
    return ok
