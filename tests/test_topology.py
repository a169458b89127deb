import hashlib
import random
import sys
import tracemalloc
from itertools import combinations
from unittest import mock

import pytest

from codecat import (Code, ResourceCapError, parse_code,
                     local_obstruction_report, simplicial_complex, topology)
from codecat.cli import main
from codecat.codes import _maximal, word_mask
from codecat.topology import (SimplicialComplex, f2_reduced_homology,
                              is_collapsible, link)

from helpers import (collapses_by_scan, cycle_code, free_pairs_by_scan, hollow_triangles,
                     link_by_maximal_candidates, obstruction_report_by_references,
                     random_codes, reduced_homology_by_ranks, tuple_word_key)


def complex_from(words, n):
    return SimplicialComplex.from_masks(n, [word_mask(w, n) for w in words])


TRIANGLE = complex_from([[1, 2, 3]], 3)
HOLLOW = complex_from([[1, 2], [2, 3], [1, 3]], 3)
SPHERE2 = complex_from([[1, 2, 3], [1, 2, 4], [1, 3, 4], [2, 3, 4]], 4)
# six-vertex triangulation of the real projective plane
RP2 = complex_from(
    [[1, 2, 4], [1, 2, 5], [1, 3, 4], [1, 3, 6], [1, 5, 6],
     [2, 3, 5], [2, 3, 6], [2, 4, 5], [3, 4, 6], [4, 5, 6]], 6)


def cone(k: SimplicialComplex) -> SimplicialComplex:
    apex = 1 << k.n
    return SimplicialComplex.from_masks(
        k.n + 1, [f | apex for f in k.facets] or [apex])


def dunce_hat():
    """Disk with boundary glued by the word a a a^-1, triangulated by
    subdividing a triangle; the construction checks itself (no degenerate
    or accidentally merged simplices), so the result really is the dunce
    hat: contractible but not collapsible."""
    s = 5
    tris = []
    for r in range(s):
        for c in range(r + 1):
            tris.append(((r, c), (r + 1, c), (r + 1, c + 1)))
    for r in range(1, s):
        for c in range(r):
            tris.append(((r, c), (r, c + 1), (r + 1, c + 1)))

    def split_edge(a, b):  # keep the corner-cutting edges from gluing
        mid = ("m", a, b)
        for t in [t for t in tris if a in t and b in t]:
            tris.remove(t)
            (x,) = [v for v in t if v not in (a, b)]
            tris.append((a, mid, x))
            tris.append((mid, b, x))

    split_edge((1, 0), (1, 1))
    split_edge((s - 1, 0), (s, 1))
    split_edge((s - 1, s - 1), (s, s - 1))

    ident = {(0, 0): "v0", (s, 0): "v0", (s, s): "v0"}
    for i in range(1, s):
        ident[(i, 0)] = f"e{i}"          # left edge, read top to bottom
        ident[(s, i)] = f"e{i}"          # bottom edge, read left to right
        ident[(s - i, s - i)] = f"e{i}"  # right edge, read bottom to top
    names = {}

    def lab(v):
        key = ident.get(v, v)
        if key not in names:
            names[key] = len(names) + 1
        return names[key]

    pre_edges = {frozenset(e) for t in tris for e in combinations(t, 2)}
    out = [tuple(sorted(lab(v) for v in t)) for t in tris]
    post_edges = {frozenset(lab(v) for v in e) for e in pre_edges}
    assert all(len(set(t)) == 3 for t in out)
    assert len(set(out)) == len(out)
    assert len(post_edges) == len(pre_edges) - 2 * s
    return SimplicialComplex.from_faces(len(names), out)


def test_complex_from_code_maximalizes():
    k = simplicial_complex(parse_code("{12,23,1,3,0}"))
    assert k.facets == {0b011, 0b110}
    assert k.dim() == 1


def test_face_masks_and_membership():
    assert TRIANGLE.face_masks() == frozenset(range(8))
    assert HOLLOW.face_masks() == frozenset(range(8)) - {0b111}
    assert TRIANGLE.has_face(0b101)
    assert not HOLLOW.has_face(0b111)


def test_degenerate_dimensions():
    void = SimplicialComplex.from_masks(2, [])
    just_empty = SimplicialComplex.from_masks(2, [0])
    assert void.dim() == -2
    assert just_empty.dim() == -1
    assert simplicial_complex(Code(2, [])).dim() == -2


def test_face_cap_refusal():
    big = complex_from([range(1, 22)], 21)  # 2^21 faces
    with pytest.raises(ResourceCapError):
        big.face_masks()
    assert len(big.face_masks(cap=1 << 21)) == 1 << 21


def test_a_facet_over_the_cap_is_refused_before_its_faces_are_listed():
    # every subset of a facet is a face, so a simplex on 21 to 64 vertices
    # is refused from its facet alone, not after 2**20 + 1 faces
    for n in (21, 64):
        k = SimplicialComplex(n, frozenset({(1 << n) - 1}))
        tracemalloc.start()
        try:
            with pytest.raises(ResourceCapError, match=r"^complex has more than 1048576 faces$"):
                k.face_masks()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20 and "_faces" not in k.__dict__
    assert len(TRIANGLE.face_masks(cap=8)) == 8  # 2**3 subsets fit a cap of 8
    with pytest.raises(ResourceCapError, match="more than 7 faces"):
        complex_from([[1, 2, 3]], 3).face_masks(cap=7)


@pytest.mark.parametrize("n", [-1, True, False, 2.0, "3", None])
def test_vertex_count_must_be_a_non_negative_int(n):
    for build in (lambda: SimplicialComplex.from_faces(n, [[]]),
                  lambda: SimplicialComplex.from_faces(n, [0]),
                  lambda: SimplicialComplex.from_masks(n, [0]),
                  lambda: SimplicialComplex(n, frozenset())):
        with pytest.raises(ValueError, match="vertex count must be a non-negative int"):
            build()


@pytest.mark.parametrize("facets", [frozenset({0b100}), frozenset({-1}), frozenset({True}),
                                    frozenset({(1, 2)}), frozenset({1.0}), [0b11], {0b11}])
def test_facets_must_be_a_frozenset_of_masks_on_the_vertices(facets):
    # a bit beyond n, a negative mask, a bool, a word that is no mask, and
    # facets that are not a frozenset (a list of them cannot be hashed)
    with pytest.raises(ValueError):
        SimplicialComplex(2, facets)
    assert SimplicialComplex(2, frozenset({0b11})).facet_words == (frozenset({1, 2}),)


def test_vertex_count_is_not_capped():
    k = SimplicialComplex.from_faces(70, [[70, 1]])
    assert k.n == 70 and k.has_face([70]) and k.dim() == 1
    assert SimplicialComplex.from_faces(0, [[]]).dim() == -1


def test_link_of_vertex_in_hollow_triangle():
    lk = link(HOLLOW, [2])
    assert lk.facets == {0b001, 0b100}  # two loose vertices


def test_link_of_edge_in_solid_triangle():
    lk = link(TRIANGLE, [1, 2])
    assert lk.facets == {0b100}


def test_link_requires_a_face():
    with pytest.raises(ValueError):
        link(HOLLOW, [1, 2, 3])


def test_links_match_the_maximal_candidates_and_refuse_non_faces():
    # link reads its facets off the complex without a maximality filter
    codes = ([hollow_triangles(j, v) for j in (1, 2, 3) for v in (False, True)]
             + [cycle_code(n) for n in (3, 4, 5, 8)])
    links = refused = 0
    for k in seeded_complexes() + [simplicial_complex(c) for c in codes]:
        faces = k.face_masks()
        for smask in range(1 << k.n):
            if smask in faces:
                assert link(k, smask) == link_by_maximal_candidates(k, smask)
                links += 1
            else:
                with pytest.raises(ValueError, match="is not a face of the complex"):
                    link(k, smask)
                refused += 1
    assert links > 2000 and refused > 2000


def test_collapsibility_goldens():
    assert is_collapsible(TRIANGLE)
    assert is_collapsible(complex_from([[1]], 1))
    assert is_collapsible(complex_from([[1, 2], [2, 3]], 3))  # a path
    assert not is_collapsible(HOLLOW)
    assert not is_collapsible(SPHERE2)
    assert not is_collapsible(complex_from([[1], [2]], 2))
    assert not is_collapsible(SimplicialComplex.from_masks(1, []))


# two triangles glued along an edge, plus a dangling edge
BACKTRACKING = complex_from([[1, 2, 3], [2, 3, 4], [4, 5]], 5)


def test_collapsibility_needs_backtracking_sometimes():
    # greedy collapses can strand the spare edge, full search still succeeds
    assert is_collapsible(BACKTRACKING)


def test_a_long_collapse_runs_under_the_default_recursion_limit():
    # the stacked 8-ball, facets {j..j+8} for j = 1..12, reaches a point
    # only after 1663 collapses, one search state deeper each
    ball = complex_from([range(j, j + 9) for j in range(1, 13)], 20)
    assert len(ball.face_masks()) == 3328
    assert sys.getrecursionlimit() <= 1000
    assert is_collapsible(ball)


def test_collapsibility_state_budget():
    with pytest.raises(ResourceCapError):
        is_collapsible(SPHERE2, cap=3)


def test_homology_goldens():
    assert f2_reduced_homology(complex_from([[1]], 1)) == {-1: 0, 0: 0}
    assert f2_reduced_homology(SimplicialComplex.from_masks(1, [0])) == {-1: 1}
    assert f2_reduced_homology(complex_from([[1], [2]], 2)) == {-1: 0, 0: 1}
    assert f2_reduced_homology(HOLLOW) == {-1: 0, 0: 0, 1: 1}
    assert f2_reduced_homology(SPHERE2) == {-1: 0, 0: 0, 1: 0, 2: 1}


def test_homology_of_projective_plane_mod_2():
    # the torsion class survives over GF(2): one class in each dimension
    assert f2_reduced_homology(RP2) == {-1: 0, 0: 0, 1: 1, 2: 1}


def test_dunce_hat_invariants():
    k = dunce_hat()
    faces = k.face_masks()
    chi = sum((-1) ** (f.bit_count() - 1) for f in faces if f)
    assert chi == 1
    assert not any(f2_reduced_homology(k).values())
    assert not is_collapsible(k)


def test_cones_are_trivial():
    for code in random_codes(25, 35, n=5, max_words=6):
        k = simplicial_complex(code)
        if k.dim() < -1:
            continue
        c = cone(k)
        assert is_collapsible(c)
        assert not any(f2_reduced_homology(c).values())


def test_euler_characteristic_consistency():
    # alternating face-count sum equals alternating Betti sum (both reduced)
    for code in random_codes(40, 81, n=5, max_words=8):
        k = simplicial_complex(code)
        if k.dim() < -1:
            continue
        faces = k.face_masks()
        chi = sum((-1) ** (f.bit_count() - 1) for f in faces)
        betti = f2_reduced_homology(k)
        assert chi == sum((-1) ** d * r for d, r in betti.items())


def test_collapsible_implies_trivial_homology():
    for code in random_codes(60, 53, n=5, max_words=7):
        k = simplicial_complex(code)
        if k.dim() < 0:
            continue
        if is_collapsible(k):
            assert not any(f2_reduced_homology(k).values())


def test_report_on_locally_good_code():
    rep = local_obstruction_report(parse_code("{3456,123,145,256,45,56,1,2,3,0}"))
    assert rep.locally_good == "yes"
    assert rep.locally_great is True
    assert len(rep.entries) == 18
    assert all(e.verdict == "no_obstruction" for e in rep.entries)


def test_report_flags_first_kind_obstruction():
    rep = local_obstruction_report(parse_code("{12,23,13}"))
    assert rep.locally_good == "no"
    assert rep.locally_great is False
    empt = next(e for e in rep.entries if e.sigma == frozenset())
    assert empt.verdict == "obstruction_first_kind"
    assert dict(empt.betti)[1] == 1
    assert empt.collapsible is False


def test_report_missing_empty_word_counts():
    # {} missing from the code is a missing face; its link is the whole
    # complex, here one edge, which collapses fine
    rep = local_obstruction_report(Code(2, [[1, 2], [1]]))
    sigmas = {tuple(sorted(e.sigma)) for e in rep.entries}
    assert () in sigmas and (2,) in sigmas
    assert rep.locally_good == "yes"


def test_report_second_kind_only():
    # a code whose one missing face links to the dunce hat: homology is
    # silent, the collapsibility search is not
    dh = dunce_hat()
    apex = 1 << dh.n
    coned = [f | apex for f in dh.face_masks()]
    words = set(coned) | dh.face_masks()
    words.discard(apex)  # {apex} is the single missing face
    code = Code(dh.n + 1, words)
    rep = local_obstruction_report(code)
    assert [e.verdict for e in rep.entries] == ["obstruction_second_kind_only"]
    assert rep.locally_good == "unknown"
    assert rep.locally_great is False


def test_report_entries_cover_every_missing_face():
    for code in random_codes(30, 27, n=4, max_words=6):
        k = simplicial_complex(code)
        if k.dim() < -1:
            continue
        rep = local_obstruction_report(code)
        want = {frozenset_from_mask(m) for m in k.face_masks() - code.mask_set}
        assert {e.sigma for e in rep.entries} == want


def frozenset_from_mask(m):
    return frozenset(i + 1 for i in range(m.bit_length()) if m >> i & 1)


def seeded_complexes():
    """Nonvoid complexes of seeded random codes on n = 0..8 neurons."""
    out = []
    for n in range(9):
        for code in random_codes(12, 900 + n, n=n, max_words=6):
            k = simplicial_complex(code)
            if k.facets:
                out.append(k)
    return out


def search_memo(faces, search, budget=300):
    """The result of a collapse search, None if it ran out of its state
    budget, and its memo in insertion order; a search that runs out leaves
    the states it finished."""
    memo = {}
    try:
        result = search(faces, memo, [budget])
    except ResourceCapError:
        result = None
    return result, list(memo.items())


def searched_complexes():
    dh = dunce_hat()
    return seeded_complexes() + [SPHERE2, RP2, dh, cone(dh), BACKTRACKING]


def test_free_pairs_match_the_scan_on_every_search_state():
    states = 0
    for k in searched_complexes():
        _, memo = search_memo(k.face_masks(), collapses_by_scan)
        for state, _ in memo:
            union = 0
            for f in state:
                union |= f
            assert topology._free_pairs(state, union) == [
                (tuple_word_key(t), t, f) for t, f in free_pairs_by_scan(state)]
        states += len(memo)
    assert states > 1000


def test_simplex_test_agrees_with_one_nonempty_facet_on_every_search_state(monkeypatch):
    # _is_simplex answers False from a face count that is no power of two
    # before it looks for the top face
    seen: dict[tuple[bool, bool], int] = {}
    states = []
    real = topology._is_simplex

    def recording(faces):
        states.append(faces)
        return real(faces)

    monkeypatch.setattr(topology, "_is_simplex", recording)
    for k in searched_complexes():
        states.clear()
        try:
            topology._collapses_to_point(k.face_masks(), {}, [300])
        except ResourceCapError:
            pass
        for state in states:
            facets = [f for f in state if not any(g != f and g & f == f for g in state)]
            want = len(facets) == 1 and facets[0] != 0
            assert real(state) is want
            key = (want, not len(state) & (len(state) - 1))
            seen[key] = seen.get(key, 0) + 1
    assert seen == {(True, True): 87, (False, True): 23, (False, False): 1476}


def test_collapse_search_visits_the_states_of_the_scan_search():
    # The library lists only the root's free pairs and updates them for
    # each child; the reference lists every state's from scratch.  Same
    # states in the same order, so equal memos and results at every budget,
    # and a search that finishes in s states refuses at s - 1 on both.
    states = finished = refused = 0
    for k in searched_complexes():
        faces = k.face_masks()
        for budget in (3, 10, 300):
            got = search_memo(faces, topology._collapses_to_point, budget)
            assert got == search_memo(faces, collapses_by_scan, budget)
        result, memo = got
        states += len(memo)
        if result is None:
            refused += 1
            continue
        finished += 1
        s = len(memo)  # one budget unit per state
        for budget in (s - 1, s):
            got = search_memo(faces, topology._collapses_to_point, budget)
            assert got == search_memo(faces, collapses_by_scan, budget)
            assert (got[0] is None) == (budget < s)
    assert states > 1000 and finished > 50 and refused > 0


def euler_characteristic(faces) -> int:
    return sum(1 if f.bit_count() & 1 else -1 for f in faces if f)


def test_collapsibility_matches_the_scan_search_or_its_euler_characteristic():
    # A collapse keeps the Euler characteristic, so a complex whose value is
    # not 1 (a point's) is answered False without the search, even where
    # the search would run out of its budget; every other verdict, and
    # every refusal, is the search's.
    verdicts = {}
    for k in searched_complexes():
        faces = k.face_masks()
        cap = max(300, len(faces))
        want, _ = search_memo(faces, collapses_by_scan, cap)
        try:
            got = is_collapsible(k, cap)
        except ResourceCapError:
            got = None
        chi = euler_characteristic(faces)
        if chi == 1:
            assert got == want
        else:
            assert got is False and want is not True
        key = (chi == 1, want)
        verdicts[key] = verdicts.get(key, 0) + 1
    assert verdicts[True, True] > 50 and verdicts[True, False] > 0
    assert verdicts[False, False] > 10 and verdicts[False, None] > 0


def test_nonzero_homology_needs_no_collapse_search():
    # reduced H2 = 1 and H1 = 1: Euler characteristics 2 and 0; the search
    # used to exhaust a cap of 20000 states on each before it was refused
    for k, chi in ((SimplicialComplex(8, frozenset({27, 29, 175, 206, 246})), 2),
                   (SimplicialComplex(7, frozenset({13, 74, 103, 120})), 0)):
        assert euler_characteristic(k.face_masks()) == chi
        assert is_collapsible(k, cap=1000) is False
        with pytest.raises(ResourceCapError):
            topology._collapses_to_point(k.face_masks(), {}, [1000])


def test_homology_matches_ranks_on_complexes_and_cones():
    ks = seeded_complexes() + [SPHERE2, RP2, dunce_hat(),
                               SimplicialComplex.from_masks(1, [0])]
    for k in ks:
        assert f2_reduced_homology(k) == reduced_homology_by_ranks(k)
        c = cone(k)
        assert f2_reduced_homology(c) == reduced_homology_by_ranks(c)
    # {0} shares no vertex, so it is no cone; a lone vertex is one
    assert f2_reduced_homology(SimplicialComplex.from_masks(1, [0])) == {-1: 1}
    assert f2_reduced_homology(complex_from([[1]], 1)) == {-1: 0, 0: 0}


def test_report_matches_the_reference_report():
    # the reference sends every link, a simplex too, through ranks and a
    # collapse search; {12,23,13} has no simplex link, and one word on n
    # neurons has a simplex for every link
    rng = random.Random(913)
    codes = [parse_code("{12,23,13}"), Code(10, [(1 << 10) - 1])]
    for _ in range(150):
        n = rng.randint(0, 8)
        codes.append(Code(n, rng.sample(range(1 << n), rng.randint(1, min(10, 1 << n)))))
    for code in codes:
        assert local_obstruction_report(code) == obstruction_report_by_references(code)


def test_simplex_links_list_no_faces(monkeypatch):
    # one word on 13 neurons: 8191 missing faces, each with a simplex for a
    # link, whose entry is built without homology or a collapse search and
    # matches what both give (the rank reference takes seconds here)
    code = Code(13, [(1 << 13) - 1])
    refuse = mock.Mock(side_effect=AssertionError("a simplex link was searched"))
    with monkeypatch.context() as m:
        m.setattr(topology, "f2_reduced_homology", refuse)
        m.setattr(topology, "is_collapsible", refuse)
        report = local_obstruction_report(code)
    assert len(report.entries) == 8191
    assert (report.locally_good, report.locally_great) == ("yes", True)
    k = simplicial_complex(code)
    for e in report.entries:
        lk = link(k, e.sigma)
        assert e.betti == tuple(sorted(f2_reduced_homology(lk).items()))
        assert e.collapsible is is_collapsible(lk) is True
        assert e.verdict == "no_obstruction"


def test_cone_shortcut_keeps_the_face_cap(capsys):
    simplex = complex_from([range(1, 22)], 21)  # a cone with 2^21 faces
    with pytest.raises(ResourceCapError):
        f2_reduced_homology(simplex)
    rc = main(["local-obs", str([list(range(1, 23))])])
    out = capsys.readouterr()
    assert rc == 3 and out.out == ""
    assert out.err.startswith("error:") and len(out.err.splitlines()) == 1


def test_faces_are_listed_once_and_every_call_keeps_its_cap():
    k = complex_from([[1, 2, 3], [2, 3, 4]], 4)  # 12 faces
    with pytest.raises(ResourceCapError):
        k.face_masks(cap=11)  # refused before the list is complete
    faces = k.face_masks()
    assert len(faces) == 12 and k.face_masks(cap=12) is faces
    with pytest.raises(ResourceCapError, match="more than 11 faces"):
        k.face_masks(cap=11)
    assert f2_reduced_homology(k) == {-1: 0, 0: 0, 1: 0, 2: 0} and is_collapsible(k)
    assert k.face_masks() is faces
    with pytest.raises(ResourceCapError):
        f2_reduced_homology(k, cap=11)
    with pytest.raises(ResourceCapError):
        is_collapsible(k, cap=11)
    # the list is a cache, not part of the complex's value
    assert k == complex_from([[1, 2, 3], [2, 3, 4]], 4) and "_faces" not in repr(k)


def searched_links(monkeypatch, code, cap):
    """The report of code under cap, and the facets of every link whose
    collapse search, topology._collapses_to_point, it ran."""
    searched = []
    real = topology._collapses_to_point

    def recording(faces, memo, budget):
        searched.append(frozenset(_maximal(faces)))
        return real(faces, memo, budget)

    with monkeypatch.context() as m:
        m.setattr(topology, "_collapses_to_point", recording)
        return local_obstruction_report(code, cap), searched


def test_small_cone_links_skip_the_search(monkeypatch):
    # {123,234}: the link of {2} is the path 1-3-4, a cone on 3 with 6
    # faces, so a cap of 2**6 skips its search and 2**6 - 1 runs it; the
    # link of {} is the whole complex, a cone with 12 faces, searched both
    # times
    code = Code(4, [0b0111, 0b1110])
    path = frozenset({0b0101, 0b1100})
    skipped, searched_small = searched_links(monkeypatch, code, 64)
    ran, searched_tight = searched_links(monkeypatch, code, 63)
    assert path not in searched_small and path in searched_tight
    assert frozenset({0b0111, 0b1110}) in searched_small
    assert skipped.entries == ran.entries
    assert skipped == ran == obstruction_report_by_references(code)
    entry = next(e for e in ran.entries if e.sigma == {2})
    assert (entry.collapsible, entry.verdict) == (True, "no_obstruction")


def test_cone_shortcut_matches_the_search_on_seeded_codes(monkeypatch):
    # every report equals the reference, which searches every link; count
    # the cone links the shortcut answered, so the check is not vacuous
    rng = random.Random(1719)
    skipped = 0
    for _ in range(120):
        n = rng.randint(1, 8)
        code = Code(n, rng.sample(range(1 << n), rng.randint(1, min(14, 1 << n))))
        report, searched = searched_links(monkeypatch, code, topology.DEFAULT_FACE_CAP)
        assert report == obstruction_report_by_references(code)
        k = simplicial_complex(code)
        cones = [e for e in report.entries if e.collapsible and len(e.link_facets) > 1
                 and link(k, e.sigma).facets not in searched]
        skipped += len(cones)
    assert skipped > 100


REPORT_CAPS = (None, 4, 16, 40, 100, 1000, 1 << 20)


def hat_with_leaves(leaves: int) -> SimplicialComplex:
    """The dunce hat with `leaves` edges hanging from its vertex 1: acyclic
    and not collapsible, and the collapse search sheds the edges in each of
    2**leaves ways before it gives up."""
    dh = dunce_hat()
    hanging = {1 | 1 << (dh.n + i) for i in range(leaves)}
    return SimplicialComplex.from_masks(dh.n + leaves, set(dh.facets) | hanging)


def digested_codes() -> list[Code]:
    """Seeded codes on n = 0..9 neurons, and codes on the dunce hat with and
    without hanging edges, whose facets alone or whose nonempty faces are
    the words."""
    rng = random.Random(2719)
    codes = [Code(n, rng.sample(range(1 << n), rng.randint(1, min(12, 1 << n))))
             for n in range(10) for _ in range(30)]
    for k in (dunce_hat(), hat_with_leaves(12)):
        codes += [Code(k.n, k.facets), Code(k.n, k.face_masks() - {0})]
    return codes


def test_reports_under_every_cap_match_their_pinned_digest():
    # every entry, locally_good, locally_great and refusal message of the
    # reports under seven caps, hashed; the counts show that each verdict
    # and refusals are reached
    h = hashlib.sha256()
    seen: dict[str, int] = {}
    for code in digested_codes():
        for cap in REPORT_CAPS:
            try:
                r = local_obstruction_report(code, cap)
            except ResourceCapError as e:
                h.update(f"refused: {e}\n".encode())
                seen["refused"] = seen.get("refused", 0) + 1
                continue
            h.update(repr((r.entries, r.locally_good, r.locally_great)).encode() + b"\n")
            for e in r.entries:
                seen[e.verdict] = seen.get(e.verdict, 0) + 1
    assert seen == {"no_obstruction": 32380, "obstruction_first_kind": 3304,
                    "obstruction_second_kind_only": 12, "contractibility_unknown": 2,
                    "refused": 451}
    assert h.hexdigest() == "c22cf70abbdf1e703eea7e5c8cc055068aa292bd38daa55a692b6764a1b778f7"
