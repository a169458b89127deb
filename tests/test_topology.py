import random
from itertools import combinations
from unittest import mock

import pytest

from codecat import (Code, ResourceCapError, parse_code,
                     local_obstruction_report, simplicial_complex, topology)
from codecat.cli import main
from codecat.codes import word_mask
from codecat.topology import (SimplicialComplex, f2_reduced_homology,
                              is_collapsible, link)

from helpers import (free_pairs_by_scan, obstruction_report_by_references,
                     random_codes, reduced_homology_by_ranks)


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


@pytest.mark.parametrize("n", [-1, True, False, 2.0, "3", None])
def test_vertex_count_must_be_a_non_negative_int(n):
    for build in (lambda: SimplicialComplex.from_faces(n, [[]]),
                  lambda: SimplicialComplex.from_faces(n, [0]),
                  lambda: SimplicialComplex.from_masks(n, [0]),
                  lambda: SimplicialComplex(n, frozenset())):
        with pytest.raises(ValueError, match="vertex count must be a non-negative int"):
            build()


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


def search_memo(faces, free_pairs, budget=300):
    """The memo of a collapse search run with free_pairs, in insertion order;
    a search that runs out of its state budget leaves the states it finished."""
    memo = {}
    with mock.patch.object(topology, "_free_pairs", free_pairs):
        try:
            topology._collapses_to_point(faces, memo, [budget])
        except ResourceCapError:
            pass
    return list(memo.items())


def test_free_pairs_match_the_scan_on_every_search_state():
    dh = dunce_hat()
    ks = seeded_complexes() + [SPHERE2, RP2, dh, cone(dh), BACKTRACKING]
    states = 0
    for k in ks:
        faces = k.face_masks()
        memo = search_memo(faces, topology._free_pairs)
        assert memo == search_memo(faces, free_pairs_by_scan)
        for state, _ in memo:
            assert topology._free_pairs(state) == free_pairs_by_scan(state)
        states += len(memo)
    assert states > 1000


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
    rng = random.Random(913)
    for _ in range(150):
        n = rng.randint(0, 8)
        code = Code(n, rng.sample(range(1 << n), rng.randint(1, min(10, 1 << n))))
        assert local_obstruction_report(code) == obstruction_report_by_references(code)


def test_cone_shortcut_keeps_the_face_cap(capsys):
    simplex = complex_from([range(1, 22)], 21)  # a cone with 2^21 faces
    with pytest.raises(ResourceCapError):
        f2_reduced_homology(simplex)
    rc = main(["local-obs", str([list(range(1, 23))])])
    out = capsys.readouterr()
    assert rc == 3 and out.out == ""
    assert out.err.startswith("error:") and len(out.err.splitlines()) == 1
