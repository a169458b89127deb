"""Simplicial machinery for local obstructions.

The simplicial complex of a code is the downward closure of its words; a
missing face is a face of the complex that is not a word.  For each missing
face we inspect the link: nonzero reduced GF(2) homology certifies a
non-contractible link (an obstruction of the first kind), collapsibility
certifies a contractible one, and a collapsibility failure with trivial
homology is an obstruction of the second kind with contractibility left
open.  A code whose missing-face links are all collapsible is locally great.

Every state of the collapse search is downward closed, so a face is free
exactly when just one of its one-vertex covers is a face, and free faces are
found from those lookups alone.  Only the first state lists them all: a
collapse changes the covers of the codimension-1 faces of the removed pair
alone, so each later state rechecks just those faces against its parent's
sorted list.  The list is the one a full listing gives, and it is built
after the state's memo lookup and budget charge, so the search visits the
same states in the same order and refuses at the same point.

The facets of the link of sigma are read off the complex's facets: they are
the F - sigma over the facets F containing sigma, and these form an
antichain with no maximality pass, since F1 - sigma within F2 - sigma gives
F1 within F2, so F1 = F2.  A complex whose facets share a vertex is a cone,
hence contractible, so its homology needs no boundary rank.  A link with one
nonempty facet is a simplex, and its entry is built from that facet alone,
without homology, a collapse search or a face list.  A complex lists its
faces once and keeps them, so a link's homology and its collapse search
share one list.  A cone link collapses to its apex, and one with F faces
where 2**F is within the cap is recorded collapsible without the search,
which visits at most 2**F states and so could not refuse it.  A downward-
closed state on j vertices is a simplex only with 2**j faces, so a state
whose face count is not a power of two is no simplex, found without looking
for its top face.
"""

from __future__ import annotations

from bisect import insort
from collections.abc import Iterable
from dataclasses import dataclass

from .codes import Code, _display_key, _word_key, mask_members, word_mask
from .exceptions import DEFAULT_FACE_CAP, ResourceCapError, _check_cap
from .trunks import _intersect_all


@dataclass(frozen=True)
class SimplicialComplex:
    """An abstract simplicial complex held by its facets (maximal faces).

    Vertices are 1..n.  facets is an antichain of bitmasks; {0} encodes the
    complex whose only face is the empty face, and an empty facet set is the
    void complex with no faces at all.
    """

    n: int
    facets: frozenset[int]

    def __post_init__(self):
        _check_vertex_count(self.n)

    @classmethod
    def from_masks(cls, n: int, face_masks: Iterable[int]) -> "SimplicialComplex":
        faces = set(face_masks)
        maximal = {f for f in faces
                   if not any(o != f and o & f == f for o in faces)}
        return cls(n, frozenset(maximal))

    @classmethod
    def from_faces(cls, n: int, faces: Iterable[Iterable[int]]) -> "SimplicialComplex":
        _check_vertex_count(n)  # before word_mask reads any face against n
        return cls.from_masks(n, (word_mask(f, n) for f in faces))

    @property
    def facet_words(self) -> tuple[frozenset[int], ...]:
        ordered = sorted(self.facets, key=_display_key)
        return tuple(frozenset(mask_members(m)) for m in ordered)

    def face_masks(self, cap: int | None = DEFAULT_FACE_CAP) -> frozenset[int]:
        """Every face, the empty face included (for a nonvoid complex).

        Listed on the first call that the cap lets finish and kept on the
        complex; every call refuses when there are more than its own cap,
        and one facet with more subsets than the cap, all of them faces, is
        refused before they are listed.  None removes the cap."""
        _check_cap(cap, "face cap")
        limit = float("inf") if cap is None else cap
        faces = self.__dict__.get("_faces")
        if faces is None:
            found: set[int] = set()
            for f in self.facets:
                if 1 << f.bit_count() > limit:  # each subset of f is a face
                    raise ResourceCapError(f"complex has more than {cap} faces")
                sub = f
                while True:
                    found.add(sub)
                    if len(found) > limit:
                        raise ResourceCapError(
                            f"complex has more than {cap} faces")
                    if sub == 0:
                        break
                    sub = (sub - 1) & f
            faces = frozenset(found)
            object.__setattr__(self, "_faces", faces)  # a cache, not a field
        elif len(faces) > limit:
            raise ResourceCapError(f"complex has more than {cap} faces")
        return faces

    def has_face(self, sigma: Iterable[int]) -> bool:
        smask = word_mask(sigma, self.n)
        return any(f & smask == smask for f in self.facets)

    def dim(self) -> int:
        """Dimension; -1 for the empty-face-only complex, -2 for the void one."""
        if not self.facets:
            return -2
        return max(f.bit_count() for f in self.facets) - 1


def _check_vertex_count(n) -> None:
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        raise ValueError(f"vertex count must be a non-negative int, got {n!r}")


def simplicial_complex(code: Code) -> SimplicialComplex:
    """Downward closure of the codewords; the facets are the maximal words."""
    return SimplicialComplex.from_masks(code.n, code.mask_set)


def link(k: SimplicialComplex, sigma: Iterable[int]) -> SimplicialComplex:
    """Faces disjoint from sigma whose union with sigma is a face.

    The facets are the F - sigma over facets F containing sigma.
    link(k, empty) is k itself.
    """
    smask = word_mask(sigma, k.n)
    if not k.has_face(smask):
        raise ValueError(f"{set(mask_members(smask))} is not a face of the complex")
    return SimplicialComplex(k.n, _link_facets(k, smask))


def _link_facets(k: SimplicialComplex, smask: int) -> frozenset[int]:
    """The facets of the link of the face smask, an antichain as they stand
    (see the module docstring)."""
    return frozenset(f & ~smask for f in k.facets if f & smask == smask)


def _is_simplex(faces: frozenset[int]) -> bool:
    # downward closed on j vertices, a simplex has exactly 2**j faces
    if len(faces) & (len(faces) - 1):
        return False
    top = max(faces, key=int.bit_count)
    return len(faces) == 1 << top.bit_count() and top.bit_count() >= 1


def _free_pairs(faces: frozenset[int], union: int) -> list[tuple[tuple, int, int]]:
    """(_word_key(tau), tau, F) with tau nonempty and properly contained in
    exactly the one face F; ordered lowest dimension first, then
    lexicographically.  union holds every vertex of the faces.

    faces is downward closed, so every proper coface of tau contains a
    one-vertex cover tau | b that is a face.  Hence tau is free exactly when
    just one such cover is a face: that cover F then has no cover F | c of its
    own, which would make tau | c a second one.  Only the one-vertex covers,
    over the bits of union, are looked up.
    """
    out = []
    for tau in faces:
        if tau:
            top = _only_cover(tau, faces, union)
            if top:
                out.append((_word_key(tau), tau, top))
    out.sort()
    return out


def _only_cover(tau: int, faces: frozenset[int], union: int) -> int:
    """tau | b if that is the only one-vertex cover of tau among faces, b a
    bit of union; else 0."""
    top = 0
    rest = union & ~tau
    while rest:
        b = rest & -rest
        rest ^= b
        if tau | b in faces:
            if top:
                return 0  # a second cover: tau is not free
            top = tau | b
    return top


def _collapses_to_point(faces: frozenset[int], memo: dict[frozenset[int], bool],
                        budget: list[int]) -> bool:
    """Can the downward-closed faces collapse to a single vertex?

    Depth-first over the free pairs of each state in _free_pairs order,
    memoized on the face set; every state not in the memo costs one unit of
    budget[0], and ResourceCapError is raised once it runs out.  Only the
    root lists its free pairs with _free_pairs.  A child's list is its
    parent's, updated: removing the pair (tau, F) takes a one-vertex cover
    only from the codimension-1 faces of tau and of F, so only those can
    change their free status.  None of them was free with a top other than
    F (tau would be a second cover of the others), and F, a facet, is the
    top of no pair but theirs; so the child keeps every pair whose top is
    not F, rechecks just those faces and inserts each that is now free in
    _word_key order.  The order is total on faces, so the list is exactly
    the one _free_pairs would list.  It is built only after the child's
    memo lookup and budget decrement, so the states visited, their order,
    the memo and the refusal point are those of a search that lists every
    state's pairs from scratch.  The path is a list, not Python recursion,
    so a long collapse sequence cannot exhaust the interpreter's stack.
    """
    union = 0
    for f in faces:
        union |= f
    path: list[list] = []  # [state, its free pairs, index of the next pair to try]

    def enter(faces: frozenset[int], pairs: list | None, tau: int, top: int) -> bool | None:
        # The memo's or a simplex's verdict on faces, or None once faces is
        # pushed on the path.  pairs: the parent's free pairs as
        # (_word_key(tau), tau, F), None at the root; it removed (tau, top).
        hit = memo.get(faces)
        if hit is not None:
            return hit
        budget[0] -= 1
        if budget[0] < 0:
            raise ResourceCapError("collapsibility search exceeded its state "
                                   "budget; raise the face cap to keep going")
        if _is_simplex(faces):
            memo[faces] = True  # any simplex collapses to a vertex
            return True
        if pairs is None:
            pairs = _free_pairs(faces, union)
        else:
            pairs = [p for p in pairs if p[2] != top]
            rest = tau
            while rest:
                v = rest & -rest
                rest ^= v
                for sigma in (tau ^ v, top ^ v):
                    cover = sigma and _only_cover(sigma, faces, union)
                    if cover:
                        insort(pairs, (_word_key(sigma), sigma, cover))
        path.append([faces, pairs, 0])
        return None

    verdict = enter(faces, None, 0, 0)
    while path:
        state, pairs, i = frame = path[-1]
        if verdict or i == len(pairs):
            # A child collapses, or every child has failed.
            path.pop()
            verdict = memo[state] = bool(verdict)
            continue
        _, t, f = pairs[i]
        frame[2] = i + 1
        verdict = enter(state - {t, f}, pairs, t, f)
    return verdict


def is_collapsible(k: SimplicialComplex, cap: int | None = DEFAULT_FACE_CAP) -> bool:
    """Can free-face removals shrink the complex to a single vertex?

    Exhaustive backtracking over collapse orders (greedy collapsing can dead
    end), memoized on the intermediate face sets.  A collapse removes one
    face of odd and one of even size, so it keeps the Euler characteristic
    of the nonempty faces, and a point has 1: a complex whose faces, the
    empty one included, are not half of odd size is answered False without
    the search.  The cap bounds both the face count and the number of
    search states visited; None removes it.
    """
    _check_cap(cap, "face cap")
    if not k.facets:
        return False
    faces = k.face_masks(cap)
    if 2 * sum(f.bit_count() & 1 for f in faces) != len(faces):
        return False
    return _collapses_to_point(faces, {}, [float("inf") if cap is None else cap])


def _gf2_rank(rows: list[int]) -> int:
    pivots: dict[int, int] = {}
    rank = 0
    for row in rows:
        while row:
            hb = row.bit_length() - 1
            p = pivots.get(hb)
            if p is None:
                pivots[hb] = row
                rank += 1
                break
            row ^= p
    return rank


def f2_reduced_homology(k: SimplicialComplex,
                        cap: int | None = DEFAULT_FACE_CAP) -> dict[int, int]:
    """Reduced Betti numbers over GF(2), by boundary-matrix ranks.

    Keys run from dimension -1 (the augmentation; rank 1 exactly for the
    empty-face-only complex) to the dimension of the complex.  The void
    complex gives {}.  If the facets share a vertex the complex is a cone,
    which is contractible, so every reduced Betti number is 0 and no rank is
    taken; the faces are still listed first, so the face cap holds for
    cones too.  A rank does not depend on row or column order, so the faces
    of each dimension are indexed in the order they come.  The face cap
    bounds the face count; None removes it.
    """
    _check_cap(cap, "face cap")
    if not k.facets:
        return {}
    faces = k.face_masks(cap)
    if _intersect_all(k.facets):
        return dict.fromkeys(range(-1, k.dim() + 1), 0)
    by_dim: dict[int, list[int]] = {}
    for f in faces:
        by_dim.setdefault(f.bit_count() - 1, []).append(f)
    top = max(by_dim)
    ranks: dict[int, int] = {}
    prev = {0: 0}  # index of the faces one dimension down
    for d in range(0, top + 1):
        rows = []
        for f in by_dim[d]:
            row = 0
            w = f
            while w:
                b = w & -w
                w ^= b
                row |= 1 << prev[f ^ b]
            rows.append(row)
        ranks[d] = _gf2_rank(rows)
        prev = {f: i for i, f in enumerate(by_dim[d])}
    betti: dict[int, int] = {}
    for d in range(-1, top + 1):
        betti[d] = len(by_dim[d]) - ranks.get(d, 0) - ranks.get(d + 1, 0)
    return betti


@dataclass(frozen=True)
class ObstructionEntry:
    sigma: frozenset[int]
    link_facets: tuple[frozenset[int], ...]
    betti: tuple[tuple[int, int], ...]  # (dimension, reduced rank) pairs
    collapsible: bool | None  # None when the face cap refused the search
    verdict: str  # no_obstruction | obstruction_first_kind |
                  # obstruction_second_kind_only | contractibility_unknown


@dataclass(frozen=True)
class ObstructionReport:
    code: Code
    entries: tuple[ObstructionEntry, ...]
    locally_good: str  # "yes" | "no" | "unknown"
    locally_great: bool | None


def local_obstruction_report(code: Code,
                             cap: int | None = DEFAULT_FACE_CAP) -> ObstructionReport:
    """Classify the link of every missing face of the code's complex.

    The empty face counts as missing when the empty word is absent.  A code
    equal to its own complex has no missing faces and is trivially locally
    great.  The face cap bounds each face list and each collapse search;
    None removes it.
    """
    _check_cap(cap, "face cap")
    k = simplicial_complex(code)
    missing = sorted(k.face_masks(cap) - code.mask_set, key=_word_key)
    entries = []
    for smask in missing:
        sigma = frozenset(mask_members(smask))
        facets = _link_facets(k, smask)  # smask is a face: no re-check
        if len(facets) == 1 and 0 not in facets:
            # A link with one nonempty facet T is a simplex: acyclic and
            # collapsible, so none of its faces is listed.  No cap could
            # refuse it, as it has no more faces than k, whose faces were
            # listed within the cap.  A lone empty facet would be {empty},
            # with a reduced H_-1; only a facet of k, which is a word, has
            # that link.
            (top,) = facets
            entries.append(ObstructionEntry(
                sigma, (frozenset(mask_members(top)),),
                tuple((d, 0) for d in range(-1, top.bit_count())),
                True, "no_obstruction"))
            continue
        lk = SimplicialComplex(k.n, facets)
        betti = f2_reduced_homology(lk, cap)
        if any(betti.values()):
            # nonzero homology rules collapsibility out
            coll, verdict = False, "obstruction_first_kind"
        else:
            try:
                # A cone collapses to its apex, and with 2**F <= cap the
                # search, at most 2**F states, could not have refused.
                coll = ((_intersect_all(facets)
                         and (cap is None or 1 << len(lk.face_masks(cap)) <= cap))
                        or is_collapsible(lk, cap))
            except ResourceCapError:
                coll = None
            verdict = {True: "no_obstruction", None: "contractibility_unknown",
                       False: "obstruction_second_kind_only"}[coll]
        entries.append(ObstructionEntry(
            sigma=sigma,
            link_facets=lk.facet_words,
            betti=tuple(sorted(betti.items())),
            collapsible=coll,
            verdict=verdict))
    verdicts = [e.verdict for e in entries]
    if any(v == "obstruction_first_kind" for v in verdicts):
        good = "no"
    elif all(v == "no_obstruction" for v in verdicts):
        good = "yes"
    else:
        good = "unknown"
    if all(e.collapsible for e in entries):
        great: bool | None = True
    elif any(e.collapsible is False for e in entries):
        great = False
    else:
        great = None
    return ObstructionReport(code, tuple(entries), good, great)
