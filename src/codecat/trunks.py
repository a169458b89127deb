"""Trunks of a code: the sets Tk(sigma) = {c in C : sigma is a subset of c}.

Trunks are the structure morphisms must preserve under preimage.  The family
of all trunks of a code is closed under intersection and is generated by the
simple trunks Tk(i) together with the whole code Tk(empty), since
Tk(sigma) is the intersection of the Tk(i) for i in sigma; the empty set is a
trunk of every code.  So the family is built as the intersection closure of
those n + 1 sets, held as bitmasks of indices into code.masks, not of the |C|
codewords.  A nonempty trunk is determined by its generator, the
intersection of its members, which is the set of neurons whose simple trunks
contain it.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field

from .codes import (Code, _display_key, _fmt_masks, _fmt_word, _word_key, mask_members,
                    word_mask)
from .exceptions import ResourceCapError, _check_cap


@dataclass(frozen=True)
class Trunk:
    """A trunk as a value: its member codewords plus the canonical generator.

    The generator is the intersection of all members, which is the unique
    maximal sigma with Tk(sigma) equal to this member set.  The empty trunk
    has no generator.
    """

    member_masks: frozenset[int]
    generator_mask: int | None = field(default=None)

    def __post_init__(self):
        if self.member_masks:
            gen = _intersect_all(self.member_masks)
            if self.generator_mask is None:
                object.__setattr__(self, "generator_mask", gen)
            elif self.generator_mask != gen:
                raise ValueError("generator is not the intersection of the members")
        elif self.generator_mask is not None:
            raise ValueError("the empty trunk has no generator")

    @property
    def members(self) -> frozenset[frozenset[int]]:
        return frozenset(frozenset(mask_members(m)) for m in self.member_masks)

    @property
    def generator(self) -> frozenset[int] | None:
        if self.generator_mask is None:
            return None
        return frozenset(mask_members(self.generator_mask))

    def __len__(self) -> int:
        return len(self.member_masks)

    def __contains__(self, word) -> bool:
        return word_mask(word) in self.member_masks

    def sort_key(self):
        return (len(self.member_masks), sorted(map(_word_key, self.member_masks)))

    def __repr__(self) -> str:
        if not self.member_masks:
            return "Trunk(empty)"
        gen = _fmt_word(mask_members(self.generator_mask)) if self.generator_mask else "{}"
        return f"Trunk(Tk({gen}) = {_fmt_masks(self.member_masks)})"


def _intersect_all(masks: Iterable[int]) -> int:
    it = iter(masks)
    acc = next(it)
    for m in it:
        acc &= m
    return acc


def trunk_to_obj(trunk: Trunk) -> dict:
    gen = None if trunk.generator_mask is None else list(mask_members(trunk.generator_mask))
    members = [list(mask_members(m)) for m in sorted(trunk.member_masks, key=_display_key)]
    return {"generator": gen, "members": members}


def trunk_of(code: Code, sigma: Iterable[int]) -> Trunk:
    """Tk_C(sigma): all codewords containing sigma.  sigma must fit in 1..n."""
    smask = word_mask(sigma, code.n)
    members = frozenset(m for m in code.mask_set if m & smask == smask)
    if not members:
        return Trunk(frozenset())
    return Trunk(members)


def simple_trunks(code: Code) -> list[tuple[int, Trunk]]:
    """[(i, Tk(i)) for each neuron i], including empty trunks of trivial neurons."""
    return [(i, trunk_of(code, 1 << (i - 1))) for i in range(1, code.n + 1)]


def _intersection_closure(masks: Iterable[int], cap: int | None = None) -> set[int]:
    """Every intersection of a nonempty subset of masks.

    After each mask the set holds the intersections of the nonempty subsets
    of the masks seen so far, so one pass costs O(|closure| * |masks|).  The
    masks are trunks, and a 0 in the set is the empty trunk, counted once.
    The set only grows, so it raises ResourceCapError once it and the empty
    trunk exceed cap.
    """
    limit = float("inf") if cap is None else cap
    closed: set[int] = set()
    for w in masks:
        closed |= {g & w for g in closed}
        closed.add(w)
        if len(closed) + (0 not in closed) > limit:
            break
    if len(closed) + (0 not in closed) > limit:
        raise ResourceCapError(f"code has more trunks than the cap of {cap}; "
                               "raise max_trunks to enumerate anyway")
    return closed


def _simple_index_masks(code: Code) -> list[int]:
    """Tk(i) for i = 1..n as bitmasks of indices into code.masks: bit k is
    set iff code.masks[k] holds neuron i.  Each is read from a base-2 string,
    so the build is O(n * |C|); summing 1 << k into a big int is quadratic."""
    last_first = code.masks[::-1]
    return [int("0" + "".join(["1" if w >> i & 1 else "0" for w in last_first]), 2)
            for i in range(code.n)]


def _trunk_family_masksets(code: Code, cap: int | None = None) -> dict[int, int]:
    """The trunk lattice: every nonempty trunk, as {generator mask:
    Tk(generator)} with the trunk's member set a bitmask of indices into
    code.masks.  cap bounds the trunk count, the empty trunk included, as in
    _intersection_closure.

    Every nonempty trunk Tk(g) is the whole code intersected with the simple
    trunks Tk(i), i in g, so the trunks are exactly the intersection closure
    of those n + 1 sets (the attribute extents of formal concept analysis).
    That costs O(|L| * n) for a lattice L, against O(|L| * |C|) for the
    closure of the codewords.  The generator of a trunk is the largest g with
    Tk(g) equal to it: the neurons whose simple trunks contain it.
    """
    simple = _simple_index_masks(code)
    closed = _intersection_closure(simple + [(1 << len(code.masks)) - 1], cap)
    closed.discard(0)
    return {sum(1 << i for i, s in enumerate(simple) if s & t == t): t for t in closed}


def _bit_indices(t: int) -> list[int]:
    """The positions of the set bits of t, ascending."""
    bits = bin(t)[:1:-1]
    out = []
    k = bits.find("1")
    while k >= 0:
        out.append(k)
        k = bits.find("1", k + 1)
    return out


def _index_members(words: tuple[int, ...], t: int) -> frozenset[int]:
    """The word masks named by a bitmask t of indices into words."""
    return frozenset(words[k] for k in _bit_indices(t))


def all_trunks(code: Code, max_trunks: int | None = None) -> list[Trunk]:
    """Every distinct trunk of the code, the whole code and the empty trunk
    included, in a deterministic (size, member list) order: Trunk.sort_key.

    Raises ResourceCapError if the code has more than max_trunks trunks.
    code.masks is in word order, so a trunk's ascending word indices sort
    like its sorted member words.
    """
    _check_cap(max_trunks, "max_trunks")
    words = code.masks
    indexed = [(_bit_indices(t), g)
               for g, t in _trunk_family_masksets(code, max_trunks).items()]
    indexed.sort(key=lambda e: (len(e[0]), e[0]))
    return [Trunk(frozenset())] + [Trunk(frozenset(words[k] for k in idx), g)
                                   for idx, g in indexed]


def is_trunk(code: Code, subset: Iterable) -> bool:
    """Is this set of codewords empty or equal to Tk(sigma) for some sigma?

    Every element of subset must be a word of the code.
    """
    masks = set()
    for w in subset:
        mask = word_mask(w)
        if mask not in code.mask_set:
            raise ValueError(
                f"{set(mask_members(mask))} is not a codeword of the code")
        masks.add(mask)
    if not masks:
        return True
    gen = _intersect_all(masks)
    return all(m & gen != gen for m in code.mask_set - masks)


def irreducible_trunks(code: Code) -> list[Trunk]:
    """Nonempty proper trunks that are not intersections of strictly larger
    trunks, ordered by generator (lexicographic on sorted members).

    No lattice is needed.  A trunk Tk(g) is the intersection of the simple
    trunks Tk(i), i in g; if each of them strictly contains Tk(g), it is an
    intersection of strictly larger trunks.  So every irreducible trunk is a
    simple trunk Tk(i).  The trunks strictly containing Tk(i) are
    intersections of simple trunks strictly containing it, or the whole code,
    so Tk(i) is irreducible iff the whole code intersected with those simple
    trunks is not Tk(i).  That is O(n^2) tests on word-index masks.
    """
    words = code.masks
    full = (1 << len(words)) - 1
    simple = _simple_index_masks(code)
    found = set()
    for t in simple:
        if not t or t == full or t in found:
            continue
        meet = full
        for s in simple:
            if s & t == t and s != t:
                meet &= s
        if meet != t:
            found.add(t)
    out = [Trunk(_index_members(words, t)) for t in found]
    out.sort(key=lambda tr: mask_members(tr.generator_mask))
    return out
