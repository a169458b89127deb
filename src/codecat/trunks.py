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

The library works on those word-index masks throughout and builds Trunk
values only when it returns them.  A trunk built that way takes its
generator from the lattice, through Trunk._of_lattice, and does not
intersect its members again.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field
from itertools import compress

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

    @classmethod
    def _of_lattice(cls, member_masks: frozenset[int], generator_mask: int) -> "Trunk":
        """The Trunk(member_masks) builds, with generator_mask as its generator.

        Only for a nonempty member set whose intersection is generator_mask,
        as the trunk lattice gives it; nothing intersects the members."""
        trunk = cls.__new__(cls)
        object.__setattr__(trunk, "member_masks", member_masks)
        object.__setattr__(trunk, "generator_mask", generator_mask)
        return trunk

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
        """Membership; malformed or out-of-range words are simply absent,
        as in Code.contains."""
        try:
            return word_mask(word) in self.member_masks
        except ValueError:
            return False

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
    return Trunk(frozenset(m for m in code.mask_set if m & smask == smask))


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
    return {_generator(simple, t): t for t in closed}


def _generator(simple: list[int], t: int) -> int:
    """The generator of the nonempty trunk with word-index mask t, given the
    simple trunks' index masks: the neurons whose simple trunks contain it."""
    g = 0
    for i, s in enumerate(simple):
        if s & t == t:
            g |= 1 << i
    return g


# Maps the digits of bin() to selector bytes for itertools.compress.
_BIT_VALUES = bytes.maketrans(b"01", b"\0\1")


def _bit_selector(t: int) -> bytes:
    """The bits of t, lowest first, as bytes for itertools.compress: byte k
    is 1 iff bit k of t is set, for k < max(t.bit_length(), 1)."""
    return bin(t).encode()[:1:-1].translate(_BIT_VALUES)


def _bit_indices(t: int) -> list[int]:
    """The positions of the set bits of t, ascending."""
    return list(compress(range(t.bit_length()), _bit_selector(t)))


def _index_members(words: tuple[int, ...], t: int) -> frozenset[int]:
    """The word masks named by a bitmask t of indices into words."""
    return frozenset(compress(words, _bit_selector(t)))


def _index_trunks(words: tuple[int, ...], pairs: Iterable[tuple[int, int]]) -> tuple[Trunk, ...]:
    """The Trunk of each (generator mask, word-index mask) pair of a
    nonempty trunk, its members read from words."""
    return tuple([Trunk._of_lattice(_index_members(words, t), g) for g, t in pairs])


def all_trunks(code: Code, max_trunks: int | None = None) -> list[Trunk]:
    """Every distinct trunk of the code, the whole code and the empty trunk
    included, in a deterministic (size, member list) order: Trunk.sort_key.

    Raises ResourceCapError if the code has more than max_trunks trunks.
    code.masks is in word order, so a trunk's ascending word indices sort
    like its sorted member words.  Among trunks of one size, the list of
    indices that is less has a 1 where the other has a 0 at the lowest
    index where they differ, so it has the greater _bit_selector bytes: a
    descending sort on (-size, those bytes) gives the order.
    """
    _check_cap(max_trunks, "max_trunks")
    pairs = sorted(_trunk_family_masksets(code, max_trunks).items(),
                   key=lambda p: (-p[1].bit_count(), _bit_selector(p[1])), reverse=True)
    return [Trunk(frozenset())] + list(_index_trunks(code.masks, pairs))


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


def _irreducible_index_masks(code: Code, simple: list[int] | None = None) -> list[tuple[int, int]]:
    """(generator mask, word-index mask) of each irreducible trunk, in the
    order of irreducible_trunks; simple is _simple_index_masks(code), if the
    caller holds it.

    No lattice is needed.  A trunk Tk(g) is the intersection of the simple
    trunks Tk(i), i in g; if each of them strictly contains Tk(g), it is an
    intersection of strictly larger trunks.  So every irreducible trunk is a
    simple trunk Tk(i).  The trunks strictly containing Tk(i) are
    intersections of simple trunks strictly containing it, or the whole code,
    so Tk(i) is irreducible iff the whole code intersected with those simple
    trunks is not Tk(i).  That is O(n^2) tests on word-index masks.
    """
    if simple is None:
        simple = _simple_index_masks(code)
    full = (1 << len(code.masks)) - 1
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
    pairs = [(_generator(simple, t), t) for t in found]
    pairs.sort(key=lambda p: mask_members(p[0]))
    return pairs


def irreducible_trunks(code: Code) -> list[Trunk]:
    """Nonempty proper trunks that are not intersections of strictly larger
    trunks, ordered by generator (lexicographic on sorted members).  See
    _irreducible_index_masks."""
    return list(_index_trunks(code.masks, _irreducible_index_masks(code)))
