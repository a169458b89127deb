"""Trunks of a code: the sets Tk(sigma) = {c in C : sigma is a subset of c}.

Trunks are the structure morphisms must preserve under preimage.  The family
of all trunks of a code is closed under intersection and is generated by the
simple trunks Tk(i) together with the whole code Tk(empty); the empty set is a
trunk of every code.  A nonempty trunk is determined by its generator, the
intersection of its members, so the family is built from the intersection
closure of the codewords.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field

from .codes import Code, _display_key, _word_key, mask_members, word_mask
from .exceptions import ResourceCapError


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
        members = ",".join(
            "".join(map(str, mask_members(m))) or "0"
            for m in sorted(self.member_masks, key=_display_key)
        )
        gen = "".join(map(str, mask_members(self.generator_mask))) or "{}"
        return f"Trunk(Tk({gen}) = {{{members}}})"


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

    After each word the set holds the intersections of the nonempty subsets
    of the words seen so far, so one pass costs O(|closure| * |masks|).  It
    only grows, so it raises ResourceCapError once it and the empty trunk exceed cap.
    """
    limit = float("inf") if cap is None else cap
    closed: set[int] = set()
    for w in masks:
        closed |= {g & w for g in closed}
        closed.add(w)
        if len(closed) >= limit:
            break
    if len(closed) >= limit:
        raise ResourceCapError(f"code has more trunks than the cap of {cap}; "
                               "raise max_trunks to enumerate anyway")
    return closed


def _trunk_family_masksets(code: Code, cap: int | None = None) -> dict[int, int]:
    """The trunk lattice: every nonempty trunk, as {generator mask:
    Tk(generator)} with the trunk's member set a bitmask of indices into
    code.masks.  cap bounds the trunk count as in _intersection_closure.

    The generator of a nonempty trunk is the intersection of its members, and
    every intersection of codewords generates its own trunk, so the
    generators are exactly the intersection closure of the codewords (the
    concept intents of formal concept analysis).
    """
    words = code.masks
    return {g: sum(1 << k for k, w in enumerate(words) if w & g == g)
            for g in _intersection_closure(words, cap)}


def _index_members(words: tuple[int, ...], t: int) -> frozenset[int]:
    """The word masks named by a bitmask t of indices into words."""
    return frozenset(w for k, w in enumerate(words) if t >> k & 1)


def all_trunks(code: Code) -> list[Trunk]:
    """Every distinct trunk of the code, the whole code and the empty trunk
    included, in a deterministic (size, member list) order."""
    out = [Trunk(_index_members(code.masks, t), g)
           for g, t in _trunk_family_masksets(code).items()]
    out.append(Trunk(frozenset()))
    out.sort(key=Trunk.sort_key)
    return out


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

    Larger trunks have smaller generators, and Tk(a) & Tk(b) = Tk(a | b).  So
    Tk(g) is the intersection of its strict supersets iff the union u of the
    generators strictly inside g has Tk(u) = Tk(g).  The generator of Tk(u)
    lies between u and g; unless it is g it is a generator strictly inside g,
    hence u itself.  So Tk(g) is irreducible iff u is a generator other than g.
    """
    lattice = _trunk_family_masksets(code)
    out = []
    for g, t in lattice.items():
        u = 0
        for h in lattice:
            if h != g and h & g == h:
                u |= h
        if u != g and u in lattice:
            out.append(Trunk(_index_members(code.masks, t), g))
    out.sort(key=lambda tr: mask_members(tr.generator_mask))
    return out
