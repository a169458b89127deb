"""Morphisms between codes.

A map f: C -> D is a morphism when the preimage of every trunk of D is a
trunk of C; checking the simple trunks Tk(j) suffices.  Every morphism is
determined by the ordered list of preimage trunks T_j = f^{-1}(Tk(j)): the
function it induces is f(c) = {j : c in T_j}.  Morphism stores that normal
form; ExplicitMap is a plain word-to-word table for maps that arrive as raw
functions and may or may not be morphisms.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from dataclasses import dataclass

from .codes import (Code, _json_list, _neuron_index, _word_key, code_to_obj, mask_members,
                    parse_code, word_mask)
from .trunks import Trunk, is_trunk, trunk_of


@dataclass(frozen=True)
class Morphism:
    """A morphism out of `domain` in trunk normal form.

    The codomain is the image on m = len(trunks) neurons; word c maps to
    {j : c in trunks[j-1]}.
    """

    domain: Code
    trunks: tuple[Trunk, ...]

    def __post_init__(self):
        object.__setattr__(self, "trunks", tuple(self.trunks))
        for t in self.trunks:
            if not t.member_masks <= self.domain.mask_set:
                raise ValueError("trunk members must be words of the domain")
            if t.member_masks and not is_trunk(self.domain, t.member_masks):
                raise ValueError(f"{t!r} is not a trunk of the domain")

    @classmethod
    def _of_checked_trunks(cls, domain: Code, trunks: tuple[Trunk, ...]) -> "Morphism":
        """The Morphism(domain, trunks) builds, checking no trunk again.

        Only for a tuple of trunks of domain, such as its trunk lattice
        gives; nothing here checks them."""
        morphism = cls.__new__(cls)
        object.__setattr__(morphism, "domain", domain)
        object.__setattr__(morphism, "trunks", trunks)
        return morphism

    @property
    def m(self) -> int:
        """Number of image neurons."""
        return len(self.trunks)

    def apply_mask(self, mask: int) -> int:
        if mask not in self.domain.mask_set:
            raise ValueError(
                f"{set(mask_members(mask))} is not a word of the domain")
        out = 0
        for j, t in enumerate(self.trunks):
            if mask in t.member_masks:
                out |= 1 << j
        return out

    def apply(self, word: Iterable[int]) -> frozenset[int]:
        return frozenset(mask_members(self.apply_mask(word_mask(word))))

    def image(self) -> Code:
        return Code(self.m, {self.apply_mask(m) for m in self.domain.mask_set})

    def as_explicit(self, codomain: Code | None = None) -> "ExplicitMap":
        """Materialize as a word table; codomain defaults to the image."""
        cod = self.image() if codomain is None else codomain
        pairs = {m: self.apply_mask(m) for m in self.domain.mask_set}
        return ExplicitMap.from_masks(self.domain, cod, pairs)


@dataclass(frozen=True)
class ExplicitMap:
    """A total word-to-word table between two codes, morphism or not."""

    domain: Code
    codomain: Code
    pairs: tuple[tuple[int, int], ...]  # (domain mask, codomain mask), sorted

    @classmethod
    def from_masks(cls, domain: Code, codomain: Code, mapping: dict[int, int]) -> "ExplicitMap":
        if set(mapping) != set(domain.mask_set):
            raise ValueError("mapping must be total on the domain words")
        for src, dst in mapping.items():
            if dst not in codomain.mask_set:
                raise ValueError(
                    f"image of {set(mask_members(src))} is {set(mask_members(dst))}, "
                    "not a codomain word")
        pairs = tuple(sorted(mapping.items(), key=lambda p: _word_key(p[0])))
        return cls(domain, codomain, pairs)

    @classmethod
    def from_function(cls, domain: Code, codomain: Code,
                      fn: Callable[[frozenset[int]], Iterable[int]]) -> "ExplicitMap":
        mapping = {}
        for mask in domain.mask_set:
            mapping[mask] = word_mask(fn(frozenset(mask_members(mask))))
        return cls.from_masks(domain, codomain, mapping)

    @classmethod
    def identity(cls, code: Code) -> "ExplicitMap":
        return cls.from_masks(code, code, {m: m for m in code.mask_set})

    def as_dict(self) -> dict[int, int]:
        return dict(self.pairs)

    def apply_mask(self, mask: int) -> int:
        for src, dst in self.pairs:
            if src == mask:
                return dst
        raise ValueError(f"{set(mask_members(mask))} is not a word of the domain")

    def apply(self, word: Iterable[int]) -> frozenset[int]:
        return frozenset(mask_members(self.apply_mask(word_mask(word))))

    def image(self) -> Code:
        return Code(self.codomain.n, {dst for _, dst in self.pairs})


def _preimages(f: ExplicitMap):
    """Yield the preimage under f of each simple codomain trunk Tk(j), for
    j = 1..n in turn."""
    table = f.as_dict()
    for j in range(f.codomain.n):
        yield frozenset(src for src, dst in table.items() if dst >> j & 1)


def is_morphism(f: ExplicitMap) -> bool:
    """Does every simple-trunk preimage come out a trunk of the domain?"""
    return all(is_trunk(f.domain, pre) for pre in _preimages(f))


def decompose(f: ExplicitMap) -> Morphism:
    """Trunk normal form of an explicit map; raises if it is not a morphism.

    The result has one trunk per codomain neuron, so applying it reproduces
    f exactly (with the codomain read as 2^[n]).
    """
    try:
        return Morphism(f.domain, tuple(map(Trunk, _preimages(f))))
    except ValueError:  # Morphism found a preimage that is not a trunk
        raise ValueError("the map is not a morphism: "
                         "some trunk preimage is not a trunk") from None


def compose(g: Morphism, f: Morphism) -> Morphism:
    """The composite word c -> g(f(c)), again in trunk normal form.

    Requires every word of image(f) to be a word of g's domain.
    """
    img = f.image()
    if not img.mask_set <= g.domain.mask_set:
        raise ValueError("image of the first morphism must lie inside the "
                         "domain of the second")
    trunks = []
    for t in g.trunks:
        members = frozenset(m for m in f.domain.mask_set
                            if f.apply_mask(m) in t.member_masks)
        trunks.append(Trunk(members))
    return Morphism(f.domain, tuple(trunks))


def _onto_image(code: Code, mapping: dict[int, int]) -> ExplicitMap:
    """The word map given by mapping, onto its image on the same neurons."""
    return ExplicitMap.from_masks(code, Code(code.n, set(mapping.values())), mapping)


def restriction_morphism(code: Code, gamma: Iterable[int]) -> ExplicitMap:
    """c -> c intersect gamma, onto its image."""
    gmask = word_mask(gamma, code.n)
    return _onto_image(code, {m: m & gmask for m in code.mask_set})


def union_morphism(code: Code, gamma: Iterable[int]) -> ExplicitMap:
    """c -> c union gamma, onto its image."""
    gmask = word_mask(gamma, code.n)
    return _onto_image(code, {m: m | gmask for m in code.mask_set})


def permutation_morphism(code: Code, perm: Iterable[int]) -> ExplicitMap:
    """Relabel neurons by a bijection of 1..n; perm[i-1] is the new label of i."""
    p = tuple(map(_neuron_index, perm))
    if sorted(p) != list(range(1, code.n + 1)):
        raise ValueError(f"{p} is not a permutation of 1..{code.n}")
    def relabel(mask: int) -> int:
        out = 0
        for i in mask_members(mask):
            out |= 1 << (p[i - 1] - 1)
        return out
    return _onto_image(code, {m: relabel(m) for m in code.mask_set})


def explicit_map_to_obj(f: ExplicitMap) -> dict:
    return {
        "domain": code_to_obj(f.domain),
        "codomain": code_to_obj(f.codomain),
        "pairs": [[list(mask_members(a)), list(mask_members(b))]
                  for a, b in f.pairs],
    }


def explicit_map_from_obj(obj: dict) -> ExplicitMap:
    """Inverse of explicit_map_to_obj; codes may be literal strings."""
    if not isinstance(obj, dict) or set(obj) != {"domain", "codomain", "pairs"}:
        raise ValueError('explicit map JSON needs exactly the keys "domain", '
                         '"codomain" and "pairs"')
    domain = parse_code(obj["domain"])
    codomain = parse_code(obj["codomain"])
    mapping = {}
    for entry in _json_list(obj["pairs"], '"pairs"'):
        if not (isinstance(entry, list) and len(entry) == 2
                and all(isinstance(word, list) for word in entry)):
            raise ValueError("each pair must be a [word, word] list")
        src = word_mask(entry[0], domain.n)
        dst = word_mask(entry[1], codomain.n)
        if src in mapping and mapping[src] != dst:
            raise ValueError("conflicting images for one domain word")
        mapping[src] = dst
    return ExplicitMap.from_masks(domain, codomain, mapping)


def morphism_to_obj(m: Morphism) -> dict:
    gens = []
    for t in m.trunks:
        gens.append(None if t.generator_mask is None
                    else list(mask_members(t.generator_mask)))
    return {"domain": code_to_obj(m.domain), "trunk_generators": gens}


def morphism_from_obj(obj: dict) -> Morphism:
    """Inverse of morphism_to_obj; the domain may be a code literal string."""
    if not isinstance(obj, dict) or set(obj) != {"domain", "trunk_generators"}:
        raise ValueError('morphism JSON needs exactly the keys "domain" and '
                         '"trunk_generators"')
    domain = parse_code(obj["domain"])
    trunks = []
    for gen in _json_list(obj["trunk_generators"], '"trunk_generators"'):
        if gen is None:
            trunks.append(Trunk(frozenset()))
        elif isinstance(gen, list):
            trunks.append(trunk_of(domain, gen))
        else:
            raise ValueError(f"trunk generator must be null or a list, got {gen!r}")
    return Morphism(domain, tuple(trunks))
