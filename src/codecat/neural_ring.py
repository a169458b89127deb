"""The neural ring: GF(2)-valued functions on a code, and the contravariant
correspondence between morphisms and monomial maps.

R_C is the ring of functions C -> GF(2) with pointwise operations; an element
is stored extensionally as its support.  The coordinate x_i is supported on
Tk(i) and the monomial x_sigma on Tk(sigma).  A morphism f: C -> D pulls
functions back along f, and on coordinates that pullback is monomial:
f*(y_j) is 0 when the j-th preimage trunk is empty and x_{generator}
otherwise.  Conversely a coordinate-wise monomial assignment that maps C into
D is the pullback of exactly one morphism, which is what makes the hom-sets
biject.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

from .codes import Code, _neuron_index, mask_members, word_mask
from .morphisms import Morphism
from .trunks import Trunk, trunk_of


@dataclass(frozen=True)
class RingElement:
    """A function code -> GF(2), stored as the set of words where it is 1."""

    code: Code
    support: frozenset[int]

    def __post_init__(self):
        if not self.support <= self.code.mask_set:
            raise ValueError("support must consist of codewords")

    @classmethod
    def zero(cls, code: Code) -> "RingElement":
        return cls(code, frozenset())

    @classmethod
    def one(cls, code: Code) -> "RingElement":
        return cls(code, code.mask_set)

    def value_at(self, word: Iterable[int]) -> int:
        mask = word_mask(word)
        if mask not in self.code.mask_set:
            raise ValueError(f"{set(mask_members(mask))} is not a codeword")
        return 1 if mask in self.support else 0

    def __add__(self, other: "RingElement") -> "RingElement":
        self._check(other)
        return RingElement(self.code, self.support ^ other.support)

    def __mul__(self, other: "RingElement") -> "RingElement":
        self._check(other)
        return RingElement(self.code, self.support & other.support)

    def complement(self) -> "RingElement":
        """1 + self."""
        return RingElement(self.code, self.code.mask_set - self.support)

    def _check(self, other: "RingElement"):
        if not isinstance(other, RingElement) or other.code != self.code:
            raise ValueError("ring elements live over the same code")


def coordinate(code: Code, i: int) -> RingElement:
    """x_i: the value of neuron i."""
    if not 1 <= _neuron_index(i) <= code.n:
        raise ValueError(f"neuron index {i} out of range 1..{code.n}")
    return RingElement(code, trunk_of(code, 1 << (i - 1)).member_masks)


def indicator(code: Code, word: Iterable[int]) -> RingElement:
    """rho_c: 1 exactly at c; the zero element when c is not a codeword.
    A word with a neuron beyond code.n raises ValueError."""
    mask = word_mask(word, code.n)
    if mask not in code.mask_set:
        return RingElement.zero(code)
    return RingElement(code, frozenset({mask}))


def evaluate_monomial(code: Code, sigma: Iterable[int]) -> RingElement:
    """x_sigma = product of x_i over sigma; supported on Tk(sigma)."""
    return RingElement(code, trunk_of(code, sigma).member_masks)


@dataclass(frozen=True)
class MonomialMap:
    """A ring map R_from -> R_to sending each coordinate y_j to 0 or to a
    monomial x_sigma with sigma a maximal exponent set (a trunk generator of
    the to-side code)."""

    from_code: Code
    to_code: Code
    assignment: tuple[frozenset[int] | None, ...]

    def __post_init__(self):
        object.__setattr__(self, "assignment", tuple(
            None if s is None else frozenset(s) for s in self.assignment))
        if len(self.assignment) != self.from_code.n:
            raise ValueError("one assignment per from-side coordinate required")
        for s in self.assignment:
            if s is None:
                continue
            t = trunk_of(self.to_code, s)
            if not t.member_masks:
                raise ValueError(
                    f"x_{sorted(s)} is the zero function; use None for zero")
            if t.generator != frozenset(s):
                raise ValueError(
                    f"exponent set {sorted(s)} is not maximal; the generator is "
                    f"{sorted(t.generator)}")

    def coordinate_image(self, j: int) -> RingElement:
        """The image of y_j in R_to."""
        if not 1 <= _neuron_index(j) <= self.from_code.n:
            raise ValueError(f"coordinate index {j} out of range")
        s = self.assignment[j - 1]
        if s is None:
            return RingElement.zero(self.to_code)
        return evaluate_monomial(self.to_code, s)

    def monomial_image(self, tau: Iterable[int]) -> RingElement:
        """The image of y_tau = product of y_j over tau."""
        out = RingElement.one(self.to_code)
        for j in mask_members(word_mask(tau, self.from_code.n)):
            out = out * self.coordinate_image(j)
        return out

    def indicator_image(self, word: Iterable[int]) -> RingElement:
        """The image of rho_d, via rho_d = prod_j (y_j if j in d else 1+y_j)."""
        dmask = word_mask(word, self.from_code.n)
        out = RingElement.one(self.to_code)
        for j in range(1, self.from_code.n + 1):
            yj = self.coordinate_image(j)
            out = out * (yj if dmask & (1 << (j - 1)) else yj.complement())
        return out


def morphism_to_monomial_map(f: Morphism, codomain: Code | None = None) -> MonomialMap:
    """The pullback f*: R_D -> R_C of a morphism f: C -> D.

    D defaults to the image of f; an ambient codomain on the same m neurons
    (a superset of the image words) may be supplied instead.
    """
    img = f.image()
    if codomain is None:
        codomain = img
    else:
        if codomain.n != f.m or not img.mask_set <= codomain.mask_set:
            raise ValueError("codomain must contain the image on the same neurons")
    assignment: list[frozenset[int] | None] = []
    for t in f.trunks:
        if not t.member_masks:
            assignment.append(None)
        else:
            assignment.append(t.generator)
    return MonomialMap(codomain, f.domain, tuple(assignment))


def monomial_map_to_morphism(phi: MonomialMap) -> Morphism:
    """The morphism f with f* = phi; raises when phi does not map the to-side
    code into the from-side one (no morphism induces it)."""
    trunks = []
    for s in phi.assignment:
        if s is None:
            trunks.append(Trunk(frozenset()))
        else:
            trunks.append(trunk_of(phi.to_code, s))
    f = Morphism(phi.to_code, tuple(trunks))
    for m in f.image().mask_set:
        if m not in phi.from_code.mask_set:
            raise ValueError(
                "not a valid monomial map between these rings: the induced "
                f"function sends some word to {set(mask_members(m))}, which is "
                "not a word of the from-side code")
    return f


def compose_monomial_maps(second: MonomialMap, first: MonomialMap) -> MonomialMap:
    """second after first, normalized back to maximal exponent sets.

    first: R_A -> R_B, second: R_B -> R_C gives R_A -> R_C; each y_j goes
    through first to 0 or a monomial over B, then through second coordinate
    by coordinate.
    """
    if first.to_code != second.from_code:
        raise ValueError("maps do not compose: to-side of first must be "
                         "from-side of second")
    target = second.to_code
    assignment: list[frozenset[int] | None] = []
    for s in first.assignment:
        if s is None:
            assignment.append(None)
            continue
        union: set[int] = set()
        dead = False
        for j in s:
            sj = second.assignment[j - 1]
            if sj is None:
                dead = True
                break
            union |= sj
        if dead:
            assignment.append(None)
            continue
        t = trunk_of(target, union)
        assignment.append(None if not t.member_masks else t.generator)
    return MonomialMap(first.from_code, target, tuple(assignment))
