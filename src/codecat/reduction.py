"""Reduction and isomorphism of codes.

A neuron is trivial when its simple trunk is empty and redundant when its
simple trunk equals Tk(sigma) for some sigma not containing it.  A reduced
code has neither.  Reducing factors out exactly that: the morphism defined by
the irreducible trunks is an isomorphism onto a reduced code, and the number
of irreducible trunks is the fewest neurons any isomorphic copy can use.

Isomorphism testing goes through a canonical form: reduce, then pick the
lexicographically least neuron relabeling under the fixed total order on
codes (words sorted by cardinality then members; word lists compared
lexicographically).  Two codes are isomorphic iff their canonical forms are
equal codes.
"""

from __future__ import annotations

from collections.abc import Collection
from dataclasses import dataclass

from .codes import Code, mask_members
from .morphisms import Morphism
from .trunks import irreducible_trunks, simple_trunks, trunk_of


def trivial_neurons(code: Code) -> set[int]:
    """Neurons appearing in no codeword."""
    return {i for i, t in simple_trunks(code) if not t.member_masks}


def redundant_neurons(code: Code) -> list[tuple[int, frozenset[int]]]:
    """Nontrivial neurons i with Tk(i) = Tk(sigma) for some sigma not
    containing i, each with the canonical witness generator-minus-i.

    If any sigma avoiding i works then so does the generator of Tk(i) with i
    removed, by maximality of the generator.
    """
    out = []
    for i, t in simple_trunks(code):
        if not t.member_masks:
            continue
        bit = 1 << (i - 1)
        witness = t.generator_mask & ~bit
        if trunk_of(code, witness).member_masks == t.member_masks:
            out.append((i, frozenset(mask_members(witness))))
    return out


def is_reduced(code: Code) -> bool:
    """No trivial neurons and no redundant neurons.

    That makes i -> Tk(i) injective too: if Tk(i) = Tk(j) for i != j, then j
    lies in the generator g of Tk(i), so Tk(g - i) = Tk(i) and i is redundant.
    """
    return not trivial_neurons(code) and not redundant_neurons(code)


@dataclass(frozen=True)
class ReductionResult:
    reduced: Code
    iso: Morphism
    neuron_origin: tuple[frozenset[int], ...]  # generator behind each new neuron


def reduce_code(code: Code) -> ReductionResult:
    """Image of the code under its irreducible trunks.

    The result is reduced and reachable from the input by an isomorphism;
    neuron j of the result remembers the generator of the j-th irreducible
    trunk (ordered by generator).  An already-reduced code comes back
    unchanged, so reducing is idempotent.
    """
    if is_reduced(code):
        iso = Morphism(code, tuple(t for _, t in simple_trunks(code)))
        origins = tuple(frozenset(mask_members(t.generator_mask))
                        for t in iso.trunks)
        return ReductionResult(code, iso, origins)
    irr = irreducible_trunks(code)
    iso = Morphism(code, tuple(irr))
    origins = tuple(frozenset(mask_members(t.generator_mask)) for t in irr)
    return ReductionResult(iso.image(), iso, origins)


def minimum_neuron_number(code: Code) -> int:
    """Fewest neurons among codes isomorphic to this one."""
    return len(irreducible_trunks(code))


# ---------------------------------------------------------------------------
# canonical form

@dataclass(frozen=True)
class CanonicalForm:
    """A reduced, permutation-minimal code plus the relabeling that got there.

    witness[i-1] is the canonical label given to neuron i of reduce(x).
    """

    code: Code
    witness: tuple[int, ...]


def _min_relabeling(masks: Collection[int], n: int):
    """Lexicographically least relabeling of a code on neurons 1..n, given by
    its word masks.

    Returns (canonical word masks, perm) where perm[i-1] is the new label of
    neuron i.  Branch and bound over which old neuron gets each new label in
    turn.  Each word is one integer order key: label q is bit n-q of the
    word's rank, so (size << n) | (full ^ rank) sorts exactly like (size,
    sorted labels padded with an infinite label); a label not yet given is a
    missing bit.  A branch is cut only when the partial word list already
    beats or loses to the incumbent on a fully-determined prefix; comparing
    sorted projections alone is not sound because list slots that tie on the
    assigned labels can still flip on the unassigned ones.
    """
    full = (1 << n) - 1
    keys = [(m.bit_count() << n) | full for m in masks]
    holders = [[w for w, m in enumerate(masks) if m >> o & 1] for o in range(n)]
    mask_set = frozenset(masks)
    label = [0] * n  # label[o] is the new label of neuron o+1; 0 while unset
    best_key: list[int] | None = None
    best_perm: tuple[int, ...] = ()

    def give(o: int, bit: int) -> None:
        for w in holders[o]:
            keys[w] ^= bit

    def mirrored(a: int, b: int) -> bool:
        # Does swapping neurons a and b fix the code?  (An automorphism check:
        # such candidates generate mirror-image search subtrees.)
        ab = (1 << a) | (1 << b)
        return all((m ^ ab if (m >> a ^ m >> b) & 1 else m) in mask_set
                   for m in masks)

    def provably_worse(sig: list[int], low: int) -> bool:
        # True only when every completion of the current assignment compares
        # greater than the incumbent, whose labels above the current depth
        # are masked off by low.
        for s, b in zip(sig, best_key):
            b |= low
            if s == b:
                if n - (s & full).bit_count() != s >> n:
                    return False  # equal but undetermined; later slots unprovable
                continue
            return s > b
        return False

    def rec(q: int, sig: list[int]):
        nonlocal best_key, best_perm
        if q == n:
            if best_key is None or sig < best_key:
                best_key, best_perm = sig, tuple(label)
            return
        bit = 1 << (n - q - 1)  # label q+1
        cands = []
        for o in range(n):
            if not label[o]:
                give(o, bit)
                cands.append((sorted(keys), o))
                give(o, bit)
        cands.sort()
        kept: list[tuple[list[int], int]] = []
        for sig, o in cands:
            if any(sig == ksig and mirrored(ko, o) for ksig, ko in kept):
                continue
            kept.append((sig, o))
        for sig, o in kept:
            if best_key is not None and provably_worse(sig, bit - 1):
                continue
            label[o] = q + 1
            give(o, bit)
            rec(q + 1, sig)
            give(o, bit)
            label[o] = 0

    rec(0, sorted(keys))
    canon = [sum(1 << (best_perm[o] - 1) for o in range(n) if m >> o & 1)
             for m in masks]
    return canon, best_perm


def canonical_form(code: Code) -> CanonicalForm:
    """Reduce, then permutation-minimize under the fixed total order."""
    red = reduce_code(code).reduced
    masks, perm = _min_relabeling(red.masks, red.n)
    return CanonicalForm(Code(red.n, masks), perm)


def is_isomorphic(a: Code, b: Code) -> bool:
    """Equality of canonical forms."""
    return canonical_form(a).code == canonical_form(b).code
