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
from typing import NoReturn

from .codes import Code, mask_members
from .exceptions import DEFAULT_MAX_NODES, ResourceCapError, _check_cap
from .morphisms import Morphism
from .trunks import (_bit_indices, _generator, _irreducible_index_masks,
                     _simple_index_masks, irreducible_trunks)


def trivial_neurons(code: Code) -> set[int]:
    """Neurons appearing in no codeword."""
    return {i for i, t in enumerate(_simple_index_masks(code), 1) if not t}


def redundant_neurons(code: Code) -> list[tuple[int, frozenset[int]]]:
    """Nontrivial neurons i with Tk(i) = Tk(sigma) for some sigma not
    containing i, each with the canonical witness generator-minus-i.

    If any sigma avoiding i works then so does the generator of Tk(i) with i
    removed, by maximality of the generator.  That witness's trunk is the
    meet of the simple trunks Tk(j), j != i, containing Tk(i), or the whole
    code when there are none.  So i is redundant exactly when another neuron
    has the same simple trunk, or when Tk(i) is the whole code or the meet
    of strictly larger simple trunks, that is, not irreducible.
    """
    simple = _simple_index_masks(code)
    irreducible = {t for _, t in _irreducible_index_masks(code, simple)}
    return [(i + 1, frozenset(mask_members(_generator(simple, t) & ~(1 << i))))
            for i, t in enumerate(simple)
            if t and (t not in irreducible or simple.count(t) > 1)]


def is_reduced(code: Code) -> bool:
    """No trivial and no redundant neurons, that is, n irreducible trunks:
    every irreducible trunk is a simple trunk, and Tk(i) is empty, the whole
    code, another Tk(j) or an intersection of strictly larger trunks exactly
    when i is trivial or redundant."""
    return minimum_neuron_number(code) == code.n


@dataclass(frozen=True)
class ReductionResult:
    reduced: Code
    iso: Morphism
    neuron_origin: tuple[frozenset[int], ...]  # generator of each neuron's trunk; see reduce_code


def reduce_code(code: Code) -> ReductionResult:
    """Image of the code under its irreducible trunks.

    The result is reduced and reachable from the input by an isomorphism.
    A reduced code comes back unchanged, so reducing is idempotent, and its
    neuron j remembers the generator of Tk(j); otherwise neuron j remembers
    the generator of the j-th irreducible trunk, in irreducible_trunks' order.
    """
    trunks = irreducible_trunks(code)
    already = len(trunks) == code.n  # is_reduced(code); keep the neuron order
    if already:
        # The irreducible trunks are then the n simple trunks.  Neuron i is
        # in the generator of every trunk inside Tk(i) and of no other, so
        # Tk(i) is the largest trunk whose generator holds i.
        trunks = [max((t for t in trunks if t.generator_mask >> i & 1), key=len)
                  for i in range(code.n)]
    iso = Morphism._of_checked_trunks(code, tuple(trunks))
    origins = tuple(t.generator for t in trunks)
    return ReductionResult(code if already else iso.image(), iso, origins)


def _index_image(code: Code, trunks: list[int]) -> Code:
    """The image of code under the morphism whose trunks are given as
    word-index masks: word k goes to {j : bit k of trunks[j-1] is set}."""
    images = [0] * len(code.masks)
    for j, t in enumerate(trunks):
        bit = 1 << j
        for k in _bit_indices(t):
            images[k] |= bit
    return Code._of_checked_masks(len(trunks), set(images))


def minimum_neuron_number(code: Code) -> int:
    """Fewest neurons among codes isomorphic to this one."""
    return len(_irreducible_index_masks(code))


# ---------------------------------------------------------------------------
# canonical form

# _BIT_REVERSED[b] is the byte b with its eight bits in reverse order.
_BIT_REVERSED = bytes(int(f"{b:08b}"[::-1], 2) for b in range(256))


def _bit_reversals(values: list[int], n: int) -> tuple[int, ...]:
    """The n-bit reversal of each value in 0..2**n - 1, as a tuple: bit i of
    a value is bit n-1-i of its reversal.  Up to 8 bits a value is one
    lookup in _BIT_REVERSED and a shift; wider values reverse each of their
    bytes through it, and the byte order by reading the little-endian bytes
    as big-endian."""
    if n <= 8:
        shift = 8 - n
        return tuple([_BIT_REVERSED[v] >> shift for v in values])
    width = (n + 7) >> 3
    shift = 8 * width - n
    return tuple([int.from_bytes(v.to_bytes(width, "little").translate(_BIT_REVERSED), "big")
                  >> shift for v in values])


def _refuse(max_nodes: int) -> NoReturn:
    raise ResourceCapError(f"canonical labelling search exceeded its cap of {max_nodes} "
                           "nodes; raise max_nodes to search anyway")


@dataclass(frozen=True)
class CanonicalForm:
    """A reduced, permutation-minimal code plus the relabeling that got there.

    witness[i-1] is the canonical label given to neuron i of reduce(x).
    """

    code: Code
    witness: tuple[int, ...]


def _min_relabeling(masks: Collection[int], n: int,
                    max_nodes: int | None = DEFAULT_MAX_NODES):
    """Lexicographically least relabeling of a code on neurons 1..n, given by
    its word masks.

    Returns (canonical word masks, perm) where perm[i-1] is the new label of
    neuron i; the masks are a tuple in canonical order, the order that
    Code(n, masks).masks gives them.  Branch and bound over which old neuron
    gets each new label in turn, siblings in order of their partial word
    lists.  Each word is one integer order key: label q is bit n-q of the
    word's rank, so (size << n) | (full ^ rank) sorts exactly like (size,
    sorted labels padded with an infinite label), which is codes._word_key's
    order; a label not yet given is a missing bit.  A branch is cut when a
    lower bound on every completion of its word list already loses to the
    incumbent (see provably_worse), and the siblings after it are cut with
    it: every key of a sibling holds the same labels except the one just
    given, so two siblings' partial keys differ only at or above that bit,
    while the bound clears bits below it alone.  The bound is thus monotone
    in sibling order, and every later sibling loses too.

    The last label is given in place, without a call of its own: one neuron
    is left, and its leaf is the only child.  Orbits and twins have nothing
    to cut among one candidate, and the bound has been applied already:
    with one neuron left, no two words holding it have the same partial key,
    so the bound that admitted the node is its leaf's sorted key list, and
    the leaf is visited, and counted as a node, whenever the node is.  The
    best leaf's sorted keys give the canonical words in canonical order: a
    word's mask is the n-bit reversal of its rank, full & ~key, read
    through the byte table of _bit_reversals.

    Symmetric siblings are cut as in individualise-and-refine search.  A leaf
    that ties the incumbent, or a swap of two sibling neurons that fixes the
    code, is an automorphism; a sibling is skipped when automorphisms that
    fix every labelled neuron map an earlier sibling onto it, since its
    subtree then holds the same keys as one already searched.  Every cut
    keeps the first least leaf in sibling order, so the result does not
    depend on which automorphisms were found.

    Raises ResourceCapError once the search would visit more than max_nodes
    nodes; None removes the cap.
    """
    full = (1 << n) - 1
    words = tuple(masks)
    keys = [(m.bit_count() << n) | full for m in words]
    holders: list[list[int]] = [[] for _ in range(n)]  # the words holding each neuron
    for w, m in enumerate(words):
        while m:
            low = m & -m
            holders[low.bit_length() - 1].append(w)
            m ^= low
    mask_set = frozenset(words)
    label = [0] * n  # label[o] is the new label of neuron o+1; 0 while unset
    best_key: list[int] | None = None
    best_perm: tuple[int, ...] = ()
    # Automorphisms found so far: (mask of the neurons moved, [(o, image)]).
    autos: list[tuple[int, list[tuple[int, int]]]] = []
    left = max_nodes

    def mirrored(a: int, b: int) -> bool:
        # Does swapping neurons a and b fix the code?  Only a word holding
        # exactly one of them moves, and every such word holds a or b.
        ab = (1 << a) | (1 << b)
        return all(m ^ ab in mask_set for m in (words[w] for w in holders[a] + holders[b])
                   if (m >> a ^ m >> b) & 1)

    def orbits(fixed: int) -> list[int]:
        # The least neuron of each neuron's orbit under the automorphisms
        # found so far that move no neuron of fixed (a union-find whose
        # roots are the least members, so one pass in order flattens it).
        root = list(range(n))
        for moved, pairs in autos:
            if moved & fixed:
                continue
            for a, b in pairs:
                while root[a] != a:
                    a = root[a]
                while root[b] != b:
                    b = root[b]
                if a < b:
                    root[b] = a
                elif b < a:
                    root[a] = b
        for o in range(n):
            root[o] = root[root[o]]
        return root

    def provably_worse(sig: list[int], top: int) -> bool:
        # True only when every completion of the current assignment compares
        # greater than the incumbent; top is the bit of the label just given.
        # A word with u unlabelled neurons gets at best the next u free
        # labels.  Words with one partial key and one unlabelled neuron hold
        # distinct neurons, so the r-th of them gets at best the r-th free
        # label.  Partial keys that differ differ above the free labels, so
        # these bounds keep sig's order and bound the completed list slot by
        # slot.
        prev = r = 0
        for v, b in zip(sig, best_key):
            u = (v >> n) - n + (v & full).bit_count()
            if u == 1:
                r = r + 1 if v == prev else 0
                prev = v
                v ^= top >> (r + 1)
            elif u:
                v ^= top - (top >> u)
            if v != b:
                return v > b
        return False

    def rec(q: int, sig: list[int], fixed: int):
        nonlocal best_key, best_perm, left
        if left is not None:
            if not left:
                _refuse(max_nodes)
            left -= 1
        if q == n - 1:
            # The last label: one neuron is left, and its leaf, the only
            # child, is visited here (see the docstring).
            o = label.index(0)
            sig = keys[:]
            for w in holders[o]:
                sig[w] ^= 1
            sig.sort()
            if left is not None:
                if not left:
                    _refuse(max_nodes)
                left -= 1
            label[o] = n
            if best_key is None or sig < best_key:
                best_key, best_perm = sig, tuple(label)
            elif sig == best_key:
                # best_perm^-1 . label maps the code onto itself.
                old = [0] * n
                for p, new in enumerate(best_perm):
                    old[new - 1] = p
                pairs = [(p, old[label[p] - 1]) for p in range(n)
                         if old[label[p] - 1] != p]
                autos.append((sum(1 << p for p, _ in pairs), pairs))
            label[o] = 0
            return
        bit = 1 << (n - q - 1)  # label q+1
        found = len(autos)
        root = orbits(fixed) if found else None
        cands = []
        for o in range(n):
            if not label[o] and (root is None or root[o] == o):
                cand = keys[:]
                for w in holders[o]:
                    cand[w] ^= bit
                cand.sort()
                cands.append((cand, o))
        cands.sort()
        seen: list[int] = []
        twins: list[int] = []  # kept siblings whose sig is the current one
        last = None
        for sig, o in cands:
            if len(autos) != found:
                found = len(autos)
                root = orbits(fixed)
            if root is not None and any(root[s] == root[o] for s in seen):
                continue
            seen.append(o)
            if sig != last:
                last, twins = sig, []
            else:
                twin = next((t for t in twins if mirrored(t, o)), None)
                if twin is not None:
                    autos.append(((1 << twin) | (1 << o), [(twin, o)]))
                    continue
            twins.append(o)
            if best_key is not None and provably_worse(sig, bit):
                break
            label[o] = q + 1
            held = holders[o]
            for w in held:
                keys[w] ^= bit
            rec(q + 1, sig, fixed | 1 << o)
            for w in held:
                keys[w] ^= bit
            label[o] = 0

    if n:
        rec(0, sorted(keys), 0)
    else:  # the root is the only leaf
        if max_nodes == 0:
            _refuse(max_nodes)
        best_key = sorted(keys)
    return _bit_reversals([full & ~k for k in best_key], n), best_perm


def canonical_form(code: Code, max_nodes: int | None = DEFAULT_MAX_NODES) -> CanonicalForm:
    """Reduce, then permutation-minimize under the fixed total order.
    Refuses with ResourceCapError once the search for the least relabeling
    would visit more than max_nodes nodes, and at once for a negative
    max_nodes; None removes the cap."""
    _check_cap(max_nodes, "max_nodes")
    if max_nodes is not None and max_nodes < 0:
        _refuse(max_nodes)
    # reduce_code(code).reduced, without the Morphism and origins it also
    # builds: a code with n irreducible trunks is reduced, its own reduction.
    trunks = [t for _, t in _irreducible_index_masks(code)]
    red = code if len(trunks) == code.n else _index_image(code, trunks)
    masks, perm = _min_relabeling(red.masks, red.n, max_nodes)
    return CanonicalForm(Code._of_ordered_masks(red.n, masks), perm)


def is_isomorphic(a: Code, b: Code, max_nodes: int | None = DEFAULT_MAX_NODES) -> bool:
    """Equality of canonical forms, each found within max_nodes search nodes."""
    return (canonical_form(a, max_nodes).code
            == canonical_form(b, max_nodes).code)
