"""Shared generators for the property tests.  Everything is seeded so
failures replay exactly."""

import itertools
import random

from codecat import Code, irreducible_trunks, simple_trunks


def random_code(rng: random.Random, n: int, max_words: int,
                force_empty_word: bool = False) -> Code:
    """A nonempty code on [n] with at most max_words words."""
    universe = list(range(1 << n))
    k = rng.randint(1, min(max_words, len(universe)))
    words = set(rng.sample(universe, k))
    if force_empty_word:
        words.add(0)
    return Code(n, words)


def random_codes(count: int, seed: int, n: int, max_words: int, **kw):
    rng = random.Random(seed)
    return [random_code(rng, n, max_words, **kw) for _ in range(count)]


def edge_codes() -> list[Code]:
    """Zero-word codes, the lone empty word, and the power sets n = 1..6."""
    return ([Code(0, []), Code(3, []), Code(0, [[]])]
            + [Code(n, range(1 << n)) for n in range(1, 7)])


def cycle_code(n: int) -> Code:
    """The edges {i, i+1} of an n-cycle."""
    return Code(n, [[i, i % n + 1] for i in range(1, n + 1)])


def hollow_triangles(k: int, vertex_words: bool) -> Code:
    """k disjoint hollow triangles; with vertex_words also their vertices
    and the empty word."""
    words = []
    for j in range(k):
        a, b, c = 3 * j + 1, 3 * j + 2, 3 * j + 3
        words += [[a, b], [b, c], [a, c]]
        if vertex_words:
            words += [[a], [b], [c]]
    if vertex_words:
        words.append([])
    return Code(3 * k, words)


def brute_trunk_family(code: Code) -> set[frozenset[int]]:
    """Every distinct Tk(sigma) over all 2^n sigma, by direct sweep.
    Reference for all_trunks, which builds the family by closure instead."""
    out = set()
    for sigma in range(1 << code.n):
        out.add(frozenset(m for m in code.mask_set if m & sigma == sigma))
    return out


def is_reduced_by_lattice(code: Code) -> bool:
    """i -> Tk(i) is injective onto exactly the irreducible trunks, checked
    on the whole trunk lattice.  Reference for is_reduced, which decides the
    same from trivial and redundant neurons alone."""
    st = [t.member_masks for _, t in simple_trunks(code)]
    if any(not t for t in st) or len(set(st)) != len(st):
        return False
    return set(st) == {t.member_masks for t in irreducible_trunks(code)}


def intersection_closure(code: Code) -> Code:
    masks = set(code.mask_set)
    frontier = True
    while frontier:
        frontier = False
        for a, b in itertools.combinations(sorted(masks), 2):
            if a & b not in masks:
                masks.add(a & b)
                frontier = True
    return Code(code.n, masks)


def all_nonempty_codes(n: int, max_words: int):
    """Every code on [n] with 1..max_words words, as Code objects."""
    universe = list(range(1 << n))
    for k in range(1, max_words + 1):
        for combo in itertools.combinations(universe, k):
            yield Code(n, combo)


def induced_image_words(code: Code, trunk_members_list) -> set[int]:
    """Word masks of the map c -> {j : c in T_j}, computed with plain bit
    twiddling (kept separate from the library's Morphism machinery so the
    enumeration tests have an independent reference)."""
    out = set()
    for c in code.mask_set:
        w = 0
        for j, members in enumerate(trunk_members_list):
            if c in members:
                w |= 1 << j
        out.add(w)
    return out


def image_signature(words_count: int, chosen) -> frozenset[int]:
    """Image words of the morphism defined by the chosen word-index trunks,
    each rebuilt from every trunk.  Reference for the word images the
    enumeration walk updates one trunk at a time."""
    out = set()
    for k in range(words_count):
        img = 0
        for j, t in enumerate(chosen):
            if t >> k & 1:
                img |= 1 << j
        out.add(img)
    return frozenset(out)
