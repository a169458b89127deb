"""Shared generators for the property tests.  Everything is seeded so
failures replay exactly."""

import functools
import itertools
import math
import os
import random
import struct
import subprocess
import sys
from collections.abc import Collection
from pathlib import Path

from codecat import (Code, Morphism, ResourceCapError, Trunk, canonical_form, simple_trunks,
                     topology, trunk_of)
from codecat.codes import MAX_NEURONS, mask_members
from codecat.enumeration import _canonical_of_reduced_masks, _index_pool, _walk
from codecat.reduction import DEFAULT_MAX_NODES, ReductionResult
from codecat.trunks import _bit_indices, _index_members, _trunk_family_masksets

SRC = Path(__file__).resolve().parents[1] / "src"


def python(*argv: str) -> subprocess.CompletedProcess:
    """`python -W error *argv` in a fresh interpreter, with the package
    imported from this checkout."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("CODECAT_CACHE_DIR", None)
    return subprocess.run([sys.executable, "-W", "error", *argv], capture_output=True, env=env)


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


def random_relabelling(rng: random.Random, code: Code) -> Code:
    """code with its neurons permuted at random."""
    perm = list(range(1, code.n + 1))
    rng.shuffle(perm)
    return Code(code.n, [[perm[i - 1] for i in w] for w in code.words])


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


def power_set_with_copy(n: int) -> Code:
    """The power set on [n] with neuron n+1 a copy of neuron 1."""
    return Code(n + 1, [w | (w & 1) << n for w in range(1 << n)])


def trunk_family_by_codewords(code: Code, cap: int | None = None) -> dict[int, int]:
    """{generator mask: word-index mask of Tk(generator)} for every nonempty
    trunk, from the intersection closure of the codewords, each trunk found
    by scanning every word.  Refuses, as the library does, when the trunks
    and the empty trunk number more than cap.  Reference for
    trunks._trunk_family_masksets, which closes the simple trunks instead."""
    closed: set[int] = set()
    for w in code.masks:
        closed |= {g & w for g in closed}
        closed.add(w)
    if cap is not None and len(closed) + 1 > cap:
        raise ResourceCapError(f"{len(closed) + 1} trunks exceed the cap of {cap}")
    return {g: sum(1 << k for k, w in enumerate(code.masks) if w & g == g)
            for g in closed}


def all_trunks_by_codewords(code: Code) -> list[Trunk]:
    """Every trunk, decoded by scanning every word and sorted by
    Trunk.sort_key.  Reference for all_trunks."""
    out = [Trunk(frozenset(w for k, w in enumerate(code.masks) if t >> k & 1), g)
           for g, t in trunk_family_by_codewords(code).items()]
    out.append(Trunk(frozenset()))
    out.sort(key=Trunk.sort_key)
    return out


def irreducible_trunks_by_lattice(code: Code) -> list[Trunk]:
    """Irreducible trunks found on the whole lattice: Tk(g) is irreducible iff
    the union u of the generators strictly inside g is a generator other than
    g.  Reference for irreducible_trunks, which tests the simple trunks alone.

    Larger trunks have smaller generators, and Tk(a) & Tk(b) = Tk(a | b).  So
    Tk(g) is the intersection of its strict supersets iff Tk(u) = Tk(g).  The
    generator of Tk(u) lies between u and g; unless it is g it is a
    generator strictly inside g, hence u itself.
    """
    lattice = trunk_family_by_codewords(code)
    out = []
    for g, t in lattice.items():
        u = 0
        for h in lattice:
            if h != g and h & g == h:
                u |= h
        if u != g and u in lattice:
            out.append(Trunk(frozenset(w for k, w in enumerate(code.masks) if t >> k & 1), g))
    out.sort(key=lambda tr: mask_members(tr.generator_mask))
    return out


def all_trunks_checked(code: Code) -> list[Trunk]:
    """all_trunks with every Trunk built by the checked constructor, which
    intersects its members to test the generator, and sorted by index
    lists.  Reference for all_trunks, which builds each Trunk from the
    lattice's generator and sorts by bytes."""
    words = code.masks
    indexed = [(_bit_indices(t), g) for g, t in _trunk_family_masksets(code).items()]
    indexed.sort(key=lambda e: (len(e[0]), e[0]))
    return [Trunk(frozenset())] + [Trunk(frozenset(words[k] for k in idx), g)
                                   for idx, g in indexed]


def reduce_code_checked(code: Code) -> ReductionResult:
    """reduce_code on the irreducible trunks found on the whole lattice,
    through the checked Morphism constructor, which tests every trunk with
    is_trunk; a reduced code keeps its simple trunks, built by trunk_of, in
    neuron order.  Reference for reduce_code, which skips the rechecks and
    puts the irreducible trunks of a reduced code back in neuron order."""
    trunks = irreducible_trunks_by_lattice(code)
    already = len(trunks) == code.n
    if already:
        trunks = [t for _, t in simple_trunks(code)]
    iso = Morphism(code, tuple(trunks))
    origins = tuple(frozenset(mask_members(t.generator_mask)) for t in trunks)
    return ReductionResult(code if already else iso.image(), iso, origins)


def redundant_neurons_by_trunk_of(code: Code) -> list[tuple[int, frozenset[int]]]:
    """Each nontrivial neuron i whose simple trunk is the trunk of its
    generator minus i, with that witness, by building both trunks with
    trunk_of.  Reference for redundant_neurons, which works on word-index
    masks."""
    out = []
    for i, t in simple_trunks(code):
        if not t.member_masks:
            continue
        witness = t.generator_mask & ~(1 << (i - 1))
        if trunk_of(code, witness).member_masks == t.member_masks:
            out.append((i, frozenset(mask_members(witness))))
    return out


def is_reduced_by_lattice(code: Code) -> bool:
    """i -> Tk(i) is injective onto exactly the irreducible trunks, checked
    on the whole trunk lattice.  Reference for is_reduced, which decides the
    same from trivial and redundant neurons alone."""
    st = [frozenset(m for m in code.mask_set if m >> i & 1) for i in range(code.n)]
    if any(not t for t in st) or len(set(st)) != len(st):
        return False
    return set(st) == {t.member_masks for t in irreducible_trunks_by_lattice(code)}


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


def maximal_word_meets_by_subsets(code: Code) -> set[int]:
    """The intersection of every nonempty subset of the code's maximal
    words.  is_max_intersection_complete(code) must be whether they are all
    words; this reference lists all 2**k - 1 subsets of the k maximal words."""
    masks = code.mask_set
    maximal = [m for m in masks if not any(o != m and o & m == m for o in masks)]
    return {functools.reduce(int.__and__, sub) for r in range(1, len(maximal) + 1)
            for sub in itertools.combinations(maximal, r)}


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


def stays_irredundant_by_pairs(chosen, t) -> bool:
    """Would chosen + [t] still have no member equal to an intersection of
    the others?  Checks every member against the intersection of its strict
    supersets, whatever the order of the family.  Reference for
    enumeration._stays_irredundant, which checks t alone."""
    fam = chosen + [t]
    for x in fam:
        acc = None
        for y in fam:
            if y != x and y & x == x:
                acc = y if acc is None else acc & y
        if acc == x:
            return False
    return True


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


def decode_label_key(key: bytes) -> tuple[int, frozenset[int]]:
    """The (m, masks) pair a labelling cache key names: its first byte is m,
    and the rest is the masks in strictly ascending order, each big-endian
    in max(1, ceil(m / 8)) bytes.  Reference for enumeration._label_key;
    AssertionError for a key that no pair gives."""
    m, body = key[0], key[1:]
    width = max(1, -(-m // 8))
    assert len(body) % width == 0, key
    masks = [int.from_bytes(body[i:i + width], "big") for i in range(0, len(body), width)]
    assert all(a < b for a, b in zip(masks, masks[1:])), key
    assert all(w >> m == 0 for w in masks), key
    return m, frozenset(masks)


def cache_record(n: int, masks, count: int | None = None) -> bytes:
    """One record of a cache entry's images payload: the word count
    (len(masks) unless count is given) in 4 big-endian bytes, one byte for
    n, then the masks in the order given, each big-endian in
    max(1, ceil(n / 8)) bytes.  Makes damaged records too: any count, n up
    to 255, masks up to that width."""
    width = max(1, -(-n // 8))
    return ((len(masks) if count is None else count).to_bytes(4, "big") + bytes([n])
            + b"".join(w.to_bytes(width, "big") for w in masks))


def cache_entry(census, index: int | None = None) -> bytes:
    """The cache entry of census, spelled out without the library's
    encoder: a 28-byte head of the explored and pruned counts in 8 bytes
    each, the wall time as an 8-byte IEEE double and the source's index
    among the images (or index, if given) in 4 bytes, all big-endian; then
    the images' records in census order, each with its masks ascending.
    Reference for enumeration._entry_bytes."""
    stats = census.stats
    k = census.images.index(census.source.code) if index is None else index
    return (stats.explored.to_bytes(8, "big") + stats.pruned.to_bytes(8, "big")
            + struct.pack(">d", stats.wall_time) + k.to_bytes(4, "big")
            + b"".join(cache_record(c.n, sorted(c.masks)) for c in census.images))


def entry_codes_by_loop(data: bytes) -> tuple[Code, list[Code], tuple[int, int, float]]:
    """The source, images and (explored, pruned, wall time) of the cache
    entry data, each code built as it is read from the records: the head
    must be whole, the wall time finite and not negative, each record must
    fit in the entry, n must be in 0..MAX_NEURONS and every mask in
    0..2**n - 1, each mask read whole as an int, the masks strictly
    ascending, and the index must name an image.  ValueError otherwise.
    Reference for enumeration._entry_records, which checks only the first
    byte of the last mask, compares the masks as bytes and builds no
    code."""
    if len(data) < 28:
        raise ValueError("short head")
    (wall,) = struct.unpack(">d", data[16:24])
    if not (math.isfinite(wall) and wall >= 0):
        raise ValueError("wall time")
    images = []
    i, end = 28, len(data)
    while i < end:
        start = i + 5
        if start > end:
            raise ValueError("partial record")
        n = data[i + 4]
        width = max(1, -(-n // 8))
        i = start + int.from_bytes(data[i:i + 4], "big") * width
        if i > end or n > MAX_NEURONS:
            raise ValueError("record past the entry, or n too large")
        masks = [int.from_bytes(data[j:j + width], "big") for j in range(start, i, width)]
        if any(w >> n for w in masks):
            raise ValueError("mask beyond n")
        if any(a >= b for a, b in zip(masks, masks[1:])):
            raise ValueError("masks not strictly ascending")
        images.append(Code(n, masks))
    k = int.from_bytes(data[24:28], "big")
    if k >= len(images):
        raise ValueError("source index")
    stats = int.from_bytes(data[:8], "big"), int.from_bytes(data[8:16], "big"), wall
    return images[k], images, stats


def difference_by_censuses(target: Code, baselines: list[Code], census) -> tuple[Code, ...]:
    """The images in target's full census that are in no baseline's full
    census; census(code) gives the images of code's census, from
    enumerate_reduced_images or a memo of it.  Reference for
    image_set_difference, which walks each baseline only for the target
    images it has not yet covered."""
    covered: set[Code] = set()
    for b in baselines:
        covered.update(census(b))
    return tuple(c for c in census(target) if c not in covered)


def membership_by_full_walk(source: Code, target: Code) -> Morphism | None:
    """The first node of the walk, down to the reduced target's size, whose
    image has the target's canonical form, canonicalising every node of
    that size.  Reference for verify_image_membership, which canonicalises
    only the nodes its filter key lets through."""
    target = canonical_form(target).code
    words, pool = _index_pool(source, None)
    images = [0] * len(words)
    labels: dict = {}
    for chosen in _walk(pool, [_bit_indices(t) for t in pool], [], images, 0, [0, 0], target.n):
        if (len(chosen) == target.n
                and _canonical_of_reduced_masks(target.n, frozenset(images), labels) == target):
            return Morphism(source, tuple(Trunk(_index_members(words, t)) for t in chosen))
    return None


def min_relabeling_by_swaps(masks: Collection[int], n: int):
    """Lexicographically least relabeling of a code on neurons 1..n, given by
    its word masks.  The search as it stood before it recorded
    automorphisms: it prunes only siblings that a swap of two neurons maps
    onto each other.  Reference for reduction._min_relabeling, which must
    return the same canonical masks and the same perm.

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


def min_relabeling_full_sibling_scan(masks: Collection[int], n: int,
                                      max_nodes: int | None = DEFAULT_MAX_NODES):
    """Lexicographically least relabeling of a code on neurons 1..n, given by
    its word masks.  The search as it stood before its sibling loop stopped
    at the first sibling the bound cuts and before it read the canonical
    words off the best leaf's keys, plus a count of the nodes it visits.
    Reference for reduction._min_relabeling, which must return the same
    canonical masks and perm and visit no more nodes.

    Returns (canonical word masks, perm, nodes) where perm[i-1] is the new
    label of neuron i and nodes is the number of nodes visited.  Branch and
    bound over which old neuron gets each new label in turn, siblings in
    order of their partial word lists.  Each word is one integer order key:
    label q is bit n-q of the word's rank, so (size << n) | (full ^ rank)
    sorts exactly like (size, sorted labels padded with an infinite label);
    a label not yet given is a missing bit.  A branch is cut when a lower
    bound on every completion of its word list already loses to the
    incumbent (see provably_worse).

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
    holders = [[w for w, m in enumerate(words) if m >> o & 1] for o in range(n)]
    mask_set = frozenset(words)
    label = [0] * n  # label[o] is the new label of neuron o+1; 0 while unset
    best_key: list[int] | None = None
    best_perm: tuple[int, ...] = ()
    # Automorphisms found so far: (mask of the neurons moved, [(o, image)]).
    autos: list[tuple[int, list[tuple[int, int]]]] = []
    left = max_nodes
    nodes = 0

    def give(o: int, bit: int) -> None:
        for w in holders[o]:
            keys[w] ^= bit

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
        nonlocal best_key, best_perm, left, nodes
        nodes += 1
        if left is not None:
            if not left:
                raise ResourceCapError(
                    f"canonical labelling search exceeded its cap of {max_nodes} "
                    "nodes; raise max_nodes to search anyway")
            left -= 1
        if q == n:
            if best_key is None or sig < best_key:
                best_key, best_perm = sig, tuple(label)
            elif sig == best_key:
                # best_perm^-1 . label maps the code onto itself.
                old = [0] * n
                for o, new in enumerate(best_perm):
                    old[new - 1] = o
                pairs = [(o, old[label[o] - 1]) for o in range(n)
                         if old[label[o] - 1] != o]
                autos.append((sum(1 << o for o, _ in pairs), pairs))
            return
        bit = 1 << (n - q - 1)  # label q+1
        found = len(autos)
        root = orbits(fixed) if found else None
        cands = []
        for o in range(n):
            if not label[o] and (root is None or root[o] == o):
                give(o, bit)
                cands.append((sorted(keys), o))
                give(o, bit)
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
                continue
            label[o] = q + 1
            give(o, bit)
            rec(q + 1, sig, fixed | 1 << o)
            give(o, bit)
            label[o] = 0

    rec(0, sorted(keys), 0)
    canon = [sum(1 << (best_perm[o] - 1) for o in range(n) if m >> o & 1)
             for m in words]
    return canon, best_perm, nodes


def mask_members_by_bits(mask: int) -> tuple[int, ...]:
    """Sorted 1-based neuron indices of a mask, one bit at a time.
    Reference for codes.mask_members, which reads them through a byte
    table."""
    out = []
    i = 1
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return tuple(out)


def tuple_word_key(mask: int) -> tuple[int, tuple[int, ...]]:
    """The package's word order spelled out: size, then the sorted 1-based
    members compared lexicographically.  Reference for the order of
    Code.masks."""
    members = tuple(i + 1 for i in range(MAX_NEURONS) if mask >> i & 1)
    return (len(members), members)


def code_key_by_pairs(code: Code) -> tuple:
    """The census order with each word as a (popcount, mask) pair.
    Reference for enumeration._code_key, which packs each pair into one
    integer."""
    words = tuple((m.bit_count(), m) for m in code.masks)
    return (len(words), words, code.n)


def mask_by_full_checks(word: list, n: int | None) -> int:
    """The bitmask of a list of neuron indices, every index checked in full
    as codes.word_mask did before its plain-int fast test.  Reference for
    that fast test: same mask, or the same ValueError message."""
    width = MAX_NEURONS if n is None else n
    limit = f"the cap of {MAX_NEURONS}" if n is None else f"declared n={n}"
    mask = 0
    for i in word:
        if not isinstance(i, int) or isinstance(i, bool) or i < 1:
            raise ValueError(f"neuron index must be a positive int, got {i!r}")
        if i > width:
            raise ValueError(f"neuron index {i} exceeds {limit}")
        mask |= 1 << (i - 1)
    return mask


def code_from_json_lists_by_full_checks(data, declared: int | None) -> Code:
    """A code from the word lists of a JSON code, each word read by
    mask_by_full_checks.  Reference for codes._words_from_json_lists."""
    if not isinstance(data, list) or not all(isinstance(w, list) for w in data):
        raise ValueError("JSON code must be a list of lists of neuron indices")
    masks = [mask_by_full_checks(w, declared) for w in data]
    n = max(masks, default=0).bit_length() if declared is None else declared
    return Code(n, masks)


def free_pairs_by_scan(faces: frozenset[int]) -> list[tuple[int, int]]:
    """(tau, F) with tau nonempty and properly contained in exactly the one
    face F, found by scanning every face for each tau; ordered by
    tuple_word_key of tau.  Reference for topology._free_pairs, which looks
    up only the one-vertex covers."""
    out = []
    for tau in faces:
        if tau == 0:
            continue
        over = [f for f in faces if f != tau and f & tau == tau]
        if len(over) == 1:
            out.append((tau, over[0]))
    out.sort(key=lambda p: tuple_word_key(p[0]))
    return out


def collapses_by_scan(faces: frozenset[int], memo: dict[frozenset[int], bool],
                      budget: list[int]) -> bool:
    """Can the downward-closed faces collapse to a single vertex?  The
    collapse search with every state's free pairs listed from scratch by
    free_pairs_by_scan and every simplex found from its facets, with the
    library's memo and state budget: a state not in the memo costs one unit
    of budget[0], and ResourceCapError is raised once it runs out.
    Reference for topology._collapses_to_point, which derives each child's
    free pairs from its parent's and must visit the same states in the same
    order."""
    hit = memo.get(faces)
    if hit is not None:
        return hit
    budget[0] -= 1
    if budget[0] < 0:
        raise ResourceCapError("reference collapse search exceeded its budget")
    facets = [f for f in faces if not any(g != f and g & f == f for g in faces)]
    if len(facets) == 1 and facets[0]:
        result = True
    else:
        result = any(collapses_by_scan(faces - {t, f}, memo, budget)
                     for t, f in free_pairs_by_scan(faces))
    memo[faces] = result
    return result


def is_collapsible_by_scan(k: topology.SimplicialComplex) -> bool:
    """topology.is_collapsible under the default face cap, through
    collapses_by_scan."""
    cap = topology.DEFAULT_FACE_CAP
    if not k.facets:
        return False
    return collapses_by_scan(k.face_masks(cap), {}, [cap])


def reduced_homology_by_ranks(k: topology.SimplicialComplex,
                              cap: int = topology.DEFAULT_FACE_CAP) -> dict[int, int]:
    """Reduced GF(2) Betti numbers from the ranks of boundary matrices whose
    faces are indexed in sorted order, cones included.  Reference for
    topology.f2_reduced_homology, which takes no rank for a cone."""
    if not k.facets:
        return {}
    by_dim: dict[int, list[int]] = {}
    for f in k.face_masks(cap):
        by_dim.setdefault(f.bit_count() - 1, []).append(f)
    top = max(by_dim)
    index: dict[int, dict[int, int]] = {}
    for d, fs in by_dim.items():
        fs.sort(key=mask_members)
        index[d] = {f: i for i, f in enumerate(fs)}
    ranks: dict[int, int] = {}
    for d in range(0, top + 1):
        rows = []
        for f in by_dim[d]:
            row = 0
            for i in mask_members(f):
                row |= 1 << index[d - 1][f & ~(1 << (i - 1))]
            rows.append(row)
        ranks[d] = topology._gf2_rank(rows)
    return {d: len(by_dim[d]) - ranks.get(d, 0) - ranks.get(d + 1, 0)
            for d in range(-1, top + 1)}


def link_by_maximal_candidates(k: topology.SimplicialComplex,
                               smask: int) -> topology.SimplicialComplex:
    """The link of the face smask: F - smask over the facets F containing it,
    passed through from_masks's maximality filter.  Reference for
    topology.link, which reads the facets off without that filter."""
    return topology.SimplicialComplex.from_masks(
        k.n, {f & ~smask for f in k.facets if f & smask == smask})


def obstruction_report_by_references(code: Code) -> topology.ObstructionReport:
    """local_obstruction_report spelled out without its shortcuts: every
    link, built by link_by_maximal_candidates, a simplex too, goes through
    reduced_homology_by_ranks and, when acyclic, is_collapsible_by_scan."""
    k = topology.simplicial_complex(code)
    entries = []
    for smask in sorted(k.face_masks() - code.mask_set, key=tuple_word_key):
        lk = link_by_maximal_candidates(k, smask)
        betti = reduced_homology_by_ranks(lk)
        if any(betti.values()):
            coll, verdict = False, "obstruction_first_kind"
        else:
            try:
                coll = is_collapsible_by_scan(lk)
            except ResourceCapError:
                coll = None
            verdict = {True: "no_obstruction", None: "contractibility_unknown",
                       False: "obstruction_second_kind_only"}[coll]
        entries.append(topology.ObstructionEntry(
            frozenset(mask_members(smask)), lk.facet_words, tuple(sorted(betti.items())),
            coll, verdict))
    verdicts = {e.verdict for e in entries}
    good = ("no" if "obstruction_first_kind" in verdicts
            else "yes" if verdicts <= {"no_obstruction"} else "unknown")
    colls = {e.collapsible for e in entries}
    great = True if colls <= {True} else False if False in colls else None
    return topology.ObstructionReport(code, tuple(entries), good, great)
