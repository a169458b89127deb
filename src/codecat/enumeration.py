"""Exhaustive enumeration of the reduced images of a code.

Every image of a morphism, once reduced, is the image of the morphism
defined by an irredundant set of nonempty proper trunks (no member equal to
an intersection of the others): such images have no trivial neurons (no
empty trunk), no neuron redundant to the empty set (no whole-code trunk),
and no neuron redundant to a nonempty set (irredundancy), while the
reduction of an arbitrary image is the image under the preimages of its
irreducible trunks, which form exactly such a family.  Irredundancy is
downward closed, so a fixed-order depth-first subset walk with an
incremental irredundancy check visits every family exactly once.

Trunks are handled as word-index bitmasks of the source code, images are
canonicalized (they are already reduced) and deduplicated by canonical form.

The walk carries the image of every source word down the tree: choosing
the trunk at depth d sets bit d in the images of its words, and backing out
clears it, so a node's image is read off without revisiting its trunks.
Canonical forms come from a labelling cache keyed by _label_key(k, image
words): one bytes object, k and then the sorted words at a fixed width,
much smaller than a (k, frozenset) tuple.  An image the cache lacks is
looked up a second time under the key of its invariant relabelling: the
image relabelled so that its neurons are sorted by the sizes of the words
that hold them, the vertex-invariant refinement step of
individualise-and-refine labelling (McKay and Piperno, 2014).  That key
names a relabelling of the image, so images with one key are isomorphic
and share a canonical form, and isomorphic images reached through other
trunks often share the key; only an image that misses both lookups is
searched.  The search returns the canonical words in Code.masks order, so
the canonical code is built without checking or sorting its words again,
and neither the census's final sort nor a cache write sorts them.  A
census run with a cache of its own frees it before that sort.
One cache serves every census and walk of an image_set_difference call,
the cached censuses that miss included; no cache outlives its call.
Every walk runs in the calling process.

A query that only needs to know whether some node matches a target rules
nodes out first by a cheaper isomorphism invariant, _filter_key: the word
count and the sorted per-neuron lists of held-word sizes.  It is not a
relabelling, so it never keys the cache.  _cover is the one targeted
walk: it walks a code against the images not yet covered, canonicalising
only the nodes whose filter key names one of them.  An uncached
image_set_difference runs it on each baseline against the target's
images, and verify_image_membership is _cover with the target alone.
With a cache directory every census stays full, because a miss writes a
whole entry.

A cached census is one binary file per canonical form of the source, named
by a hash of the source's record.  The entry is a fixed head (the census's
explored and pruned counts, its wall time and the source's index among the
records) and then the images' records, each a code's word count in 4 bytes
and then its _label_key, so the labelling cache and the cache files share
one byte layout.  A hit checks the head and reads the records in one loop,
checking that each fits the entry, its n, that its masks ascend strictly and
the first byte of the last, and keeps each record as bytes; an entry that
fails a check is recomputed.  cached_enumerate then builds each code from
its record without reading its words again.  A cached image_set_difference
builds almost none: an entry's records are written from canonical codes and
checked to be spelled as written, so two are equal exactly when their codes
are, and the difference is taken on the records, a code being built only for
each target record that no baseline census holds.  Its lookups share a dict
of the records already read or computed (cached_enumerate's _entries), so
each entry is read at most once per call, and a miss keeps the records its
entry was written from; nothing of it outlives the call.
"""

from __future__ import annotations

import math
import operator
import os
import struct
import time
from dataclasses import dataclass
from pathlib import Path

from .codes import MAX_NEURONS, Code, _json_list, code_to_obj, parse_code
from .exceptions import DEFAULT_TRUNK_CAP, _check_cap
from .morphisms import Morphism
from .reduction import CanonicalForm, _min_relabeling, canonical_form
from .trunks import (_bit_indices, _generator, _index_trunks, _simple_index_masks,
                     _trunk_family_masksets)

# Part of every cache file's name: a new format or canonical engine gets a
# new version, so entries of an older one are never read (nor overwritten).
_CACHE_FORMAT = b"codecat-images-5"
# The head of a cache entry: the census's explored and pruned counts, its
# wall time and the source's index among the records that follow.
_ENTRY_HEAD = struct.Struct(">QQdI")
# The head of a cache record: its word count and n.
_RECORD_HEAD = struct.Struct(">IB")


@dataclass(frozen=True)
class EnumerationStats:
    explored: int   # irredundant subsets visited (images computed)
    pruned: int     # rejected subset extensions
    wall_time: float


@dataclass(frozen=True)
class ImageSet:
    """All reduced images of a code, up to isomorphism.

    images holds canonical codes sorted by the package's total order; it
    always contains the canonical form of the source itself and the one-word
    code {empty} on zero neurons (the image of the empty trunk list).
    """

    source: CanonicalForm
    images: tuple[Code, ...]
    stats: EnumerationStats


def _code_key(code: Code) -> tuple:
    # The census order: word count, then each word by (popcount, mask), then
    # n.  Every mask is below 2**MAX_NEURONS, so one integer per word,
    # popcount << MAX_NEURONS | mask, sorts exactly like that pair.
    masks = code.masks
    return (len(masks), tuple([m.bit_count() << MAX_NEURONS | m for m in masks]), code.n)


def _index_pool(code: Code, max_trunks: int):
    """Distinct nonempty proper trunks as word-index masks, in a fixed order.

    Also enforces the cap on the total trunk count (the whole code and the
    empty trunk included), before the lattice is complete.
    """
    words = code.masks
    family = _trunk_family_masksets(code, max_trunks).values()
    full = (1 << len(words)) - 1
    pool = sorted((t for t in family if t != full), key=lambda t: (-t.bit_count(), t))
    return words, pool


def _stays_irredundant(chosen: list[int], t: int) -> bool:
    """Would chosen + [t] still have no member equal to an intersection of
    the others?  A member x is such an intersection iff the intersection of
    its strict supersets in the family equals x.

    Relies on the walk's order: chosen is irredundant and t comes after all
    of it in the pool, which is sorted by descending size, so t is a strict
    superset of no member.  Then only t itself can be the intersection of
    its strict supersets."""
    acc = -1
    for y in chosen:
        if y & t == t:
            acc &= y
    return acc != t


def _image_signature(images: list[int]) -> frozenset[int]:
    """Image words of the morphism defined by the chosen trunks, as masks on
    the new neurons 1..len(chosen), from the walk's per-word images."""
    return frozenset(images)


def _held_sizes(m: int, masks: frozenset[int]) -> list[list[int]]:
    """For each neuron of the code on 1..m given by masks, the sorted sizes
    of the words that hold it."""
    held: list[list[int]] = [[] for _ in range(m)]
    for w in masks:
        size = w.bit_count()
        while w:
            low = w & -w
            held[low.bit_length() - 1].append(size)
            w ^= low
    for sizes in held:
        sizes.sort()
    return held


def _invariant_key(m: int, masks: frozenset[int]) -> bytes:
    """The _label_key of the code on 1..m given by masks, relabelled so
    that its neurons are sorted by the sorted sizes of the words that hold
    them, ties kept in their old order.

    The sort key is an isomorphism invariant, so isomorphic codes often get
    one key; and the key names a relabelling of the code, so it always has
    the code's canonical form.  A relabelling keeps the words distinct, so
    they go to _label_key as a list."""
    held = _held_sizes(m, masks)
    bits = [0] * m
    for new, o in enumerate(sorted(range(m), key=held.__getitem__)):
        bits[o] = 1 << new
    relabelled = []
    for w in masks:
        v = 0
        while w:
            low = w & -w
            v |= bits[low.bit_length() - 1]
            w ^= low
        relabelled.append(v)
    return _label_key(m, relabelled)


def _filter_key(m: int, masks: frozenset[int]) -> tuple:
    """(m, word count, the sorted per-neuron lists of _held_sizes) of the
    code on 1..m given by masks.

    An isomorphism invariant but not a relabelling: isomorphic codes always
    share it, codes that share it need not be isomorphic.  It only rules
    codes out, so it never keys the labelling cache."""
    return m, len(masks), tuple(sorted(map(tuple, _held_sizes(m, masks))))


def _label_key(m: int, masks) -> bytes:
    """The labelling cache's key for the code on 1..m given by the distinct
    masks: one byte for m, then the masks in ascending order, each at a
    fixed width of max(1, ceil(m/8)) bytes, big-endian.

    Injective: m fixes the width, so the key gives back m and every mask.
    The width is never 0, so the codes {} and {0} on no neurons differ."""
    if m <= 8:
        return bytes((m, *sorted(masks)))
    width = (m + 7) // 8
    return bytes((m,)) + b"".join([w.to_bytes(width, "big") for w in sorted(masks)])


def _canonical_of_reduced_masks(m: int, masks: frozenset[int],
                                cache: dict) -> Code:
    """Canonical form of an already-reduced code given by masks on 1..m.

    cache maps _label_key(m, masks) keys to canonical forms.  When the
    code's own key misses, the key of its invariant relabelling is looked
    up, and the lex-min search runs only if that misses too; the answer is
    then stored under both keys.  This is sound because _label_key is
    injective, so every key in the cache names one code, a relabelling of
    each code stored under it: two codes with one key are isomorphic, so
    they have the same canonical form."""
    raw = _label_key(m, masks)
    hit = cache.get(raw)
    if hit is None:
        key = _invariant_key(m, masks)
        hit = cache.get(key)
        if hit is None:
            hit = cache[key] = Code._of_ordered_masks(m, _min_relabeling(masks, m)[0])
        cache[raw] = hit
    return hit


def _walk(pool: list[int], members: list[list[int]], chosen: list[int],
          images: list[int], start: int, counters: list[int], depth: int | None = None):
    """Yield chosen and each irredundant extension of it by trunks from
    pool[start:], at most depth trunks long if depth is given, depth first
    in pool order.

    chosen and images are updated in place, so a consumer must copy them to
    keep them: images[k] is the image of source word k under the chosen
    trunks, bit j set iff word k lies in chosen[j].  members[i] lists the
    words of pool[i].  counters[0] counts the nodes yielded, counters[1] the
    rejected extensions.
    """
    yield chosen
    counters[0] += 1
    if len(chosen) == depth:
        return
    bit = 1 << len(chosen)
    for i in range(start, len(pool)):
        if _stays_irredundant(chosen, pool[i]):
            chosen.append(pool[i])
            for k in members[i]:
                images[k] |= bit
            yield from _walk(pool, members, chosen, images, i + 1, counters, depth)
            for k in members[i]:
                images[k] ^= bit
            chosen.pop()
        else:
            counters[1] += 1


def _collect(nodes, images: list[int], found: set, labels: dict) -> None:
    for chosen in nodes:
        sig = _image_signature(images)
        found.add(_canonical_of_reduced_masks(len(chosen), sig, labels))


def _subtree_job(args):
    # The census no longer calls this; perfbench's pool_tasks times each job.
    words_count, pool, first = args
    members = [_bit_indices(t) for t in pool]
    images = [0] * words_count
    for k in members[first]:
        images[k] = 1
    found: set = set()
    counters = [0, 0]
    nodes = _walk(pool, members, [pool[first]], images, first + 1, counters)
    _collect(nodes, images, found, {})
    return counters[0], counters[1], [(c.n, c.masks) for c in found]


def enumerate_reduced_images(code: Code, *, jobs: int = 1,
                             max_trunks: int | None = DEFAULT_TRUNK_CAP,
                             _labels: dict | None = None,
                             _source: CanonicalForm | None = None) -> ImageSet:
    """The set {canonical_form(image(f)) : f a morphism out of code}.

    Deterministic for a given input; refuses codes whose trunk family
    exceeds max_trunks.  jobs is accepted for compatibility and unused: the
    walk runs in this process.  _labels is the labelling cache of
    _canonical_of_reduced_masks to use, for callers that run several
    censuses, and _source is canonical_form(code) when the caller already
    holds it.
    """
    _check_cap(max_trunks, "max_trunks")
    t0 = time.monotonic()
    words, pool = _index_pool(code, max_trunks)
    labels = {} if _labels is None else _labels
    members = [_bit_indices(t) for t in pool]
    images = [0] * len(words)
    found: set = set()
    counters = [0, 0]
    _collect(_walk(pool, members, [], images, 0, counters), images, found, labels)
    # Drop this census's own cache (a caller's _labels lives on) before the
    # sort keys are built, so the two are never alive together.
    del labels
    stats = EnumerationStats(counters[0], counters[1], time.monotonic() - t0)
    source = canonical_form(code) if _source is None else _source
    return ImageSet(source, tuple(sorted(found, key=_code_key)), stats)


def verify_image_membership(source: Code, target: Code,
                            max_trunks: int | None = DEFAULT_TRUNK_CAP) -> Morphism | None:
    """A morphism out of source whose image is isomorphic to target, if one
    exists; None otherwise.  This is _cover with the reduced target alone
    left uncovered: the witness is the first node that covers it, in the
    fixed enumeration order.  Its trunks come from source's lattice, so they
    are not checked again."""
    _check_cap(max_trunks, "max_trunks")
    target = canonical_form(target).code
    for chosen in _cover(source, {_filter_key(target.n, target.mask_set): {target}}, {},
                         max_trunks):
        simple = _simple_index_masks(source)
        pairs = [(_generator(simple, t), t) for t in chosen]
        return Morphism._of_checked_trunks(source, _index_trunks(source.masks, pairs))
    return None


def _cover(code: Code, uncovered: dict[tuple, set[Code]], labels: dict,
           max_trunks: int | None):
    """Remove from uncovered every image that is an image of code, yielding
    the walk's live chosen list (word-index masks of the trunks) each time a
    node covers an image left, and only then.

    uncovered maps _filter_key values to canonical images; an emptied entry
    is deleted.  Irredundant k trunks give a reduced image on k neurons, so
    the walk goes only as deep as the largest image left, a node's image is
    built only when an image left has as many neurons, and it is
    canonicalised only when its filter key names an entry, since no other
    node can be isomorphic to an image left; it stops once uncovered is
    empty.  The trunk cap is checked first, so a code over it refuses even
    when uncovered is already empty."""
    words, pool = _index_pool(code, max_trunks)
    if not uncovered:
        return
    shapes = {key[:2] for key in uncovered}
    sizes = {m for m, _ in shapes}
    depth = max(sizes)
    images = [0] * len(words)
    for chosen in _walk(pool, [_bit_indices(t) for t in pool], [], images, 0, [0, 0], depth):
        k = len(chosen)
        if k not in sizes:
            continue
        sig = _image_signature(images)
        if (k, len(sig)) not in shapes:
            continue
        key = _filter_key(k, sig)
        left = uncovered.get(key)
        if left is None:
            continue
        image = _canonical_of_reduced_masks(k, sig, labels)
        if image not in left:
            continue
        left.remove(image)
        yield chosen
        if not left:
            del uncovered[key]
            if not uncovered:
                return
            shapes = {key[:2] for key in uncovered}
            sizes = {m for m, _ in shapes}


def image_set_difference(target: Code, baselines: list[Code], *, jobs: int = 1,
                         max_trunks: int | None = DEFAULT_TRUNK_CAP,
                         cache_dir: Path | str | None = None) -> tuple[Code, ...]:
    """Reduced images of target that are images of no baseline code, in the
    order of target's census.

    Every census and walk of one call shares one labelling cache.  Without
    cache_dir, the target's census is full but each baseline is only walked
    against the target images not yet covered (see _cover), so a baseline
    image is canonicalised only when its filter key matches one of them.
    With cache_dir every census is full, because a miss writes a whole
    entry.  The difference is then taken on the censuses' cache records,
    written from canonical codes and so equal exactly when their codes
    are, and a code is built only for each target record that no baseline
    census holds.  The call's lookups share one _entries dict of the records
    read or computed (see cached_enumerate), so each entry is read at most
    once however often the call names its class."""
    _check_cap(max_trunks, "max_trunks")
    labels: dict = {}
    kw = {"max_trunks": max_trunks, "_labels": labels}
    if cache_dir is not None:
        kw["_entries"] = {}
        mine = cached_enumerate(target, cache_dir, **kw)
        covered: set[bytes] = set()
        for b in baselines:
            covered.update(cached_enumerate(b, cache_dir, **kw))
        return tuple([_decoded(r) for r in mine if r not in covered])
    mine = enumerate_reduced_images(target, **kw).images
    uncovered: dict[tuple, set[Code]] = {}
    for c in mine:
        uncovered.setdefault(_filter_key(c.n, c.mask_set), set()).add(c)
    for b in baselines:
        for _ in _cover(b, uncovered, labels, max_trunks):
            pass
    left = set().union(*uncovered.values())
    return tuple(c for c in mine if c in left)


# ---------------------------------------------------------------------------
# on-disk cache

def default_cache_dir() -> Path:
    env = os.environ.get("CODECAT_CACHE_DIR")
    if env:
        return Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "codecat"


def image_set_to_obj(s: ImageSet) -> dict:
    return {
        "source": code_to_obj(s.source.code),
        "source_witness": list(s.source.witness),
        "images": [code_to_obj(c) for c in s.images],
        "stats": {"explored": s.stats.explored, "pruned": s.stats.pruned,
                  "wall_time": s.stats.wall_time},
    }


def image_set_from_obj(obj: dict) -> ImageSet:
    """The ImageSet obj spells as image_set_to_obj does; ValueError, KeyError
    or TypeError for a malformed one."""
    st = obj["stats"]
    stats = EnumerationStats(st["explored"], st["pruned"], st["wall_time"])
    wall = stats.wall_time
    if not (all(type(v) is int and v >= 0 for v in (stats.explored, stats.pruned))
            and type(wall) in (int, float) and 0 <= wall < math.inf):
        raise ValueError("enumeration stats must be two counts and a finite "
                         f"time, none negative, got {st!r}")
    code, *images = [parse_code(o) for o in [obj["source"],
                                             *_json_list(obj["images"], '"images"')]]
    witness = _json_list(obj["source_witness"], '"source_witness"')
    if not all(type(i) is int for i in witness) or sorted(witness) != list(range(1, code.n + 1)):
        raise ValueError(f'"source_witness" must be a permutation of 1..{code.n}')
    return ImageSet(CanonicalForm(code, tuple(witness)), tuple(images), stats)


def _record(c: Code) -> bytes:
    """A code's cache record: its word count in 4 bytes, big-endian, then
    its _label_key."""
    return len(c.mask_set).to_bytes(4, "big") + _label_key(c.n, c.mask_set)


def _decoded(record: bytes) -> Code:
    """The code a record checked by _entry_records spells.  Its word set is
    copied from a set, as Code builds it, so it keeps no resize slack."""
    n = record[4]
    if n <= 8:
        return Code._of_checked_masks(n, set(record[5:]))
    width = (n + 7) // 8
    return Code._of_checked_masks(n, {int.from_bytes(record[j:j + width], "big")
                                      for j in range(5, len(record), width)})


def _entry_bytes(s: ImageSet, records: list[bytes]) -> bytes:
    """The cache entry of a census whose images have the given records: the
    _ENTRY_HEAD of its stats and the source's index in the images, then the
    records in census order."""
    head = _ENTRY_HEAD.pack(s.stats.explored, s.stats.pruned, s.stats.wall_time,
                            s.images.index(s.source.code))
    return head + b"".join(records)


def _entry_records(data: bytes, source: bytes) -> tuple[list[bytes], EnumerationStats]:
    """The records and stats of the cache entry data of the census whose
    source has the record source.

    Each record is checked as Code checks its words and as _record writes
    them: it fits in the entry, n is in 0..MAX_NEURONS and the masks are
    strictly ascending, the last below 2**n.  The wall time must be finite
    and not negative, and the source index must name source.  Anything else
    raises ValueError, or struct.error for an entry shorter than its head."""
    explored, pruned, wall, k = _ENTRY_HEAD.unpack_from(data)
    if not 0 <= wall < math.inf:
        raise ValueError(f"a cache entry's wall time must be finite, not negative, got {wall}")
    records, head = [], _RECORD_HEAD.unpack_from
    # The one-byte masks of every record, each record's run of them without
    # its last (lows) and without its first (highs): they ascend strictly
    # when every low is below the high beside it.
    lows, highs = [], []
    i, end = _ENTRY_HEAD.size, len(data)
    while i < end:
        start = i + 5
        if start > end:
            raise ValueError("a cache entry must not end in a partial record")
        count, n = head(data, i)
        width = (n + 7) // 8 or 1
        j = start + count * width
        if j > end or n > MAX_NEURONS:
            raise ValueError(f"a cached code must fit in the entry, with n in 0..{MAX_NEURONS}")
        if count:
            # The last mask is the largest, and it is below 2**n when its
            # first, most significant byte is below 2**(n - 8 * (width - 1)).
            if data[j - width] >> (n + 8 - 8 * width):
                raise ValueError(f"a cached code's masks must be in 0..2**n - 1, got n={n}")
            if width == 1:
                lows.append(data[start:j - 1])
                highs.append(data[start + 1:j])
            else:
                # Big-endian masks of one width order as their bytes do.
                masks = [data[m:m + width] for m in range(start, j, width)]
                if not all(map(operator.lt, masks, masks[1:])):
                    raise ValueError("a cached code's masks must be strictly ascending")
        records.append(data[i:j])
        i = j
    if not all(map(operator.lt, b"".join(lows), b"".join(highs))):
        raise ValueError("a cached code's masks must be strictly ascending")
    if k >= len(records) or records[k] != source:
        raise ValueError("a cache entry's source index must name its source's record")
    return records, EnumerationStats(explored, pruned, wall)


def cached_enumerate(code: Code, cache_dir: Path | str, *, jobs: int = 1,
                     max_trunks: int | None = DEFAULT_TRUNK_CAP,
                     _labels: dict | None = None, _entries: dict | None = None
                     ) -> ImageSet | list[bytes]:
    """enumerate_reduced_images backed by a directory of binary entries
    named by the canonical form of the source, so isomorphic inputs share
    work.

    An entry is the _ENTRY_HEAD of the census's stats and the source's
    index, then the records (see _record) of its images; the file name is a
    hash of the source's record.  A hit checks the head (a finite wall time,
    not negative, and an index naming the source's record) and every record
    (it fits the entry, n in 0..MAX_NEURONS, masks strictly ascending and
    below 2**n), and then builds each code from its record, reading no word
    again.  An entry that is gone when it is read is a miss; one that fails
    a check is recomputed and overwritten.

    _labels is the labelling cache a miss's census uses, and _entries maps
    canonical sources to the records and stats already read or computed,
    for callers that look up several codes: a code whose class _entries
    holds reads nothing, and a miss stores there the records its entry was
    written from.  Given _entries, the lookup returns the census's records
    and builds no code; image_set_difference compares them and builds codes
    only for the images it returns."""
    _check_cap(max_trunks, "max_trunks")
    source = canonical_form(code)
    known = None if _entries is None else _entries.get(source.code)
    if known is None:
        cdir = Path(cache_dir)
        import hashlib  # only cache file names need it; a plain census never loads it
        own = _record(source.code)
        path = cdir / f"images-{hashlib.sha256(_CACHE_FORMAT + own).hexdigest()[:32]}.bin"
        try:
            known = _entry_records(path.read_bytes(), own)
        except (FileNotFoundError, ValueError, struct.error):
            # No entry (one deleted since its name was formed is none
            # either), or a bad one: recompute and overwrite it.
            known = None
        if known is None:
            census = enumerate_reduced_images(code, max_trunks=max_trunks, _labels=_labels,
                                              _source=source)
            known = [_record(c) for c in census.images], census.stats
            cdir.mkdir(parents=True, exist_ok=True)
            import tempfile  # only a miss writes; it loads shutil and random too
            # A temporary file of its own per writer, so concurrent runs
            # never interleave their bytes; os.replace publishes it whole.
            fd, tmp = tempfile.mkstemp(prefix=f"{path.stem}.", suffix=".tmp", dir=cdir)
            try:
                with os.fdopen(fd, "wb") as fh:
                    fh.write(_entry_bytes(census, known[0]))
                os.replace(tmp, path)
            except BaseException:
                os.unlink(tmp)
                raise
    if _entries is None:
        return ImageSet(source, tuple([_decoded(r) for r in known[0]]), known[1])
    _entries[source.code] = known
    return known[0]
