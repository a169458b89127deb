import functools
import hashlib
import itertools
import json
import math
import os
import random
import struct
import subprocess
import sys
from pathlib import Path

import pytest

from codecat import enumeration
from codecat import (Code, ResourceCapError, all_trunks, canonical_form,
                     cached_enumerate, enumerate_reduced_images, format_code,
                     image_set_difference, image_set_from_obj,
                     image_set_to_obj, is_isomorphic, is_reduced, parse_code,
                     reduce_code, verify_image_membership)

from helpers import (cache_entry, cache_record, code_key_by_pairs, cycle_code, decode_label_key,
                     difference_by_censuses, edge_codes, entry_codes_by_loop, hollow_triangles,
                     image_signature, induced_image_words, membership_by_full_walk,
                     min_relabeling_by_swaps, random_codes, random_relabelling,
                     stays_irredundant_by_pairs)

C5 = parse_code("{12,23,1,3,0}")
D5 = parse_code("{12,34,1,3,0}")
CF = parse_code("{2345,123,134,145,13,14,23,34,45,3,4,0}")
DF = parse_code("{2345,234,345,123,134,145,13,14,23,34,45,3,4,0}")
EF = parse_code("{2345,123,134,145,13,14,23,34,45,3,4,1,0}")
PAPER_CODES = {"CF": CF, "DF": DF, "EF": EF,
               "C0": parse_code("{3456,123,145,256,45,56,1,2,3,0}"),
               "C1": parse_code("{1236,3456,145,256,26,36,45,56,1,6,0}"),
               "C2": parse_code("{124,135,145,234,14,15,24,3,4,0}")}


def oracle_images(code):
    """Reference image list: run every subset of the trunks as a morphism
    and canonicalize whatever comes out.  No irredundancy reasoning, no
    pruning; just exhaustion."""
    trunks = [t.member_masks for t in all_trunks(code)]
    seen = set()
    for k in range(len(trunks) + 1):
        for combo in itertools.combinations(trunks, k):
            masks = induced_image_words(code, combo)
            seen.add(canonical_form(Code(k, masks)).code)
    return seen


def test_singleton_code_images():
    out = enumerate_reduced_images(Code(0, [0]))
    assert [format_code(c) for c in out.images] == ["{0}"]


def test_images_of_reference_code():
    out = enumerate_reduced_images(C5)
    got = [format_code(c) for c in out.images]
    assert got == ["{0}", "{1,0}", "{1,2,0}", "{12,1,0}", "{12,13,0}",
                   "{12,1,2,0}", "{13,1,2,0}", "{12,23,1,0}",
                   "{13,23,1,2,0}", "{13,24,1,2,0}"]
    assert canonical_form(C5).code in out.images


def test_images_are_reduced_canonical_and_distinct():
    for code in random_codes(15, 47, n=4, max_words=6):
        out = enumerate_reduced_images(code)
        assert len(set(out.images)) == len(out.images)
        for img in out.images:
            assert is_reduced(img)
            assert canonical_form(img).code == img


def test_engine_matches_subset_exhaustion():
    for code in random_codes(25, 7, n=3, max_words=5):
        engine = set(enumerate_reduced_images(code).images)
        assert engine == oracle_images(code)


def test_self_image_always_present():
    for code in random_codes(15, 95, n=4, max_words=5):
        out = enumerate_reduced_images(code)
        assert canonical_form(code).code in out.images


def test_images_deterministic_and_parallel_equal():
    for code in random_codes(4, 70, n=4, max_words=7):
        a = enumerate_reduced_images(code)
        b = enumerate_reduced_images(code)
        c = enumerate_reduced_images(code, jobs=2)
        assert a.images == b.images == c.images


def test_stats_make_sense():
    out = enumerate_reduced_images(C5)
    assert out.stats.explored >= len(out.images)
    assert out.stats.pruned >= 0
    assert out.stats.wall_time >= 0.0


def test_trunk_cap_refusal():
    with pytest.raises(ResourceCapError):
        enumerate_reduced_images(C5, max_trunks=5)  # C5 carries 7 trunks
    assert len(enumerate_reduced_images(C5, max_trunks=7).images) == 10
    full4 = Code(4, range(16))
    with pytest.raises(ResourceCapError):
        enumerate_reduced_images(full4, max_trunks=16)
    assert enumerate_reduced_images(full4, max_trunks=17).images
    # a baseline over the cap refuses even when an earlier one covers all
    with pytest.raises(ResourceCapError):
        image_set_difference(C5, [C5, full4], max_trunks=16)


def test_image_transitivity_spot_check():
    # anything an image can reach, the original can reach
    source_images = set(enumerate_reduced_images(C5).images)
    mid = parse_code("{12,1,2,0}")
    assert canonical_form(mid).code in source_images
    for img in enumerate_reduced_images(mid).images:
        assert img in source_images


def test_membership_witness_golden():
    w = verify_image_membership(C5, parse_code("{13,24,1,2,0}"))
    assert w is not None
    assert w.domain == C5
    assert is_isomorphic(w.image(), parse_code("{13,24,1,2,0}"))


def test_membership_witnesses_pinned_and_canonicalised_at_target_size(monkeypatch):
    # an irredundant set of k trunks gives a reduced image on k neurons, so
    # only nodes of the walk with as many trunks as the reduced target has
    # neurons can match, and of those only the ones whose filter key is the
    # target's: here the witness alone, where canonicalising every node of
    # the target's size took 20 and 39 calls.  The witness stays the first
    # hit
    cf, c0, c1 = CF, PAPER_CODES["C0"], PAPER_CODES["C1"]
    calls = []
    real = enumeration._canonical_of_reduced_masks

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(enumeration, "_canonical_of_reduced_masks", counted)
    for source, target, generators, canonicalised in [
            (cf, c1, [[3], [1], [1, 4], [2, 3], [3, 4], [4, 5]], 1),
            (c1, c0, [[5], [1], [2, 6], [4, 5], [5, 6], [3, 6]], 1)]:
        calls.clear()
        w = verify_image_membership(source, target)
        assert [sorted(t.generator) for t in w.trunks] == generators
        assert is_isomorphic(w.image(), target)
        assert len(calls) == canonicalised


def test_membership_witness_deterministic():
    a = verify_image_membership(C5, parse_code("{12,1,0}"))
    b = verify_image_membership(C5, parse_code("{12,1,0}"))
    assert a is not None and a.trunks == b.trunks


def test_four_neuron_code_is_reachable_from_three():
    # morphisms can raise the neuron count: this target needs four
    w = verify_image_membership(C5, parse_code("{12,34,1,3,0}"))
    assert w is not None and w.m == 4
    assert is_isomorphic(w.image(), parse_code("{12,34,1,3,0}"))


def test_membership_negative():
    assert verify_image_membership(Code(0, [0]), parse_code("{1,0}")) is None
    # C5 contains the empty word, so each of its images has a minimum word;
    # these two targets have none
    assert verify_image_membership(C5, parse_code("{1,2}")) is None
    assert verify_image_membership(C5, parse_code("{12,13,23}")) is None


def test_membership_respects_isomorphism_of_target():
    # target given in a scrambled labeling still verifies
    target = parse_code("{24,13,2,3,0}")  # {13,24,1,2,0} pushed around a cycle
    w = verify_image_membership(C5, target)
    assert w is not None and is_isomorphic(w.image(), target)


def test_difference_golden_edges():
    assert image_set_difference(C5, [C5]) == ()
    everything = image_set_difference(C5, [])
    assert set(everything) == set(enumerate_reduced_images(C5).images)
    assert image_set_difference(C5, [Code(0, [0])]) == tuple(
        c for c in enumerate_reduced_images(C5).images
        if format_code(c) != "{0}")


def test_image_set_json_roundtrip():
    out = enumerate_reduced_images(C5)
    again = image_set_from_obj(json.loads(json.dumps(image_set_to_obj(out))))
    assert again.images == out.images
    assert again.source.code == out.source.code
    assert again.stats == out.stats


@pytest.mark.parametrize("witness", ["abc", [9, 9, 9], [1, 1, 2], [True, 2, 3],
                                     [1.0, 2, 3], [1, 2], [1, 2, 3, 4]])
def test_image_set_from_obj_rejects_a_bad_witness(witness):
    obj = image_set_to_obj(enumerate_reduced_images(C5))
    assert sorted(obj["source_witness"]) == [1, 2, 3]
    with pytest.raises(ValueError, match="source_witness"):
        image_set_from_obj(dict(obj, source_witness=witness))


def test_cache_roundtrip(tmp_path):
    first = cached_enumerate(C5, tmp_path)
    files = list(tmp_path.glob("images-*.bin"))
    assert len(files) == 1
    second = cached_enumerate(C5, tmp_path)
    assert second.images == first.images
    # A hit's word sets are as compact as those Code builds: no resize
    # slack, which a frozenset built from bytes or a list keeps.
    assert max(len(c) for c in second.images) == 5
    for c in second.images:
        assert sys.getsizeof(c.mask_set) == sys.getsizeof(Code(c.n, c.masks).mask_set)
    # isomorphic presentation shares the entry
    relabeled = parse_code("{13,23,1,2,0}")
    assert is_isomorphic(relabeled, C5)
    third = cached_enumerate(relabeled, tmp_path)
    assert third.images == first.images
    assert list(tmp_path.glob("images-*.bin")) == files


def timeless(entry: bytes) -> bytes:
    """A cache entry with its wall time, head bytes 16 to 24, zeroed: two
    misses of one census write the same entry but for that."""
    return entry[:16] + bytes(8) + entry[24:]


def with_head(entry: bytes, wall: float | None = None, index: int | None = None) -> bytes:
    """entry with its wall time or its source index replaced."""
    if wall is not None:
        entry = entry[:16] + struct.pack(">d", wall) + entry[24:]
    if index is not None:
        entry = entry[:24] + index.to_bytes(4, "big") + entry[28:]
    return entry


def corrupted_entries(code: Code, good: bytes) -> list[bytes]:
    """Damaged spellings of good, the intact cache entry of code, each of
    which a lookup must refuse, recompute and overwrite.  One of them is the
    entry of D5, so code must not be isomorphic to D5."""
    census = enumerate_reduced_images(code)
    assert good == with_head(cache_entry(census), wall=struct.unpack(">d", good[16:24])[0])
    head = good[:28]
    # Faults in the head: too short for one, with no record after it, a
    # wall time that is not a finite time, and a source index out of range
    # or naming an image that is not the source, one of them on as many
    # neurons, so that only the compare with the source refuses it.
    k, n = census.images.index(census.source.code), census.source.code.n
    assert k > 0
    twin = next(i for i, c in enumerate(census.images) if c.n == n and i != k)
    bad_heads = [b"", head[:10], head[:-1], head,
                 *[with_head(good, wall=w) for w in [math.nan, math.inf, -math.inf, -1.0,
                                                     -5e-324]],
                 *[with_head(good, index=i) for i in [len(census.images), (1 << 32) - 1,
                                                     0, twin]]]
    # Faults in the records.  Bytes cannot spell a negative, bool or nested
    # mask, so the faults are in the framing, n and the mask range.  Each
    # bad tail follows the intact records, so the source index still names
    # the source and the record reader itself must refuse the entry.
    bad_tails = [b"\0", bytes(4), cache_record(3, [1], count=2),
                 cache_record(3, [], count=1), cache_record(10, [1, 2])[:-1],
                 cache_record(65, []), cache_record(65, [1]), cache_record(3, [8]),
                 cache_record(3, [1, 9]), cache_record(10, [1 << 10]),
                 cache_record(9, [1, 1 << 9])]
    bad_records = [good + tail for tail in bad_tails] + [good[:-1]]
    # An image D5 has too, not the source, spelled with two masks swapped,
    # or with a mask twice and its count raised by one: the record no
    # longer equals the one its code writes, so a difference comparing
    # records would keep an image the other census covers.
    shared = set(enumerate_reduced_images(D5).images)
    i, image = next((i, c) for i, c in enumerate(census.images)
                    if c in shared and len(c) >= 3 and c != census.source.code)
    low, high, *rest = sorted(image.masks)
    for masks in [[high, low, *rest], [low, low, high, *rest]]:
        spelled = [cache_record(c.n, sorted(c.masks)) for c in census.images]
        spelled[i] = cache_record(image.n, masks)
        bad_records.append(head + b"".join(spelled))
    # Another class's entry, and this census in the public JSON document,
    # under this entry's name.
    other = cache_entry(enumerate_reduced_images(D5))
    document = json.dumps(image_set_to_obj(census)).encode()
    return [*bad_heads, *bad_records, other, document]


def test_cache_recovers_from_corruption(tmp_path):
    cached_enumerate(C5, tmp_path)
    (path,) = tmp_path.glob("images-*.bin")
    want = timeless(cache_entry(enumerate_reduced_images(C5)))
    for entry in corrupted_entries(C5, path.read_bytes()):
        path.write_bytes(entry)
        again = cached_enumerate(C5, tmp_path)
        assert again.images == enumerate_reduced_images(C5).images
        assert path.read_bytes() != entry  # recomputed and rewritten
        assert timeless(path.read_bytes()) == want
        assert list(tmp_path.iterdir()) == [path]  # no temporary file left


def test_entry_reader_refuses_what_the_reference_refuses():
    # Valid entries and faults: an entry truncated anywhere, the head's
    # included, a wall time that is NaN, infinite or negative, a source
    # index anywhere in 0..2**32 - 1, a record's n byte or word count
    # changed, a record holding 2**n at n = 9 and 17, or the widest mask
    # its width holds at n = 8, 16 and 64, where 2**n does not fit, and a
    # record with two masks swapped or one repeated.  The reader refuses
    # exactly what the reference refuses, and otherwise gives the
    # reference's codes in its order and its stats.
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    sizes = st.sampled_from([0, 1, 5, 8, 9, 16, 17, 33, 64])
    codes = sizes.flatmap(lambda n: st.tuples(
        st.just(n), st.sets(st.integers(0, (1 << n) - 1), max_size=6).map(sorted)))

    @st.composite
    def entries(draw):
        images = draw(st.lists(codes, min_size=1, max_size=6))
        k = draw(st.integers(0, len(images) - 1))
        records = [cache_record(n, masks) for n, masks in images]
        r = draw(st.integers(0, len(records) - 1))
        index, wall = k, draw(st.floats(0, 1e9))
        fault = draw(st.sampled_from(["none", "truncate", "wall", "index", "n", "count",
                                      "mask", "order"]))
        if fault == "wall":
            wall = draw(st.sampled_from([math.nan, math.inf, -math.inf, -0.0, -5e-324, -1.0]))
        elif fault == "index":
            index = draw(st.integers(0, len(images)) | st.integers(0, (1 << 32) - 1))
        elif fault == "n":
            records[r] = bytes([*records[r][:4], draw(st.integers(0, 255)), *records[r][5:]])
        elif fault == "count":
            count = draw(st.integers(0, 12) | st.integers(0, (1 << 32) - 1))
            records[r] = count.to_bytes(4, "big") + records[r][4:]
        elif fault == "mask":
            n = draw(st.sampled_from([8, 9, 16, 17, 64]))
            top = min(1 << n, (1 << 8 * -(-n // 8)) - 1)
            records[r] = cache_record(n, [*sorted(draw(st.sets(st.integers(0, (1 << n) - 2),
                                                               max_size=4))), top])
        elif fault == "order":
            # Two masks swapped, or one repeated and counted twice.
            n = draw(sizes)
            masks = sorted(draw(st.sets(st.integers(0, (1 << n) - 1), min_size=1,
                                        max_size=6)))
            a = draw(st.integers(0, len(masks) - 1))
            b = draw(st.integers(0, len(masks) - 1))
            if a == b:
                masks.insert(a, masks[a])
            else:
                masks[a], masks[b] = masks[b], masks[a]
            records[r] = cache_record(n, masks)
        explored, pruned = draw(st.integers(0, (1 << 64) - 1)), draw(st.integers(0, 12))
        data = (explored.to_bytes(8, "big") + pruned.to_bytes(8, "big")
                + struct.pack(">d", wall) + index.to_bytes(4, "big") + b"".join(records))
        if fault == "truncate":
            data = data[:draw(st.integers(0, len(data) - 1))]
        return data, cache_record(*images[k])

    @hypothesis.settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @hypothesis.given(entries())
    def check(case):
        data, source = case
        try:
            code, want, stats = entry_codes_by_loop(data)
            if cache_record(code.n, sorted(code.masks)) != source:
                want = None
        except ValueError:
            want = None
        try:
            records, got_stats = enumeration._entry_records(data, source)
        except (ValueError, struct.error):
            assert want is None
        else:
            assert want is not None
            got = [enumeration._decoded(r) for r in records]
            assert got == want
            assert [c.masks for c in got] == [c.masks for c in want]
            assert got_stats == enumeration.EnumerationStats(*stats)

    check()


def test_cache_hit_keeps_its_own_inputs_witness(tmp_path):
    cached_enumerate(C5, tmp_path)
    relabeled = parse_code("{13,23,1,2,0}")
    assert cached_enumerate(relabeled, tmp_path).source == canonical_form(relabeled)


@pytest.mark.parametrize("lookup", ["cached_enumerate", "image_set_difference"])
def test_cache_entry_deleted_before_its_read_is_a_miss(tmp_path, monkeypatch, lookup):
    # An entry deleted after the lookup names its file and before the file
    # is read, as old entries may be, is recomputed and written again.
    cached_enumerate(C5, tmp_path)
    (path,) = tmp_path.glob("images-*.bin")
    intact = path.read_bytes()
    read_bytes = Path.read_bytes

    def deleted_first(file):
        file.unlink(missing_ok=True)
        return read_bytes(file)

    monkeypatch.setattr(Path, "read_bytes", deleted_first)
    if lookup == "cached_enumerate":
        assert cached_enumerate(C5, tmp_path).images == enumerate_reduced_images(C5).images
    else:
        assert (image_set_difference(D5, [C5], cache_dir=tmp_path)
                == image_set_difference(D5, [C5]))
    monkeypatch.undo()
    assert timeless(path.read_bytes()) == timeless(intact)


def code_texts(codes) -> list[str]:
    """format_code of each code, in the compact style up to 9 neurons and
    in the JSON style above, where the compact one has no spelling."""
    return [format_code(c, "compact" if c.n <= 9 else "json") for c in codes]


def test_cache_entry_and_hit_match_the_uncached_census(tmp_path):
    # The entry is the census encoded, byte for byte, and a hit gives back
    # the uncached images in order, with the same words in the same order
    # and the same text.  The ten singletons give images on up to 10
    # neurons, so records of 2-byte masks.
    for name, code in [("CF", CF), ("ten", Code(10, [[i] for i in range(1, 11)]))]:
        reference = enumerate_reduced_images(code)
        miss = cached_enumerate(code, tmp_path / name)
        (path,) = (tmp_path / name).glob("images-*.bin")
        records = [enumeration._record(c) for c in miss.images]
        assert path.read_bytes() == cache_entry(miss) == enumeration._entry_bytes(miss, records)
        # The file is named by the source's record and the format version.
        source = cache_record(miss.source.code.n, sorted(miss.source.code.masks))
        key = hashlib.sha256(b"codecat-images-5" + source).hexdigest()[:32]
        assert path.name == f"images-{key}.bin"
        relabeled = Code(code.n, [[code.n + 1 - i for i in w] for w in code.words])
        for again in (code, relabeled):
            hit = cached_enumerate(again, tmp_path / name)
            assert hit.stats == miss.stats
            assert hit.images == reference.images
            assert [c.masks for c in hit.images] == [c.masks for c in reference.images]
            assert code_texts(hit.images) == code_texts(reference.images)
            assert hit.source == canonical_form(again)


def test_cache_round_trips_records_of_every_width(tmp_path, monkeypatch):
    # No reduced code on 64 neurons has a census small enough to run, so the
    # miss writes a made-up one: the 64 singletons as source, and images
    # with masks of every width from 1 to 8 bytes, the widest masks at each
    # width, the codes {} and {0} on no neurons, and n = 8 among them.
    singletons = Code(64, [[i] for i in range(1, 65)])
    source = canonical_form(singletons)
    images = (Code(0, []), Code(0, [0]), Code(8, [0, 255, 128]),
              *[Code(n, [(1 << n) - 1, 1 << (n - 1), 1])
                for n in (9, 16, 17, 25, 33, 41, 49, 57, 64)],
              source.code)
    assert {max(1, -(-c.n // 8)) for c in images} == set(range(1, 9))
    census = enumeration.ImageSet(source, images, enumeration.EnumerationStats(7, 3, 0.5))
    monkeypatch.setattr(enumeration, "enumerate_reduced_images", lambda *a, **kw: census)
    assert cached_enumerate(singletons, tmp_path) == census
    (path,) = tmp_path.glob("images-*.bin")
    assert path.read_bytes() == cache_entry(census)

    def no_census(*args, **kwargs):
        raise AssertionError("a warm entry was recomputed")

    monkeypatch.setattr(enumeration, "enumerate_reduced_images", no_census)
    hit = cached_enumerate(singletons, tmp_path)
    assert hit == census
    assert [c.masks for c in hit.images] == [c.masks for c in images]
    assert code_texts(hit.images) == code_texts(images)


def test_cold_cache_lookup_labels_its_source_once(tmp_path, monkeypatch):
    # The entry key's canonical form is the census's source: a miss labels
    # the source once, as a hit does, and writes the entry the uncached
    # census encodes to, byte for byte but for its own wall time.
    reference = enumerate_reduced_images(DF)
    calls = count_calls(monkeypatch, "canonical_form")
    miss = cached_enumerate(DF, tmp_path)
    assert len(calls) == 1
    hit = cached_enumerate(DF, tmp_path)
    assert len(calls) == 2
    (path,) = tmp_path.glob("images-*.bin")
    timed = enumeration.ImageSet(reference.source, reference.images, miss.stats)
    assert path.read_bytes() == cache_entry(timed) == cache_entry(miss)
    assert hit == miss


def file_reads(monkeypatch) -> list[Path]:
    """The paths Path.read_bytes or Path.read_text reads from now on, in
    order.  A missing file, which a cache lookup tries to read and takes
    for a miss, is not read and not listed."""
    reads = []

    def listed(read):
        def listing(path, *args, **kwargs):
            data = read(path, *args, **kwargs)
            reads.append(path)
            return data
        return listing

    monkeypatch.setattr(Path, "read_bytes", listed(Path.read_bytes))
    monkeypatch.setattr(Path, "read_text", listed(Path.read_text))
    return reads


def test_cache_never_reads_an_older_format(tmp_path, monkeypatch):
    # An intact entry of the previous format, codecat-images-4, under the
    # name that format gave it, is neither read nor overwritten: the call
    # writes the new entry beside it and returns the uncached census.  That
    # format was a JSON object with image_set_to_obj's keys, the source as
    # its index in the images and the images as the hex of their records,
    # named by a hash of the version and the source's JSON spelling.
    reference = enumerate_reduced_images(C5)
    key = "codecat-images-4\n" + format_code(reference.source.code, "json")
    old = tmp_path / f"images-{hashlib.sha256(key.encode()).hexdigest()[:32]}.json"
    old_text = json.dumps(dict(image_set_to_obj(reference),
                               source=reference.images.index(reference.source.code),
                               images=cache_entry(reference)[28:].hex()),
                          separators=(",", ":"))
    old.write_text(old_text)
    reads = file_reads(monkeypatch)
    out = cached_enumerate(C5, tmp_path)
    assert reads == []
    assert out.images == reference.images
    assert [c.masks for c in out.images] == [c.masks for c in reference.images]
    assert old.read_text() == old_text
    (new,) = set(tmp_path.iterdir()) - {old}
    assert new.read_bytes() == cache_entry(out)


def test_cache_hits_read_back_seeded_censuses(tmp_path, monkeypatch):
    codes = random_codes(20, 2024, n=6, max_words=6)
    references = [enumerate_reduced_images(code) for code in codes]
    misses = [cached_enumerate(code, tmp_path) for code in codes]

    def no_census(*args, **kwargs):
        raise AssertionError("a warm entry was recomputed")

    monkeypatch.setattr(enumeration, "enumerate_reduced_images", no_census)
    for code, reference, miss in zip(codes, references, misses):
        hit = cached_enumerate(code, tmp_path)
        assert hit.images == miss.images == reference.images
        assert [c.masks for c in hit.images] == [c.masks for c in reference.images]
        assert hit.source == reference.source and hit.stats == miss.stats


def test_difference_uses_cache_dir(tmp_path):
    diff = image_set_difference(D5, [C5], cache_dir=tmp_path)
    assert len(list(tmp_path.glob("images-*.bin"))) == 2
    again = image_set_difference(D5, [C5], cache_dir=tmp_path)
    assert diff == again


def difference_calls(seed: int) -> list[tuple[Code, list[Code]]]:
    """Seeded (target, baselines) calls on random codes and their seeded
    relabellings: calls that name one class two or three times, and calls
    whose target is also a baseline."""
    rng = random.Random(seed)
    codes = random_codes(6, seed, n=5, max_words=7) + [C5, D5]
    calls = []
    for _ in range(12):
        target, other = rng.sample(codes, 2)
        twice = random_relabelling(rng, other)
        calls.append((target, [other, twice]))
        calls.append((target, [random_relabelling(rng, target), other]))
        calls.append((random_relabelling(rng, other), [twice, other, target]))
    return calls


@pytest.mark.parametrize("seed", [17, 18])
def test_cached_difference_equals_uncached_cold_and_warm(tmp_path, monkeypatch, seed):
    builds = count_code_builds(monkeypatch)
    for i, (target, baselines) in enumerate(difference_calls(seed)):
        want = image_set_difference(target, baselines)
        assert want == difference_by_censuses(
            target, baselines, lambda code: enumerate_reduced_images(code).images)
        cold = tmp_path / f"cold-{i}"
        assert image_set_difference(target, baselines, cache_dir=cold) == want
        # Warm, the call builds the canonical form of each code it names,
        # as a lookup's key, and then a code only for each image it returns.
        builds.clear()
        for code in [target, *baselines]:
            canonical_form(code)
        keys = len(builds)
        builds.clear()
        assert image_set_difference(target, baselines, cache_dir=cold) == want
        assert len(builds) == keys + len(want)
        assert image_set_difference(target, baselines, cache_dir=tmp_path / "warm") == want


def test_each_entry_is_read_at_most_once_per_call(tmp_path, monkeypatch):
    reads = file_reads(monkeypatch)
    names_twice = [random_relabelling(random.Random(5), DF), DF, CF]
    want = image_set_difference(CF, names_twice)
    # Cold: the two misses write the CF and DF entries and read none, and
    # the later names of both classes take the census the call holds.
    assert image_set_difference(CF, names_twice, cache_dir=tmp_path) == want
    entries = sorted(tmp_path.glob("images-*.bin"))
    assert (len(entries), reads) == (2, [])
    # Warm: each entry is read once, however often the call names its class.
    for _ in range(2):
        reads.clear()
        assert image_set_difference(CF, names_twice, cache_dir=tmp_path) == want
        assert sorted(reads) == entries


@pytest.mark.parametrize("role", ["target", "baseline"])
def test_difference_recovers_from_a_corrupt_entry(tmp_path, role):
    target, baselines = (C5, [D5]) if role == "target" else (D5, [C5])
    want = image_set_difference(target, baselines)
    intact = timeless(cache_entry(enumerate_reduced_images(C5)))
    cached_enumerate(C5, tmp_path)
    (path,) = tmp_path.glob("images-*.bin")
    image_set_difference(target, baselines, cache_dir=tmp_path)
    files = sorted(tmp_path.iterdir())
    for entry in corrupted_entries(C5, path.read_bytes()):
        path.write_bytes(entry)
        assert image_set_difference(target, baselines, cache_dir=tmp_path) == want
        assert path.read_bytes() != entry  # recomputed and rewritten
        assert timeless(path.read_bytes()) == intact
        assert sorted(tmp_path.iterdir()) == files  # no temporary file left


def test_df_census_walk_pinned_serial_and_pooled():
    # the walk itself, not only its image count: jobs=2 is still accepted and
    # must visit and prune exactly what the serial walk does
    df = parse_code("{2345,234,345,123,134,145,13,14,23,34,45,3,4,0}")
    serial = enumerate_reduced_images(df)
    pooled = enumerate_reduced_images(df, jobs=2)
    for out in (serial, pooled):
        assert len(out.images) == 721
        assert (out.stats.explored, out.stats.pruned) == (3305, 2071)
    assert pooled.images == serial.images


def count_calls(monkeypatch, name):
    """Count the calls made to enumeration.<name> through its module global."""
    calls = []
    real = getattr(enumeration, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(enumeration, name, counted)
    return calls


def count_code_builds(monkeypatch) -> list[int]:
    """The n of each code built through Code._of_checked_masks from now
    on, which every code built without Code's checks goes through."""
    builds = []
    real = Code._of_checked_masks.__func__

    def counted(cls, n, masks):
        builds.append(n)
        return real(cls, n, masks)

    monkeypatch.setattr(Code, "_of_checked_masks", classmethod(counted))
    return builds


def test_membership_walk_stops_at_target_size(monkeypatch):
    # a negative query walks the whole tree down to the target's size: of
    # the 3305 nodes of DF's census walk, 1013 hold more trunks than C2 has
    # neurons and are never visited
    c2 = parse_code("{124,135,145,234,14,15,24,3,4,0}")
    depths = []
    real = enumeration._walk

    def counted(pool, members, chosen, *rest):
        depths.append(len(chosen))
        return real(pool, members, chosen, *rest)

    monkeypatch.setattr(enumeration, "_walk", counted)
    assert verify_image_membership(DF, c2) is None
    assert len(depths) == 3305 - 1013
    assert max(depths) == canonical_form(c2).code.n == 5


def key_faults(key, codes) -> list[str]:
    """The codes whose key, a labelling cache key, does not name a
    relabelling of them: the same m and word count, and the same canonical
    masks by the reference search."""
    faults = []
    for code in codes:
        m, words = decode_label_key(key(code.n, code.mask_set))
        if (m != code.n or len(words) != len(code)
                or sorted(min_relabeling_by_swaps(list(words), m)[0])
                != sorted(min_relabeling_by_swaps(list(code.mask_set), m)[0])):
            faults.append(format_code(code, "json"))
    return faults


def test_invariant_key_is_a_relabelling():
    codes = edge_codes() + [cycle_code(n) for n in range(3, 10)]
    codes += [hollow_triangles(k, v) for k in (1, 2, 3) for v in (False, True)]
    for n in range(9):
        codes += random_codes(30, 900 + n, n=n, max_words=min(1 << n, 20))
    assert key_faults(enumeration._invariant_key, codes) == []

    def word_sizes(m, masks):  # an invariant, but not a relabelling
        return enumeration._label_key(m, {(1 << w.bit_count()) - 1 for w in masks})

    assert len(key_faults(word_sizes, codes)) > len(codes) // 2


def test_filter_key_is_an_isomorphism_invariant():
    # the filter rules a node out only when it cannot be isomorphic to an
    # image left, so seeded relabellings of reduced codes keep their key,
    # and relabelled inputs give the same difference
    rng = random.Random(5)
    codes = [hollow_triangles(k, v) for k in (1, 2, 3) for v in (False, True)]
    codes += [cycle_code(n) for n in range(3, 10)]
    for n in range(1, 9):
        codes += [reduce_code(c).reduced
                  for c in random_codes(30, 950 + n, n=n, max_words=min(1 << n, 20))]
    for code in codes:
        key = enumeration._filter_key(code.n, code.mask_set)
        for _ in range(3):
            other = random_relabelling(rng, code)
            assert enumeration._filter_key(other.n, other.mask_set) == key, format_code(code)
    flagship = image_set_difference(CF, [DF, EF])
    for _ in range(3):
        target, *baselines = (random_relabelling(rng, c) for c in (CF, DF, EF))
        assert image_set_difference(target, baselines) == flagship



def test_label_cache_keys_are_bytes_naming_their_canonical_form():
    # the CF, DF and EF censuses in one cache, as a cached difference runs
    # them: the keys of 1540 distinct requests and of their invariant
    # relabellings, every one a bytes object that decodes to a code whose
    # canonical form is the code it maps to
    labels = {}
    for code, count in [(CF, 178), (DF, 721), (EF, 133)]:
        assert len(enumerate_reduced_images(code, _labels=labels).images) == count
    assert (len(labels), len(set(labels.values()))) == (2192, 744)
    for key, code in labels.items():
        assert type(key) is bytes
        assert canonical_form(Code(*decode_label_key(key))).code == code, key


@pytest.mark.parametrize("m", [0, 1, 7, 8, 9, 15, 16, 17, 63, 64])
def test_label_key_width_boundaries(m):
    # one byte per mask up to m = 8, two from 9 to 16, three from 17, and
    # eight at 64: the empty mask, the full one and one bit each
    width = max(1, -(-m // 8))
    full = (1 << m) - 1
    for masks in [frozenset(), frozenset({0}), frozenset({0, full}),
                  frozenset(1 << i for i in range(m))]:
        key = enumeration._label_key(m, masks)
        assert len(key) == 1 + width * len(masks)
        assert decode_label_key(key) == (m, masks)
    assert enumeration._label_key(m, {full}) == bytes([m]) + full.to_bytes(width, "big")


def test_codes_on_no_neurons_keep_their_own_canonical_forms():
    # with a width of 0 the codes {} and {0} on no neurons would share a key
    empty, zero = frozenset(), frozenset({0})
    assert enumeration._label_key(0, empty) == b"\x00"
    assert enumeration._label_key(0, zero) == b"\x00\x00"
    labels = {}
    for masks, code in [(empty, Code(0, [])), (zero, Code(0, [[]]))] * 2:
        got = enumeration._canonical_of_reduced_masks(0, masks, labels)
        assert got == canonical_form(code).code
    assert len(labels) == 2


def test_label_key_round_trips_and_is_injective():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @st.composite
    def pairs(draw):
        m = draw(st.integers(0, 64))
        bits = st.integers(0, (1 << m) - 1) | st.sampled_from([0, (1 << m) - 1])
        return m, draw(st.frozensets(bits, max_size=12))

    @hypothesis.settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @hypothesis.given(pairs(), pairs())
    def check(a, b):
        key_a, key_b = enumeration._label_key(*a), enumeration._label_key(*b)
        assert decode_label_key(key_a) == a
        assert decode_label_key(key_b) == b
        assert (key_a == key_b) == (a == b)

    check()
    # pairs that differ only in m, or in one mask near a byte boundary
    near = {(m, frozenset(masks)) for m in (0, 1, 8, 9, 16, 17, 63, 64)
            for masks in ([], [0], [1], [0, 1], [255], [256], [(1 << m) - 1])
            if all(w >> m == 0 for w in masks)}
    assert len({enumeration._label_key(*pair) for pair in near}) == len(near)


def test_census_near_the_trunk_cap_pinned():
    # an 18-trunk pool; 24 of its 14323 labelling requests have m = 9, so
    # their keys take two bytes per mask
    code = Code(7, [3, 52, 109, 118, 123, 125])
    labels = {}
    out = enumerate_reduced_images(code, _labels=labels)
    assert len(enumeration._index_pool(code, None)[1]) == 18
    assert len(out.images) == 7127
    assert (out.stats.explored, out.stats.pruned) == (14323, 22175)
    text = "\n".join(format_code(c, "json") for c in out.images)
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == "eba1aa51d4e6ccc1"
    wide = [key for key in labels if key[0] == 9]
    assert len(wide) == 48
    for key in wide:
        m, masks = decode_label_key(key)
        assert len(key) == 1 + 2 * len(masks)
        assert canonical_form(Code(m, masks)).code == labels[key]


@functools.cache
def memo_census(code):
    return enumerate_reduced_images(code).images


@pytest.mark.parametrize("target", PAPER_CODES)
def test_difference_matches_full_censuses_on_paper_codes(target):
    # against every pair of the six paper codes, a code paired with itself
    # and the target among its own baselines included
    for pair in itertools.combinations_with_replacement(PAPER_CODES.values(), 2):
        got = image_set_difference(PAPER_CODES[target], list(pair))
        assert got == difference_by_censuses(PAPER_CODES[target], pair, memo_census)


def test_membership_matches_full_walk_on_paper_codes():
    # the same witness trunks as canonicalising every node of the target's
    # size, on all 36 ordered pairs of the six paper codes
    hits = 0
    for source, target in itertools.product(PAPER_CODES.values(), repeat=2):
        got, ref = verify_image_membership(source, target), membership_by_full_walk(source, target)
        assert (got is None) == (ref is None)
        if got is not None:
            assert got.trunks == ref.trunks
            hits += 1
    assert hits == 11


def test_code_key_sorts_like_word_pairs():
    # one integer per word orders codes exactly as (popcount, mask) pairs
    # do: on the paper's censuses, on seeded ones, and on seeded codes whose
    # masks reach bit MAX_NEURONS - 1
    rng = random.Random(20)
    lists = [memo_census(code) for code in PAPER_CODES.values()]
    lists += [enumerate_reduced_images(code).images
              for code in random_codes(8, 2000, n=5, max_words=8)]
    lists.append([Code(n, [rng.getrandbits(n) for _ in range(rng.randint(1, 4))])
                  for n in (9, 33, 64) for _ in range(60)])
    for codes in lists:
        shuffled = list(codes)
        rng.shuffle(shuffled)
        assert (sorted(shuffled, key=enumeration._code_key)
                == sorted(shuffled, key=code_key_by_pairs))


def test_filtered_paths_match_references_on_random_codes():
    # on 4 neurons a code has at most 17 trunks, under the trunk cap
    rng = random.Random(8)
    codes = random_codes(40, 808, n=4, max_words=10)
    for _ in range(40):
        target, *baselines = rng.sample(codes, 3)
        assert (image_set_difference(target, baselines)
                == difference_by_censuses(target, baselines, memo_census))
    hits = queries = 0
    for source in codes[:15]:
        images = memo_census(rng.choice(codes))
        targets = [random_relabelling(rng, c) for c in rng.sample(images, min(len(images), 8))]
        for target in targets + rng.sample(codes, 3):
            got, ref = verify_image_membership(source, target), membership_by_full_walk(source, target)
            assert (got is None) == (ref is None)
            if got is not None:
                assert got.trunks == ref.trunks
                hits += 1
            queries += 1
    assert (hits, queries) == (49, 137)


def test_difference_shares_one_labelling_cache(monkeypatch):
    # the three censuses need 213 + 858 + 168 lex-min searches on their
    # own, and 902 between them when they share one cache (see the cached
    # difference below).  The uncached difference runs CF's census, 213
    # searches, and then canonicalises only the DF and EF images whose
    # filter key matches a CF image not yet covered: 16 more searches
    searches = count_calls(monkeypatch, "_min_relabeling")
    for code, alone in [(CF, 213), (DF, 858), (EF, 168)]:
        searches.clear()
        enumerate_reduced_images(code)
        assert len(searches) == alone
    searches.clear()
    assert len(image_set_difference(CF, [DF, EF])) == 4
    assert len(searches) == 229


def test_difference_shares_its_labelling_cache_with_cache_misses(tmp_path, monkeypatch):
    searches = count_calls(monkeypatch, "_min_relabeling")
    uncached = image_set_difference(CF, [DF, EF])
    searches.clear()
    assert image_set_difference(CF, [DF, EF], cache_dir=tmp_path) == uncached
    # the three misses share the call's cache; the canonical forms that key
    # the entries search through reduction's own name, not counted here
    assert len(searches) == 902


def test_word_images_match_reference_at_every_node(monkeypatch):
    # every node of the serial walks and of every first-trunk subtree job:
    # the images carried down the walk equal those rebuilt from all trunks
    real = enumeration._collect
    checked = []

    def checking(nodes, images, found, labels):
        def check():
            for chosen in nodes:
                assert frozenset(images) == image_signature(len(images), chosen)
                checked.append(len(chosen))
                yield chosen
        real(check(), images, found, labels)

    monkeypatch.setattr(enumeration, "_collect", checking)
    for code, explored in [(CF, 1065), (DF, 3305), (EF, 1065)]:
        checked.clear()
        assert enumerate_reduced_images(code).stats.explored == explored
        assert len(checked) == explored
        words, pool = enumeration._index_pool(code, None)
        checked.clear()
        for i in range(len(pool)):
            enumeration._subtree_job((len(words), pool, i))
        assert len(checked) == explored - 1  # all but the root


def test_irredundancy_check_matches_reference_at_every_extension(monkeypatch):
    # every extension the serial walks and every first-trunk subtree job try:
    # checking the new trunk alone agrees with checking every member
    real = enumeration._stays_irredundant
    tried = []

    def checking(chosen, t):
        verdict = real(chosen, t)
        assert verdict == stays_irredundant_by_pairs(chosen, t)
        tried.append(verdict)
        return verdict

    monkeypatch.setattr(enumeration, "_stays_irredundant", checking)
    for code, explored, pruned in [(CF, 1065, 721), (DF, 3305, 2071), (EF, 1065, 721)]:
        tried.clear()
        stats = enumerate_reduced_images(code).stats
        assert (stats.explored, stats.pruned) == (explored, pruned)
        assert (tried.count(True), tried.count(False)) == (explored - 1, pruned)
        words, pool = enumeration._index_pool(code, None)
        tried.clear()
        for i in range(len(pool)):
            enumeration._subtree_job((len(words), pool, i))
        # the jobs start one trunk deep, so the root's extensions are not tried
        assert (tried.count(True), tried.count(False)) == (explored - 1 - len(pool), pruned)


@pytest.mark.parametrize("code", [CF, EF, C5], ids=["CF", "EF", "C5"])
def test_pooled_census_equals_serial(code):
    serial = enumerate_reduced_images(code)
    pooled = enumerate_reduced_images(code, jobs=2)
    assert pooled.images == serial.images
    assert ((pooled.stats.explored, pooled.stats.pruned)
            == (serial.stats.explored, serial.stats.pruned))


def test_subtree_jobs_label_from_scratch(monkeypatch):
    # each job labels with a cache of its own, so a second run of every
    # subtree searches as often as the first
    words, pool = enumeration._index_pool(EF, None)
    searches = count_calls(monkeypatch, "_min_relabeling")
    for _ in range(2):
        searches.clear()
        for i in range(len(pool)):
            enumeration._subtree_job((len(words), pool, i))
        assert len(searches) == 419


def test_import_and_census_load_no_multiprocessing():
    # jobs is accepted but starts no pool, and nothing imports one
    script = "\n".join([
        "import sys",
        "import codecat, codecat.cli",
        "from codecat import enumerate_reduced_images, image_set_difference, parse_code",
        f"cf, df, ef = map(parse_code, {[format_code(c) for c in (CF, DF, EF)]!r})",
        "assert len(enumerate_reduced_images(ef, jobs=2).images) == 133",
        "assert len(image_set_difference(cf, [df, ef], jobs=2)) == 4",
        "assert 'multiprocessing' not in sys.modules, 'multiprocessing was imported'",
    ])
    src = str(Path(enumeration.__file__).resolve().parents[1])
    path = filter(None, [src, os.environ.get("PYTHONPATH")])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
