import json
import pickle
import random

import pytest

from codecat import (Code, MAX_NEURONS, Morphism, canonical_form, code_to_obj,
                     enumerate_reduced_images, format_code, local_obstruction_report,
                     parse_code, reduce_code, trunk_of)
from codecat.codes import mask_members, word_mask

from helpers import mask_members_by_bits, random_codes, tuple_word_key


def test_word_mask_roundtrip():
    assert word_mask([1, 3], 3) == 0b101
    assert word_mask([], 5) == 0
    assert mask_members(0b101) == (1, 3)
    assert mask_members(0) == ()


def test_mask_members_match_the_bit_loop():
    # below 256 a table lookup, above it byte by byte; the complexes of
    # topology take masks wider than 64 bits
    for mask in range(1 << 16):
        assert mask_members(mask) == mask_members_by_bits(mask)
    rng = random.Random(4021)
    for _ in range(3000):
        mask = rng.getrandbits(rng.randint(9, 200))
        assert mask_members(mask) == mask_members_by_bits(mask)
    for width in (8, 9, 16, 17, 64, 65, 200):
        assert mask_members(1 << (width - 1)) == (width,)
        assert mask_members((1 << width) - 1) == tuple(range(1, width + 1))


@pytest.mark.parametrize("mask", [-1, -2, -256, -257, -(1 << 70)])
def test_mask_members_rejects_a_negative_mask(mask):
    with pytest.raises(ValueError, match="must be >= 0"):
        mask_members(mask)


def test_word_mask_rejects_out_of_range():
    with pytest.raises(ValueError):
        word_mask([0], 3)
    with pytest.raises(ValueError):
        word_mask([4], 3)
    with pytest.raises(ValueError):
        word_mask([MAX_NEURONS + 1])
    with pytest.raises(ValueError):
        Code(MAX_NEURONS + 1, [])


def test_code_basic_accessors():
    c = Code(3, [[1, 2], [1], []])
    assert len(c) == 3
    assert c.n == 3
    assert frozenset({1, 2}) in c
    assert frozenset({2}) not in c
    assert c.words == (frozenset(), frozenset({1}), frozenset({1, 2}))


def test_code_accepts_masks_and_dedups():
    assert Code(3, [0b11, 0b11, 0b001]) == Code(3, [[1, 2], [1]])


def test_code_equality_needs_same_n():
    assert Code(2, [[1]]) != Code(3, [[1]])
    assert hash(Code(2, [[1]])) != hash(Code(3, [[1]]))


def test_parse_compact():
    c = parse_code("{12,23,1,3,0}")
    assert c.n == 3
    assert len(c) == 5
    assert frozenset() in c


def test_parse_compact_without_braces():
    assert parse_code("12,1,0") == parse_code("{12,1,0}")


def test_parse_empty_word_only():
    c = parse_code("{}")
    assert len(c) == 1 and frozenset() in c


def test_parse_json_list():
    assert parse_code("[[1,2],[10]]").n == 10
    assert parse_code("[[1,2],[10]]") == Code(10, [[1, 2], [10]])


def test_parse_json_object():
    c = parse_code('{"n": 4, "words": [[1, 2], []]}')
    assert c == Code(4, [[1, 2], []])


def test_parse_n_prefix():
    assert parse_code("n=5 {12,0}") == Code(5, [[1, 2], []])
    assert parse_code("n=5: 12,0") == Code(5, [[1, 2], []])
    assert parse_code("n=3 [[1]]") == Code(3, [[1]])


def test_parse_rejects_garbage():
    for bad in ("{1a}", "n=x {1}", "[1,2]", '{"n": 2}', "{10}"):
        with pytest.raises(ValueError):
            parse_code(bad)


def test_parse_rejects_word_beyond_n():
    with pytest.raises(ValueError):
        parse_code("n=2 {13}")


def test_format_orders_largest_first():
    assert format_code(parse_code("{1,12,0,23,3}")) == "{12,23,1,3,0}"


def test_format_emits_prefix_only_when_needed():
    assert format_code(Code(3, [[1, 2], []])) == "n=3 {12,0}"
    assert format_code(Code(3, [[1, 2, 3]])) == "{123}"
    assert format_code(Code(12, [[12]]), "json") == "[[12]]"
    assert format_code(Code(12, [[11]]), "json") == "n=12 [[11]]"


def test_format_compact_needs_single_digits():
    with pytest.raises(ValueError):
        format_code(Code(10, [[10]]), "compact")


def test_zero_word_code_roundtrip():
    c = Code(4, [])
    text = format_code(c, "json")
    assert parse_code(text) == c


def test_roundtrip_random():
    rng = random.Random(11)
    for c in random_codes(200, 7, n=6, max_words=10):
        assert parse_code(format_code(c)) == c
        assert parse_code(format_code(c, "json")) == c
        obj = json.loads('{"n": %d, "words": %s}'
                         % (c.n, [[*w] for w in (sorted(w) for w in c.words)]))
        assert parse_code(json.dumps(obj)) == c
        assert parse_code(code_to_obj(c)) == c
        # mixing up the word order never matters
        shuffled = list(c.masks)
        rng.shuffle(shuffled)
        assert Code(c.n, shuffled) == c


def seeded_codes_on_every_n() -> list[tuple[int, list[int]]]:
    rng = random.Random(5)
    out = []
    for n in range(MAX_NEURONS + 1):
        for _ in range(4):
            out.append((n, [rng.getrandbits(n) for _ in range(rng.randint(0, 12))]))
    return out


def test_masks_follow_the_tuple_word_key():
    for n, words in seeded_codes_on_every_n():
        c = Code(n, words)
        assert c.masks == tuple(sorted(c.mask_set, key=tuple_word_key)), (n, words)


def test_printing_a_code_leaves_its_words_unordered():
    # printing sorts the word set by the display order alone, which is
    # total, so the text is the one that sorting masks first gave
    for n, words in seeded_codes_on_every_n():
        fresh = Code(n, words)
        obj, text = code_to_obj(fresh), format_code(fresh, "json")
        if n <= 9:
            format_code(fresh)
        assert fresh._mask_list is None, (n, words)
        shown = sorted((sorted(w) for w in fresh.words), key=lambda w: (-len(w), w))
        assert obj == {"n": n, "words": shown}
        assert text.endswith(json.dumps(shown, separators=(",", ":")))


ACCESSORS = {
    "eq": lambda c, twin: c == twin,
    "hash": hash,
    "words": lambda c: c.words,
    "iter": list,
    "len": len,
    "format_code": lambda c: format_code(c, "json"),
    "format_code compact": lambda c: format_code(c) if c.n <= 9 else None,
    "code_to_obj": code_to_obj,
    "repr": lambda c: repr(c) if c.n <= 9 else None,
    "pickle": lambda c: unpickled(c, pickle.loads(pickle.dumps(c))),
}


def unpickled(c: Code, again: Code) -> tuple:
    return again == c, hash(again) == hash(c), again.masks, again.words


@pytest.mark.parametrize("name", ACCESSORS)
def test_word_order_on_first_use_changes_no_result(name):
    get = ACCESSORS[name]
    for n, words in seeded_codes_on_every_n():
        fresh, primed, twin = Code(n, words), Code(n, words), Code(n, words[::-1])
        assert primed.masks is primed.masks  # ordered once, then kept
        args = (twin,) if name == "eq" else ()
        assert get(fresh, *args) == get(primed, *args), (n, words)



def test_repr_spells_small_codes_compactly():
    assert repr(parse_code("{12,23,1,3,0}")) == "Code(3, '{12,23,1,3,0}')"


def test_repr_of_wide_codes_and_what_holds_them():
    # compact notation covers neurons 1..9, so a wider code is shown in JSON
    one = Code(10, [[1]])
    assert repr(one) == "Code(10, 'n=10 [[1]]')"
    singletons = Code(10, [[i] for i in range(1, 11)] + [[]])
    assert repr(singletons) == "Code(10, '[[1],[2],[3],[4],[5],[6],[7],[8],[9],[10],[]]')"
    wide = Code(12, [[1, 12], [11, 12], [12], []])
    for c in (one, singletons, wide):
        text = repr(c)
        assert parse_code(text[text.index("'") + 1:-2]) == c
    holders = [
        (wide, Morphism(wide, (trunk_of(wide, [12]), trunk_of(wide, [1])))),
        (one, reduce_code(one)),
        (wide, reduce_code(wide)),
        (singletons, canonical_form(singletons)),
        (wide, local_obstruction_report(wide)),
        (singletons, enumerate_reduced_images(singletons)),
    ]
    for code, value in holders:
        assert repr(code) in repr(value), type(value).__name__
