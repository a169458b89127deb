"""Combinatorial codes on a finite neuron set, with compact-text and JSON I/O.

A code is a duplicate-free collection of codewords over neurons 1..n, where a
codeword is a subset of {1, ..., n}.  Internally every codeword is a bitmask
(neuron i lives at bit i-1), which keeps the subset combinatorics elsewhere in
the package cheap; the public surface speaks frozensets of 1-based ints.
"""

from __future__ import annotations

import json
import re
from collections.abc import Collection, Iterable

MAX_NEURONS = 64

_N_PREFIX = re.compile(r"^\s*n\s*=\s*(\d+)\s*[:;]?\s*")
_JSON_OBJECT = re.compile(r"^\{\s*\"")


def word_mask(word: Iterable[int] | int, n: int | None = None) -> int:
    """Bitmask of a codeword given as 1-based neuron indices or as a bitmask.

    Neuron i lives at bit i-1, so [1, 3] and 0b101 are the same word.  Both
    spellings are checked the same way: indices must be positive ints, a mask
    a non-negative int (not a bool), and every neuron must lie in 1..n, or in
    1..MAX_NEURONS when n is None.  A bad word raises ValueError.
    """
    width = MAX_NEURONS if n is None else n
    if type(word) is int and word >= 0 and not word >> width:
        return word
    if isinstance(word, int):
        if isinstance(word, bool):
            raise ValueError(f"codeword must be neuron indices or an int mask, got {word!r}")
        if word < 0:
            raise ValueError(f"codeword mask must be >= 0, got {word}")
        if word >> width:
            raise ValueError(f"codeword mask holds neuron {word.bit_length()}, "
                             f"which exceeds {_limit(n)}")
        return word
    mask = 0
    try:
        for i in word:
            if type(i) is not int or not 0 < i <= width:
                # The full checks, only for an index the fast test refuses:
                # the usual error, or an int subclass such as an IntEnum.
                if not isinstance(i, int) or isinstance(i, bool) or i < 1:
                    raise ValueError(f"neuron index must be a positive int, got {i!r}")
                if i > width:
                    raise ValueError(f"neuron index {i} exceeds {_limit(n)}")
            mask |= 1 << (i - 1)
    except TypeError:  # from iterating word; with an int n the checks raise none
        raise ValueError(f"codeword must be neuron indices or an int mask, got {word!r}") from None
    return mask


def _neuron_index(i) -> int:
    """i, when word_mask would take its type for a neuron index: an int, an
    IntEnum too, but not a bool.  ValueError otherwise."""
    if isinstance(i, int) and not isinstance(i, bool):
        return i
    raise ValueError(f"neuron index must be a positive int, got {i!r}")


def _limit(n: int | None) -> str:
    return f"the cap of {MAX_NEURONS}" if n is None else f"declared n={n}"


def mask_members(mask: int) -> tuple[int, ...]:
    """Sorted 1-based neuron indices of a codeword bitmask.

    A mask below 256 is one lookup in _BYTE_MEMBERS; a wider one is read a
    byte at a time through it.  A negative mask raises ValueError."""
    if not mask >> 8:
        return _BYTE_MEMBERS[mask]
    if mask < 0:
        raise ValueError(f"codeword mask must be >= 0, got {mask}")
    out = _BYTE_MEMBERS[mask & 255]
    base = 8
    mask >>= 8
    while mask:
        byte = mask & 255
        if byte:
            out += tuple([base + i for i in _BYTE_MEMBERS[byte]])
        mask >>= 8
        base += 8
    return out


# The members of each byte value, as mask_members gives them.
_BYTE_MEMBERS = tuple(tuple(i + 1 for i in range(8) if b >> i & 1) for b in range(256))


def _word_key(mask: int) -> tuple[int, tuple[int, ...]]:
    # Deterministic word order: cardinality, then lexicographic on members.
    return (mask.bit_count(), mask_members(mask))


def _display_key(mask: int) -> tuple[int, tuple[int, ...]]:
    # Display order: largest codewords first, lexicographic within a size.
    return (-mask.bit_count(), mask_members(mask))


def _maximal(masks: Collection[int]) -> list[int]:
    """The masks that lie inside no other of masks."""
    return [m for m in masks if not any(o != m and o & m == m for o in masks)]


class Code:
    """A finite set of codewords over the neuron set {1, ..., n}.

    Immutable by convention; equality and hashing compare both n and the word
    set, so the same words on different ambient neuron counts are different
    codes (they differ by trivial neurons).
    """

    __slots__ = ("n", "_mask_set", "_mask_list")

    def __init__(self, n: int, words: Iterable[Iterable[int] | int] = ()):
        if not isinstance(n, int) or isinstance(n, bool):
            raise ValueError(f"neuron count must be an int, got {n!r}")
        if n < 0 or n > MAX_NEURONS:
            raise ValueError(f"neuron count must be in 0..{MAX_NEURONS}, got {n}")
        self.n = n
        # Copied from a set, a frozenset's table is sized to fit; built from
        # an iterator, it keeps the slack of every resize.
        masks = {word_mask(w, n) for w in words}
        self._mask_set = frozenset(masks)
        self._mask_list = None  # sorted on first use of masks

    @classmethod
    def _of_checked_masks(cls, n: int, masks: Iterable[int]) -> "Code":
        """The code Code(n, masks) builds, reading no word again.

        Only for input already checked as Code would check it: n a plain
        int in 0..MAX_NEURONS, every mask a plain int (not a bool) in
        0..2**n - 1.  Nothing here checks it."""
        code = cls.__new__(cls)
        code.n = n
        code._mask_set = frozenset(masks)
        code._mask_list = None
        return code

    @classmethod
    def _of_ordered_masks(cls, n: int, masks: tuple[int, ...]) -> "Code":
        """The code Code(n, masks) builds, with masks as its masks tuple.

        Only for masks checked as _of_checked_masks asks, distinct, and
        already in the order of Code.masks; nothing reads or sorts them
        again.  The word set is copied from a set, as Code builds it."""
        code = cls._of_checked_masks(n, set(masks))
        code._mask_list = masks
        return code

    @classmethod
    def from_words(cls, words: Iterable[Iterable[int] | int]) -> "Code":
        """Build a code inferring n as the largest neuron mentioned."""
        masks = [word_mask(w) for w in words]
        return cls(max(masks, default=0).bit_length(), masks)

    @property
    def masks(self) -> tuple[int, ...]:
        """Codeword bitmasks in the deterministic (cardinality, lex) order."""
        if self._mask_list is None:
            self._mask_list = tuple(sorted(self._mask_set, key=_word_key))
        return self._mask_list

    @property
    def mask_set(self) -> frozenset[int]:
        return self._mask_set

    @property
    def words(self) -> tuple[frozenset[int], ...]:
        return tuple(frozenset(mask_members(m)) for m in self.masks)

    def contains(self, word: Iterable[int]) -> bool:
        """Set membership; malformed or out-of-range words are simply absent."""
        try:
            mask = word_mask(word)
        except ValueError:
            return False
        return mask in self._mask_set

    def __contains__(self, word) -> bool:
        return self.contains(word)

    def __iter__(self):
        return iter(self.words)

    def __len__(self) -> int:
        return len(self._mask_set)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Code):
            return NotImplemented
        return self.n == other.n and self._mask_set == other._mask_set

    def __hash__(self) -> int:
        return hash((self.n, self._mask_set))

    def __repr__(self) -> str:
        return f"Code({self.n}, {_code_str(self)!r})"


def contains(code: Code, word: Iterable[int]) -> bool:
    return code.contains(word)


def _parse_compact(body: str, declared: int | None) -> Code:
    inner = body.strip()
    if inner.startswith("{"):
        if not inner.endswith("}"):
            raise ValueError(f"unbalanced braces in code literal {body!r}")
        inner = inner[1:-1].strip()
    elif inner.endswith("}"):
        raise ValueError(f"unbalanced braces in code literal {body!r}")
    elif not inner:
        raise ValueError("empty code literal; the zero-word code is spelled []")
    if not inner:
        # "{}" is the lone empty codeword.
        words: list[frozenset[int]] = [frozenset()]
    else:
        words = []
        for tok in inner.split(","):
            tok = tok.strip()
            if not tok:
                raise ValueError(f"empty codeword token in {body!r}")
            if tok == "0":
                words.append(frozenset())
                continue
            if not tok.isdigit():
                raise ValueError(f"malformed codeword token {tok!r}")
            if "0" in tok:
                raise ValueError(
                    f"token {tok!r}: 0 spells the empty codeword and cannot "
                    "combine with other digits (compact notation covers neurons 1..9)"
                )
            words.append(frozenset(int(ch) for ch in tok))
    return Code.from_words(words) if declared is None else Code(declared, words)


def read_json(text: str, context: str = ""):
    """json.loads that raises only ValueError, its message after context."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{context}{exc}") from exc
    except RecursionError:
        raise ValueError(f"{context}JSON nested too deeply") from None


def _json_list(value, what: str) -> list:
    if not isinstance(value, list):
        raise ValueError(f"{what} must be a list, got {type(value).__name__}")
    return value


def _words_from_json_lists(data, declared: int | None) -> Code:
    if not isinstance(data, list) or not all(isinstance(w, list) for w in data):
        raise ValueError("JSON code must be a list of lists of neuron indices")
    return Code.from_words(data) if declared is None else Code(declared, data)


def parse_code(value: str | dict) -> Code:
    """Parse a code literal, or the object code_to_obj returns.

    Grammar: an optional "n=K" prefix, then either compact notation
    ("{12,23,1,3,0}", braces optional, digits 1..9, "0" or "{}" for the empty
    codeword), a JSON list of lists ("[[1,2],[10]]", "[]" is the zero-word
    code), or a JSON object {"n": K, "words": [...]} as emitted by the CLI.
    """
    declared: int | None = None
    if isinstance(value, str):
        m = _N_PREFIX.match(value)
        if m:
            declared = int(m.group(1))
            value = value[m.end():]
        body = value.strip()
        if not body:
            raise ValueError("empty code literal")
        if not body.startswith("[") and not _JSON_OBJECT.match(body):
            return _parse_compact(body, declared)
        value = read_json(body, "bad JSON code literal: ")
        if isinstance(value, list):
            return _words_from_json_lists(value, declared)
    elif not isinstance(value, dict):
        raise ValueError("expected a code literal string or object, "
                         f"got {type(value).__name__}")
    if set(value) != {"n", "words"}:
        raise ValueError('JSON object code must have exactly the keys "n" and "words"')
    n_obj = value["n"]
    if not isinstance(n_obj, int) or isinstance(n_obj, bool):
        raise ValueError(f'"n" must be an int, got {n_obj!r}')
    if declared is not None and declared != n_obj:
        raise ValueError(f"prefix n={declared} disagrees with object n={n_obj}")
    return _words_from_json_lists(value["words"], n_obj)


def _fmt_word(members) -> str:
    """A word as compact text: "0" if empty, digits, or {1,10} above 9."""
    ms = sorted(members)
    if not ms:
        return "0"
    if ms[-1] <= 9:
        return "".join(str(i) for i in ms)
    return "{" + ",".join(str(i) for i in ms) + "}"


def _fmt_masks(masks) -> str:
    """Word masks in display order, each spelled by _fmt_word, in braces."""
    words = sorted(masks, key=_display_key)
    return "{" + ",".join(_fmt_word(mask_members(m)) for m in words) + "}"


def _needs_prefix(code: Code) -> bool:
    return max(code.mask_set, default=0).bit_length() != code.n


def format_code(code: Code, style: str = "compact") -> str:
    """Render a code so that parse_code(format_code(c)) == c.

    An "n=K " prefix appears exactly when n is not inferable from the words.
    The zero-word code only has a JSON spelling, whatever style is asked for.
    """
    if style not in ("compact", "json"):
        raise ValueError(f"unknown style {style!r}")
    prefix = f"n={code.n} " if _needs_prefix(code) else ""
    if not code.mask_set:
        return prefix + "[]"
    if style == "json":
        return prefix + json.dumps(code_to_obj(code)["words"], separators=(",", ":"))
    if code.n > 9:
        raise ValueError(f"compact style requires n <= 9, got n={code.n}")
    return prefix + _fmt_masks(code.mask_set)


def code_to_obj(code: Code) -> dict:
    """JSON-ready object form; parse_code accepts it and its json.dumps output."""
    # _display_key is a total order, so the word set needs no sort before it.
    return {"n": code.n,
            "words": [list(mask_members(m)) for m in sorted(code.mask_set, key=_display_key)]}


def _code_str(code: Code) -> str:
    """format_code's compact style for n <= 9, its JSON style above that."""
    return format_code(code, "compact" if code.n <= 9 else "json")
