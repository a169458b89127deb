"""A fixed block of interpreter work that times the machine, not codecat.

The benchmark runs on shared machines whose speed drifts by a fifth or more
over minutes, the same for any Python code.  run.py times a few of these
blocks after every operation and reports pass time in blocks (`wall_ref`),
which cancels the drift.  The block uses only the standard library and the
kind of work codecat does: small-integer bit operations, tuples, sorting,
dict and set look-ups, and JSON decoding.  No change to codecat can make it
faster or slower.
"""

from __future__ import annotations

import json
from time import perf_counter

_DOC = json.dumps([{"n": 6, "words": [[1, 2, 3], [2, 4], [5], []] * 3}
                   for _ in range(60)])


def block() -> int:
    seen: dict[tuple, int] = {}
    masks = set()
    for k in range(1500):
        key = tuple(sorted(((k * 7919) >> b) & 63 for b in range(6)))
        seen[key] = seen.get(key, 0) + (k & 5)
        masks.add(k & (k >> 3))
    return len(seen) + len(masks) + len(json.loads(_DOC))


def timed_blocks(seconds: float, minimum: int = 1) -> tuple[int, float]:
    """Run blocks until they have taken `seconds` and at least `minimum`
    ran; returns how many ran and the time they took."""
    count, spent = 0, 0.0
    while count < minimum or spent < seconds:
        t0 = perf_counter()
        block()
        spent += perf_counter() - t0
        count += 1
    return count, spent
