"""The benchmark's workloads: inputs made from a seed, operations, golden checks.

Each workload is a fixed list of operations (one pass).  An operation calls
the library through its public names on ``codecat`` at call time, so the
tracer in ``spans.py`` can wrap them; its check runs outside the timed
region and returns ``None`` when the result is right, or a message naming
the mismatch.
"""

from __future__ import annotations

import hashlib
import random
import shutil
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = Path(__file__).resolve().parent / ".work"


def _import_codecat():
    """Import codecat from this checkout's src/ and nowhere else."""
    init = SRC / "codecat" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"perfbench: no codecat sources at {init}; "
                         "run from the root of a codecat checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import codecat
    if Path(codecat.__file__).resolve() != init.resolve():
        raise SystemExit(f"perfbench: codecat was imported from {codecat.__file__}, "
                         f"not from {init}")
    return codecat


codecat = _import_codecat()
Code = codecat.Code

# The paper's codes, as in the acceptance tests and the selftest.
PAPER = {
    "CF": "{2345,123,134,145,13,14,23,34,45,3,4,0}",
    "DF": "{2345,234,345,123,134,145,13,14,23,34,45,3,4,0}",
    "EF": "{2345,123,134,145,13,14,23,34,45,3,4,1,0}",
    "C0": "{3456,123,145,256,45,56,1,2,3,0}",
    "C1": "{1236,3456,145,256,26,36,45,56,1,6,0}",
    "C2": "{124,135,145,234,14,15,24,3,4,0}",
}

# Census goldens: (images, explored, pruned, sha256 of the image list).
# The counts are the paper's; explored/pruned and the digest pin the serial
# walk of the codes exactly as written (relabelling them moves `pruned`).
GOLDEN_CENSUS = {
    "CF": (178, 1065, 721, "6389845b2439fa5d"),
    "DF": (721, 3305, 2071, "ce21ed220695eda6"),
    "EF": (133, 1065, 721, "7b7b7bec1c4c786f"),
}
# The difference CF - [DF, EF] is exactly the canonical forms of these.
GOLDEN_DIFFERENCE = ("CF", "C0", "C1", "C2")
GOLDEN_C0_NO_OBSTRUCTION = 18
# Digests of the canonical forms of the symmetric structure inputs, so a
# change of representative fails even when it is relabelling-invariant.
GOLDEN_CANONICAL = {
    "cycle6": "7c37894704507fac",
    "cycle12": "6e953ce3b59c50c6",
    "cycle16": "68d071062793c3cc",
    "triangles2": "6c2723499204b289",
    "triangles3": "a7bbbf0fc19e3eaf",
    "triangles4": "31bd2cf2ffc9a68c",
    "triangles5": "bb8952b6aa6104ae",
    "triangles2+vertices": "b815207cbb9511d0",
    "triangles3+vertices": "ed6cebd7b1228957",
}


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], str | None]


@dataclass
class Workload:
    name: str
    ops: list[Op]
    # Computes expected values once, untimed and untraced, before any pass.
    prepare: Callable[[], None] = lambda: None
    before_pass: Callable[[], None] = lambda: None
    # Exact counts observed after a pass, outside the library (e.g. bytes).
    after_pass: Callable[[], dict] = dict
    close: Callable[[], None] = lambda: None
    # Exercises the process pool, so the traced run also times its tasks.
    pool_codes: list = field(default_factory=list)


def paper(name: str):
    return codecat.parse_code(PAPER[name])


def digest(images) -> str:
    text = "\n".join(codecat.format_code(c, "json") for c in images)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def relabel(code, rng: random.Random):
    perm = list(range(1, code.n + 1))
    rng.shuffle(perm)
    return Code(code.n, [[perm[i - 1] for i in w] for w in code.words])


def _census_check(name: str):
    images, explored, pruned, sha = GOLDEN_CENSUS[name]

    def check(result) -> str | None:
        got = (len(result.images), result.stats.explored, result.stats.pruned,
               digest(result.images))
        want = (images, explored, pruned, sha)
        if got != want:
            return f"(images, explored, pruned, digest) = {got}, want {want}"
        return None
    return check


def _census_op(name: str, jobs: int) -> Op:
    code = paper(name)
    return Op(f"census {name} jobs={jobs}",
              lambda: codecat.enumerate_reduced_images(code, jobs=jobs),
              _census_check(name))


def _membership_op(source: str, target: str) -> Op:
    s, t = paper(source), paper(target)

    def check(witness) -> str | None:
        if witness is None:
            return "no witness"
        if not codecat.is_isomorphic(witness.image(), t):
            return "witness image is not isomorphic to the target"
        return None
    return Op(f"membership {source}->{target}",
              lambda: codecat.verify_image_membership(s, t), check)


def census(seed: int, small: bool = False) -> Workload:
    """The paper's computation, serial and uncached.  The inputs are the
    paper's codes as written, so the seed changes nothing here."""
    cf, df, ef = paper("CF"), paper("DF"), paper("EF")
    expected: dict = {}

    def prepare():
        expected["diff"] = {codecat.canonical_form(paper(n)).code
                            for n in GOLDEN_DIFFERENCE}

    def check_diff(result) -> str | None:
        if len(result) != len(GOLDEN_DIFFERENCE) or set(result) != expected["diff"]:
            return f"{len(result)} codes, not the canonical forms of {GOLDEN_DIFFERENCE}"
        return None

    if small:
        ops = [_census_op("CF", 1), _census_op("EF", 1), _membership_op("CF", "C1")]
    else:
        ops = [_census_op("CF", 1), _census_op("DF", 1), _census_op("EF", 1),
               Op("difference CF-[DF,EF]",
                  lambda: codecat.image_set_difference(cf, [df, ef]), check_diff),
               _membership_op("CF", "C1"), _membership_op("C1", "C0")]
    return Workload("census", ops, prepare=prepare)


def pool(seed: int, small: bool = False) -> Workload:
    """DF and EF censuses through the process pool; they must equal serial."""
    names = ["EF"] if small else ["DF", "EF"]
    return Workload("pool", [_census_op(n, 2) for n in names],
                    pool_codes=[paper(n) for n in names])


# ---------------------------------------------------------------------------
# structure

def power_set(n: int):
    return Code(n, range(1 << n))


def cycle(n: int):
    return Code(n, [[i, i % n + 1] for i in range(1, n + 1)])


def hollow_triangles(k: int, vertex_words: bool):
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


def missing_faces(code) -> int:
    """Faces of the code's complex that are not words, counted directly."""
    faces = set()
    for w in code.mask_set:
        sub = w
        while True:
            faces.add(sub)
            if sub == 0:
                break
            sub = (sub - 1) & w
    return len(faces - code.mask_set)


def _expect(name: str, want, got) -> str | None:
    return None if got == want else f"{name} = {got!r}, want {want!r}"


def _lattice_ops(n: int) -> list[Op]:
    p = power_set(n)
    return [
        Op(f"all_trunks powerset{n}", lambda: codecat.all_trunks(p),
           lambda r: _expect("trunks", 2 ** n + 1, len(r))),
        Op(f"irreducible_trunks powerset{n}", lambda: codecat.irreducible_trunks(p),
           lambda r: _expect("irreducible trunks", n, len(r))),
        Op(f"reduce_code powerset{n}", lambda: codecat.reduce_code(p),
           lambda r: _expect("reduced neurons", n, r.reduced.n)),
        Op(f"minimum_neuron_number powerset{n}",
           lambda: codecat.minimum_neuron_number(p),
           lambda r: _expect("minimum neuron number", n, r)),
    ]


def structure(seed: int, small: bool = False) -> Workload:
    """Few large single-code queries: trunk lattice, canonical labelling and
    local obstructions, on seeded relabellings and seeded random codes."""
    rng = random.Random(seed)
    if small:
        lattice, cycles, bare, vertexed, randoms, obstr = (4,), (6,), (2,), (2,), 2, 1
    else:
        lattice, cycles, bare, vertexed, randoms, obstr = (8, 9), (12, 16), (2, 3, 4, 5), (2, 3), 16, 16
    ops = [op for n in lattice for op in _lattice_ops(n)]

    symmetric = ([(f"cycle{n}", cycle(n)) for n in cycles]
                 + [(f"triangles{k}", hollow_triangles(k, False)) for k in bare]
                 + [(f"triangles{k}+vertices", hollow_triangles(k, True)) for k in vertexed])

    def canon_op(label, copy):
        def check(r):
            return _expect(f"canonical form of relabelled {label}",
                           GOLDEN_CANONICAL[label], digest([r.code]))
        return Op(f"canonical_form {label}", lambda: codecat.canonical_form(copy), check)

    for label, code in symmetric:
        ops.append(canon_op(label, relabel(code, rng)))

    for i in range(randoms):
        code = Code(8, rng.sample(range(1 << 8), 24))
        copy = relabel(code, rng)
        ops.append(Op(f"is_isomorphic random8-{i}",
                      lambda a=code, b=copy: codecat.is_isomorphic(a, b),
                      lambda r: _expect("is_isomorphic", True, r)))

    c0 = paper("C0")

    def check_c0(report) -> str | None:
        clean = sum(e.verdict == "no_obstruction" for e in report.entries)
        return (_expect("entries", GOLDEN_C0_NO_OBSTRUCTION, len(report.entries))
                or _expect("no_obstruction entries", GOLDEN_C0_NO_OBSTRUCTION, clean))
    ops.append(Op("local_obstruction_report C0",
                  lambda: codecat.local_obstruction_report(c0), check_c0))
    # 7 neurons, not 8: an 8-neuron 10-word report takes 4-240 ms, so the
    # pass time would depend on the seed.
    for i in range(obstr):
        code = Code(7, rng.sample(range(1 << 7), 10))
        ops.append(Op(f"local_obstruction_report random7-{i}",
                      lambda c=code: codecat.local_obstruction_report(c),
                      lambda r, c=code: _expect("entries", missing_faces(c), len(r.entries))))

    return Workload("structure", ops)


# ---------------------------------------------------------------------------
# cache

def _query_codes(rng: random.Random, names: list[str], queries: int) -> list[list[tuple]]:
    """(class, code) of (target, baseline, baseline) per query.

    The first queries draw every class once, as the paper writes it, so each
    class misses exactly once per pass and the miss walks the same tree
    whatever the seed (a relabelling moves the walk's cost by up to 15%).
    The rest draw each class equally often, seeded relabellings that hit, so
    the mix of cheap and expensive hits does not depend on the seed either.
    """
    first = names[:]
    rng.shuffle(first)
    rest = names * ((3 * queries - len(names)) // len(names))
    rng.shuffle(rest)
    slots = [(n, paper(n)) for n in first] + [(n, relabel(paper(n), rng)) for n in rest]
    return [slots[3 * q:3 * q + 3] for q in range(len(slots) // 3)]


def cache(seed: int, small: bool = False) -> Workload:
    """A closed-loop stream of cached differences on six codes, then on
    random relabellings of them; the cache directory starts empty on every
    pass."""
    rng = random.Random(seed)
    names = ["CF", "EF", "C2"] if small else list(PAPER)
    queries = 4 if small else 100
    stream = _query_codes(rng, names, queries)
    cache_dir = WORK / f"cache-{seed}"
    reference: dict = {}

    def prepare():
        for n in names:
            images = codecat.enumerate_reduced_images(paper(n)).images
            if n in GOLDEN_CENSUS and digest(images) != GOLDEN_CENSUS[n][3]:
                raise ValueError(f"uncached census of {n} differs from its golden digest")
            reference[n] = images

    def before_pass():
        shutil.rmtree(cache_dir, ignore_errors=True)
        cache_dir.mkdir(parents=True)

    def after_pass() -> dict:
        return {"cache.bytes_written": sum(p.stat().st_size for p in cache_dir.iterdir())}

    def query_op(i: int, query) -> Op:
        (tn, target), (b1n, b1), (b2n, b2) = query
        seen = {n for q in stream[:i + 1] for n, _ in q}

        def check(result) -> str | None:
            covered = set(reference[b1n]) | set(reference[b2n])
            want = tuple(c for c in reference[tn] if c not in covered)
            if result != want:
                return f"{len(result)} codes differ from the uncached {len(want)}"
            entries = sum(1 for _ in cache_dir.iterdir())
            return _expect("cache entries (misses so far)", len(seen), entries)
        return Op(f"cached difference #{i} {tn}-[{b1n},{b2n}]",
                  lambda: codecat.image_set_difference(target, [b1, b2],
                                                       cache_dir=cache_dir),
                  check)

    ops = [query_op(i, q) for i, q in enumerate(stream)]
    return Workload("cache", ops, prepare=prepare, before_pass=before_pass,
                    after_pass=after_pass,
                    close=lambda: shutil.rmtree(cache_dir, ignore_errors=True))


WORKLOADS = {"census": census, "structure": structure, "cache": cache, "pool": pool}


def build(name: str, seed: int, small: bool = False) -> Workload:
    return WORKLOADS[name](seed, small)
