"""Per-layer tracing from outside the library.

The tracer replaces module attributes of codecat with wrappers that record
one span per call (name, start, end, parent) while tracing is active.  The
wrapped names are the public functions the benchmark calls and the
module-level names one module calls in another; a name that no longer
exists is reported as absent instead of failing the run.  Spans stay in
memory; ``layer_metrics`` turns one pass of them into per-layer self time,
inclusive time and exact counts.
"""

from __future__ import annotations

import functools
import importlib
import statistics
from collections import Counter, defaultdict
from time import perf_counter


def _explored(result) -> dict:
    return {"enumeration.explored": result.stats.explored,
            "enumeration.pruned": result.stats.pruned}


# (module, attribute, span name, hook turning the result into exact counts).
# A function imported into several modules is wrapped at each name it is
# called through; all of them record the same span name.
WRAPS = [
    ("codecat", "enumerate_reduced_images", "enumeration.enumerate", _explored),
    ("codecat.enumeration", "enumerate_reduced_images", "enumeration.enumerate", _explored),
    ("codecat", "verify_image_membership", "enumeration.membership", None),
    ("codecat", "image_set_difference", "enumeration.difference", None),
    ("codecat.enumeration", "_index_pool", "enumeration.index_pool",
     lambda r: {"enumeration.pool_trunks": len(r[1])}),
    ("codecat.enumeration", "_stays_irredundant", "enumeration.irredundancy", None),
    ("codecat.enumeration", "_image_signature", "enumeration.signature", None),
    ("codecat.enumeration", "_canonical_of_reduced_masks", "enumeration.canon_request", None),
    ("codecat.enumeration", "_min_relabeling", "reduction.relabel", None),
    ("codecat.reduction", "_min_relabeling", "reduction.relabel", None),
    ("codecat", "canonical_form", "reduction.canonical_form", None),
    ("codecat.reduction", "canonical_form", "reduction.canonical_form", None),
    ("codecat.enumeration", "canonical_form", "reduction.canonical_form", None),
    ("codecat", "reduce_code", "reduction.reduce_code", None),
    ("codecat.reduction", "reduce_code", "reduction.reduce_code", None),
    ("codecat.trunks", "_trunk_family_masksets", "trunks.family",
     lambda r: {"trunks.family_size": len(r)}),
    ("codecat.constructions", "_trunk_family_masksets", "trunks.family",
     lambda r: {"trunks.family_size": len(r)}),
    ("codecat", "irreducible_trunks", "trunks.irreducible", None),
    ("codecat.trunks", "irreducible_trunks", "trunks.irreducible", None),
    ("codecat.reduction", "irreducible_trunks", "trunks.irreducible", None),
    ("codecat.enumeration", "cached_enumerate", "cache.lookup", None),
    ("codecat.enumeration", "parse_code", "codes.parse", None),
    ("codecat", "local_obstruction_report", "topology.report",
     lambda r: {"topology.missing_faces": len(r.entries)}),
    ("codecat.topology", "f2_reduced_homology", "topology.homology", None),
    ("codecat.topology", "is_collapsible", "topology.collapse", None),
]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self.absent: list[str] = []
        self.active = False
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def install(self, wraps=WRAPS) -> None:
        self.absent.clear()
        for modname, attr, name, hook in wraps:
            try:
                module = importlib.import_module(modname)
            except ImportError:
                module = None
            original = getattr(module, attr, None)
            if not callable(original):
                self.absent.append(f"{modname}.{attr}")
                continue
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(name, original, hook))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()

    def _wrap(self, name, fn, hook):
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            index = len(spans)
            spans.append([name, perf_counter(), 0.0, stack[-1] if stack else -1])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = perf_counter()
            if hook is not None:
                try:
                    counts.update(hook(result))
                except (AttributeError, TypeError, IndexError):
                    if f"{name} result" not in self.absent:
                        self.absent.append(f"{name} result")
            return result
        return traced


# Per-layer metrics, in report order, with their units.  Counts must repeat
# exactly between passes of one seed; times are medians over passes.
PER_LAYER = [
    ("enumeration.self_s", "s"),
    ("enumeration.explored", "count"),
    ("enumeration.pruned", "count"),
    ("enumeration.prune_ratio", "ratio"),
    ("enumeration.irredundancy_calls", "count"),
    ("enumeration.irredundancy_s", "s"),
    ("enumeration.signature_s", "s"),
    ("enumeration.canon_requests", "count"),
    ("enumeration.canon_hit_ratio", "ratio"),
    ("enumeration.index_pool_s", "s"),
    ("enumeration.pool_trunks", "count"),
    ("reduction.relabel_calls", "count"),
    ("reduction.relabel_s", "s"),
    ("reduction.canonical_form_calls", "count"),
    ("reduction.canonical_form_s", "s"),
    ("reduction.reduce_s", "s"),
    ("trunks.family_calls", "count"),
    ("trunks.family_s", "s"),
    ("trunks.family_size", "count"),
    ("trunks.irreducible_s", "s"),
    ("cache.hits", "count"),
    ("cache.misses", "count"),
    ("cache.hit_ratio", "ratio"),
    ("cache.read_s", "s"),
    ("cache.write_s", "s"),
    ("cache.key_s", "s"),
    ("cache.bytes_written", "B"),
    ("cache.op_p50_ms", "ms"),
    ("cache.op_p90_ms", "ms"),
    ("codes.parse_calls", "count"),
    ("codes.parse_s", "s"),
    ("pool.tasks", "count"),
    ("pool.task_s_max", "s"),
    ("pool.task_s_mean", "s"),
    ("topology.report_s", "s"),
    ("topology.missing_faces", "count"),
    ("topology.homology_s", "s"),
    ("topology.collapse_s", "s"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.absent_spans", "count"),
    ("untraced.wall_s", "s"),
    ("reference.block_ms", "ms"),
    ("src_lines", "count"),
]


def _ratio(part, whole) -> float:
    return part / whole if whole else 0.0


def layer_metrics(spans, counts) -> dict[str, float]:
    """Per-layer metrics of one traced pass.

    ``*_s`` of a function is its inclusive time, outermost calls only;
    ``enumeration.self_s`` is the time spent in enumeration spans minus what
    their child spans cover.  Cache lookups are split at their children: the
    canonical form before the read or the enumeration is the key, the rest of
    a lookup without an enumeration is the read (a hit), and the rest after
    the enumeration is the write (a miss).
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    calls: Counter = Counter()
    inclusive: Counter = Counter()
    self_time: Counter = Counter()
    kids = defaultdict(list)
    for i, (name, start, end, parent) in enumerate(spans):
        calls[name] += 1
        self_time[name] += end - start - child_time[i]
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            inclusive[name] += end - start
        if parent >= 0 and spans[parent][0] in ("cache.lookup", "enumeration.canon_request"):
            kids[parent].append(spans[i])

    hits = misses = 0
    read_s = write_s = key_s = 0.0
    relabels_for_requests = 0
    for i, (name, start, end, parent) in enumerate(spans):
        if name == "enumeration.canon_request":
            relabels_for_requests += sum(k[0] == "reduction.relabel" for k in kids[i])
        elif name == "cache.lookup":
            keys = [k for k in kids[i] if k[0] == "reduction.canonical_form"]
            runs = [k for k in kids[i] if k[0] == "enumeration.enumerate"]
            key_s += sum(k[2] - k[1] for k in keys)
            if runs:
                misses += 1
                write_s += end - runs[-1][2]
            else:
                hits += 1
                read_s += end - (keys[-1][2] if keys else start)

    explored, pruned = counts["enumeration.explored"], counts["enumeration.pruned"]
    requests = calls["enumeration.canon_request"]
    return {
        "enumeration.self_s": sum(t for n, t in self_time.items()
                                  if n.startswith("enumeration.")),
        "enumeration.explored": explored,
        "enumeration.pruned": pruned,
        "enumeration.prune_ratio": _ratio(pruned, explored + pruned),
        "enumeration.irredundancy_calls": calls["enumeration.irredundancy"],
        "enumeration.irredundancy_s": inclusive["enumeration.irredundancy"],
        "enumeration.signature_s": inclusive["enumeration.signature"],
        "enumeration.canon_requests": requests,
        "enumeration.canon_hit_ratio": 1 - _ratio(relabels_for_requests, requests) if requests else 0.0,
        "enumeration.index_pool_s": inclusive["enumeration.index_pool"],
        "enumeration.pool_trunks": counts["enumeration.pool_trunks"],
        "reduction.relabel_calls": calls["reduction.relabel"],
        "reduction.relabel_s": inclusive["reduction.relabel"],
        "reduction.canonical_form_calls": calls["reduction.canonical_form"],
        "reduction.canonical_form_s": inclusive["reduction.canonical_form"],
        "reduction.reduce_s": inclusive["reduction.reduce_code"],
        "trunks.family_calls": calls["trunks.family"],
        "trunks.family_s": inclusive["trunks.family"],
        "trunks.family_size": counts["trunks.family_size"],
        "trunks.irreducible_s": inclusive["trunks.irreducible"],
        "cache.hits": hits,
        "cache.misses": misses,
        "cache.hit_ratio": _ratio(hits, hits + misses),
        "cache.read_s": read_s,
        "cache.write_s": write_s,
        "cache.key_s": key_s,
        "cache.bytes_written": counts["cache.bytes_written"],
        "codes.parse_calls": calls["codes.parse"],
        "codes.parse_s": inclusive["codes.parse"],
        "topology.report_s": inclusive["topology.report"],
        "topology.missing_faces": counts["topology.missing_faces"],
        "topology.homology_s": inclusive["topology.homology"],
        "topology.collapse_s": inclusive["topology.collapse"],
    }


def merge_passes(per_pass: list[dict[str, float]]) -> tuple[dict[str, float], list[str]]:
    """Medians over passes for times; counts must agree exactly.  Returns the
    merged metrics and the names of counts that differed between passes."""
    units = dict(PER_LAYER)
    merged, unsteady = {}, []
    for name in per_pass[0]:
        values = [m[name] for m in per_pass]
        if units.get(name) in ("count", "ratio") and len(set(values)) > 1:
            unsteady.append(f"{name} {values}")
        merged[name] = values[0] if units.get(name) == "count" else statistics.median(values)
    return merged, unsteady
