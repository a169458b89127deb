"""Run one codecat benchmark workload and print its metrics.

    python3 perfbench/run.py --workload census --seed 1 --seconds 20 --trace 0

Run from the root of a codecat checkout; the library is imported from its
src/ directory.  The run repeats whole passes over the workload's fixed list
of operations until the next pass would end after --seconds, checking every
result against its golden value outside the timed region.  The last line of
standard output is one JSON object: correct, attempted, failed and metrics.

--trace 0 reports the end-to-end metrics: wall_ref, one pass as the sum of
each operation's median time over the passes, each time counted in blocks
of reference.py timed right before and after the operation; setup_s, the
median over fresh interpreters of start-up to the first operation;
peak_rss_mb.  --trace 1 runs untraced and traced passes in turn and reports
the per-layer metrics of spans.PER_LAYER.  Failures are named on standard
error; a run with failures still finishes and prints its result.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import reference
import spans
import workloads

HERE = Path(__file__).resolve().parent
# Fresh interpreters timed for setup_s, half before the passes, half after.
SETUP_PROBES = 10
MIN_PASSES = 3
MIN_TRACED_PASSES = 2
# After each operation, reference blocks run for this share of its time.
REF_SHARE = 0.25
REF_MIN_BLOCKS = 2
END_TO_END = [("wall_ref", "blocks"), ("setup_s", "s"), ("peak_rss_mb", "MB")]


@dataclass
class Pass:
    times: list[float]      # one per operation
    failures: list[str]
    counts: dict            # exact counts; per-layer metrics once traced
    block_s: list[float] = field(default_factory=list)  # before, then after each operation

    @property
    def scaled(self) -> list[float]:
        """Each operation's time in reference blocks timed around it."""
        return [t / ((before + after) / 2)
                for t, before, after in zip(self.times, self.block_s, self.block_s[1:])]

    @property
    def wall(self) -> float:
        return sum(self.times)


def block_seconds(seconds: float) -> float:
    """Mean time of the reference blocks run for about `seconds`."""
    count, spent = reference.timed_blocks(seconds, REF_MIN_BLOCKS)
    return spent / count


def run_pass(workload: workloads.Workload, tracer: spans.Tracer | None = None,
             timed_reference: bool = True) -> Pass:
    """One pass over the operations.  Only the operations are timed (and
    traced); checks and the workload's pass hooks are not.  Untraced passes
    also time reference blocks before the first operation and after each."""
    workload.before_pass()
    times, failures, block_s = [], [], []
    if timed_reference:
        block_s.append(block_seconds(0.0))
    for op in workload.ops:
        if tracer is not None:
            tracer.active = True
        t0 = perf_counter()
        try:
            result, error = op.run(), None
        except Exception as exc:  # a failing operation is counted, not fatal
            result, error = None, f"raised {type(exc).__name__}: {exc}"
        times.append(perf_counter() - t0)
        if tracer is not None:
            tracer.active = False
        if timed_reference:
            block_s.append(block_seconds(REF_SHARE * times[-1]))
        if error is None:
            try:
                error = op.check(result)
            except Exception as exc:
                error = f"check raised {type(exc).__name__}: {exc}"
        if error:
            failures.append(f"{op.name}: {error}")
    return Pass(times, failures, workload.after_pass(), block_s)


def run_passes(workload, seconds: float, minimum: int = MIN_PASSES) -> list[Pass]:
    """Whole passes until the next one would end after the deadline."""
    deadline = perf_counter() + seconds
    passes: list[Pass] = []
    while True:
        start = perf_counter()
        passes.append(run_pass(workload))
        now = perf_counter()
        if len(passes) >= minimum and now + (now - start) > deadline:
            return passes


def setup_seconds(workload: str, seed: int, probes: int) -> list[float]:
    """Start-up to first operation, measured on fresh interpreters: start,
    import codecat, build and parse the workload's inputs, exit."""
    probe = [sys.executable, str(HERE / "setup_probe.py"),
             "--workload", workload, "--seed", str(seed)]
    out = []
    for _ in range(probes):
        t0 = perf_counter()
        subprocess.run(probe, check=True)
        out.append(perf_counter() - t0)
    return out


def src_lines() -> int:
    return sum(len(p.read_text().splitlines())
               for p in sorted(workloads.SRC.rglob("*.py")))


def pool_tasks(workload) -> dict[str, float]:
    """Per first-trunk subtree of each pooled census, timed serially."""
    from codecat import enumeration
    times = []
    for code in workload.pool_codes:
        words, trunks = enumeration._index_pool(code, enumeration.DEFAULT_TRUNK_CAP)
        for i in range(len(trunks)):
            t0 = perf_counter()
            enumeration._subtree_job((len(words), trunks, i))
            times.append(perf_counter() - t0)
    return {"pool.tasks": len(times),
            "pool.task_s_max": max(times, default=0.0),
            "pool.task_s_mean": statistics.fmean(times) if times else 0.0}


def traced_run(workload, seconds: float) -> tuple[list[Pass], dict[str, float], list[str]]:
    """Untraced and traced passes in turn, so that both see the same machine.

    Returns all passes, the per-layer metrics and the problems found: counts
    that differ between traced passes.  The wrappers are in place only
    during traced passes.
    """
    tracer = spans.Tracer()
    plain, traced = [], []
    deadline = perf_counter() + seconds
    while True:
        start = perf_counter()
        plain.append(run_pass(workload))
        tracer.reset()
        tracer.install()
        try:
            p = run_pass(workload, tracer, timed_reference=False)
        finally:
            tracer.uninstall()
        p.counts = spans.layer_metrics(tracer.spans, tracer.counts + Counter(p.counts))
        traced.append(p)
        now = perf_counter()
        if len(traced) >= MIN_TRACED_PASSES and now + (now - start) > deadline:
            break
    metrics, unsteady = spans.merge_passes([p.counts for p in traced])
    problems = [f"count differs between passes: {u}" for u in unsteady]
    no_pool = {"pool.tasks": 0, "pool.task_s_max": 0.0, "pool.task_s_mean": 0.0}
    try:
        metrics.update(pool_tasks(workload) if workload.pool_codes else no_pool)
    except (AttributeError, TypeError, ValueError) as exc:
        tracer.absent.append(f"pool tasks ({type(exc).__name__}: {exc})")
        metrics.update(no_pool)
    op_ms = [1000 * t for p in plain for t in p.times]
    cache_ops = workload.name == "cache"
    metrics["cache.op_p50_ms"] = statistics.median(op_ms) if cache_ops else 0.0
    metrics["cache.op_p90_ms"] = (statistics.quantiles(op_ms, n=10, method="inclusive")[8]
                                  if cache_ops else 0.0)
    metrics["trace.overhead_ratio"] = (statistics.median(p.wall for p in traced)
                                       / statistics.median(p.wall for p in plain))
    metrics["trace.absent_spans"] = len(tracer.absent)
    metrics["untraced.wall_s"] = median_pass(plain, "times")
    metrics["reference.block_ms"] = 1000 * statistics.median(t for p in plain for t in p.block_s)
    metrics["src_lines"] = src_lines()
    for name in tracer.absent:
        print(f"  absent span: {name}")
    return plain + traced, {n: metrics[n] for n, _ in spans.PER_LAYER}, problems


def median_pass(passes: list[Pass], attribute: str) -> float:
    """Each operation's median over passes, summed: one typical pass."""
    return sum(statistics.median(ts)
               for ts in zip(*(getattr(p, attribute) for p in passes)))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    setup = setup_seconds(args.workload, args.seed, SETUP_PROBES // 2)
    workload = workloads.build(args.workload, args.seed)
    problems = []
    try:
        try:
            workload.prepare()
        except Exception as exc:
            problems.append(f"prepare raised {type(exc).__name__}: {exc}")
        if args.trace:
            passes, metrics, unsteady = traced_run(workload, args.seconds)
            problems += unsteady
        else:
            passes = run_passes(workload, args.seconds)
            setup += setup_seconds(args.workload, args.seed, SETUP_PROBES - len(setup))
            metrics = {
                "wall_ref": median_pass(passes, "scaled"),
                "setup_s": statistics.median(setup),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
    finally:
        workload.close()

    report = result(passes, problems, metrics)
    print(f"{args.workload} seed={args.seed} trace={args.trace}: {len(passes)} passes "
          f"of {len(workload.ops)} operations, fail_ratio {report['failed']}/"
          f"{report['attempted']}, setup probes {len(setup)}, src_lines {src_lines()}")
    print("  pass walls (s): " + " ".join(f"{p.wall:.3f}" for p in passes))
    print("  pass walls (blocks): " + " ".join(f"{sum(p.scaled):.1f}" for p in passes
                                               if p.block_s))
    for message in problems + sorted({f for p in passes for f in p.failures}):
        print(f"  FAILED {message}")
    for name, m in report["metrics"].items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(report))
    return 0


def result(passes: list[Pass], problems: list[str], metrics: dict[str, float]) -> dict:
    """The result line: every failed operation and every problem found
    outside an operation counts against the attempts."""
    failed = sum(len(p.failures) for p in passes) + len(problems)
    units = {**dict(END_TO_END), **dict(spans.PER_LAYER)}
    return {
        "correct": failed == 0,
        "attempted": sum(len(p.times) for p in passes) + len(problems),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }


if __name__ == "__main__":
    sys.exit(main())
