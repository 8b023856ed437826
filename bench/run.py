"""Benchmark of the densepairs decision engine.

Usage (from the repository root):

    python3 bench/run.py --workload crosscheck --seed 1 --seconds 10 --trace 0

One process, one caller, closed loop: each op starts when the previous
one has finished.  Inputs are generated from ``--seed`` before they are
timed, every output is checked against an independent reference, and
the last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` repeats the
untraced loop, then replays its first blocks with every layer wrapped in
spans (see ``spans.py``) and reports the per-layer metrics.  A full
record with run metadata goes to ``.bench_out/`` in the repository.  The
exit code is 1 when any op failed, 2 when the program is missing or its
CLI does not start.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

# Blocks per reference second (see HostClock), so that a run measures
# about --seconds seconds of op time on the reference machine.
BLOCK_RATE = {"crosscheck": 7.4, "qe_families": 2.1, "set_query": 31.0, "set_build": 31.0}
# Floors that keep at least 10 samples beyond p90, and the blocks replayed
# under tracing.
MIN_BLOCKS = {"crosscheck": 12, "qe_families": 10, "set_query": 30, "set_build": 25}
TRACE_BLOCKS = {"crosscheck": 10, "qe_families": 4, "set_query": 20, "set_build": 40}

# Time of reference_work() on the reference machine (py3.11.7, shared
# 2-vCPU x86 VM) in a quiet phase.
REFERENCE_S = 0.65e-3
SETUP_LAUNCHES = 9
SETUP_CODE = (
    "import densepairs, densepairs.cli, sys; "
    "sys.exit(densepairs.cli.run(['decide', 'Q(2/3)']))"
)

END_TO_END = [
    ("throughput_ops_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("output_size", "count"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
]

SPAN_STATS = [("calls", "count"), ("self_s", "s"), ("total_s", "s")]
COUNTER_METRICS = [
    ("formulas.dnf_clauses.clauses_out", "count"),
    ("formulas.dnf_clauses.max_clauses_out", "count"),
    ("oracles.oracle.witness_ratio", "ratio"),
    ("decomposition.pieces_out", "count"),
    ("model.enclosure.calls", "count"),
    ("model.enclosure.max_bits", "bits"),
]
TRACE_METRICS = [
    ("bench.op.self_s", "s"),
    ("trace.op_s", "s"),
    ("trace.layer_self_s", "s"),
    ("trace.spans", "count"),
    ("trace.untraced_ops_s", "1/s"),
    ("trace.traced_ops_s", "1/s"),
    ("trace.overhead_ops_s", "1/s"),
]


def per_layer_metrics(ladder) -> list[tuple[str, str]]:
    """Every per-layer metric name with its unit, in report order."""
    out = []
    for span in spans.LAYER_SPANS:
        out += [(f"{span}.{stat}", unit) for stat, unit in SPAN_STATS]
    out += COUNTER_METRICS
    out += [
        (f"qe.curve.{family}.n{n}_ms", "ms") for family, ns in ladder.items() for n in ns
    ]
    return out + TRACE_METRICS


def fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def load_program():
    """Import densepairs from this checkout's src/, and nothing else."""
    if not (SRC / "densepairs" / "__init__.py").is_file():
        fail(f"no densepairs package under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import densepairs

    if Path(densepairs.__file__).resolve().parent != SRC / "densepairs":
        fail(f"imported densepairs from {densepairs.__file__}, not from {SRC}")


def git_sha() -> str:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def measure_setup() -> tuple[float, list[float]]:
    """Median host-scaled wall time of fresh interpreters importing the CLI
    and deciding one sentence; one discarded launch first writes the
    bytecode cache."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    clock = HostClock()
    times = []
    for i in range(SETUP_LAUNCHES + 1):
        factor = clock.factor()
        started = time.perf_counter()
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CODE],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
        )
        elapsed = time.perf_counter() - started
        if done.returncode != 0 or done.stdout.strip() != "true":
            fail(f"cold-start check failed: exit {done.returncode}, {done.stderr.strip()}")
        if i:
            times.append(elapsed * factor)
    return statistics.median(times), times


def reference_work() -> Fraction:
    """Fixed pure-Python work in the program's style (Fractions, dicts,
    small tuples, sorting) that calls no densepairs code."""
    counts: dict[int, int] = {}
    total = Fraction(0)
    for i in range(1, 120):
        q = Fraction(i, i + 7)
        total += q * q
        counts[i % 17] = counts.get(i % 17, 0) + 1
        tuple(sorted((q, Fraction(1, i))))
    return total


class HostClock:
    """Scales measured times to reference seconds.

    A shared 2-vCPU x86 VM (the reference machine) alternates, for seconds
    to minutes at a time, between its normal speed and up to twice slower,
    which moved raw 20 s throughput by +-25% between identical runs.
    ``factor()`` is
    REFERENCE_S over the current time of reference_work (best of three),
    re-measured when the last measurement is older than REFRESH_S; scaling
    each op's time by it removed that drift (to +-3% in the same test).
    """

    REFRESH_S = 0.02

    def __init__(self) -> None:
        self._factor = 1.0
        self._measured = float("-inf")

    def factor(self) -> float:
        now = time.perf_counter()
        if now - self._measured > self.REFRESH_S:
            best = float("inf")
            for _ in range(3):
                started = time.perf_counter()
                reference_work()
                best = min(best, time.perf_counter() - started)
            self._factor = REFERENCE_S / best
            self._measured = time.perf_counter()
        return self._factor


class OpResult:
    """One executed op: its host-scaled and raw times, output size, error."""

    __slots__ = ("block", "kind", "seconds", "raw_seconds", "size", "error")

    def __init__(self, block, kind, seconds, raw_seconds, size, error):
        self.block, self.kind = block, kind
        self.seconds, self.raw_seconds = seconds, raw_seconds
        self.size, self.error = size, error


def untimed(index: int, fn):
    return fn()


def run_op(op, block: int, clock: HostClock, timed) -> OpResult:
    """Time one op, then check it; an op that raises is a failure."""
    factor = clock.factor()
    started = time.perf_counter()
    try:
        out = timed(op.run)
    except Exception as exc:  # noqa: BLE001 - a raising op is counted, not fatal
        raw = time.perf_counter() - started
        return OpResult(block, op.kind, raw * factor, raw, 0, f"{type(exc).__name__}: {exc}")
    raw = time.perf_counter() - started
    try:
        ok, size = bool(op.check(out)), op.size(out)
    except Exception as exc:  # noqa: BLE001
        ok, size, error = False, 0, f"check raised {type(exc).__name__}: {exc}"
    else:
        error = None if ok else "disagrees with the reference"
    return OpResult(block, op.kind, raw * factor, raw, size, error)


def measure_ops(blocks, timed=untimed) -> list[OpResult]:
    """Run every op of ``blocks`` once, closed loop.

    Each block is generated before any of its ops is timed and dropped
    after it, so peak memory is the program's plus one block.
    """
    results: list[OpResult] = []
    clock = HostClock()
    for b, block in enumerate(blocks):
        for op in block:
            index = len(results)
            results.append(run_op(op, b, clock, lambda fn: timed(index, fn)))
    return results


def percentiles(times: list[float]) -> dict:
    deciles = statistics.quantiles(times, n=10, method="inclusive")
    p50, p90 = deciles[4], deciles[8]
    return {
        "p50": p50,
        "p90": p90,
        "samples": len(times),
        "beyond_p90": sum(t > p90 for t in times),
    }


def end_to_end(results: list[OpResult], setup_s: float) -> dict[str, float]:
    times = [r.seconds for r in results]
    pct = percentiles(times)
    return {
        "throughput_ops_s": len(times) / sum(times),
        "op_p50_ms": pct["p50"] * 1e3,
        "op_p90_ms": pct["p90"] * 1e3,
        "output_size": float(sum(r.size for r in results)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": setup_s,
    }


def traced_replay(blocks, callers):
    """Run ``blocks`` with every layer wrapped in spans."""
    rec = spans.SpanRecorder()
    rec.install(callers)
    try:
        results = measure_ops(blocks, rec.run_op)
    finally:
        rec.uninstall()
    return rec, results


def layer_metrics(rec, traced: list[OpResult], untraced: list[OpResult], ladder) -> dict:
    """Per-layer metrics of the replay; the growth curve and the untraced
    side of the overhead come from the untraced loop."""
    totals = spans.layer_totals(rec)
    values: dict[str, float] = {}
    for span in spans.LAYER_SPANS:
        entry = totals.get(span, {})
        for stat, _ in SPAN_STATS:
            values[f"{span}.{stat}"] = float(entry.get(stat, 0))
    counters, maxima = rec.counters, rec.maxima
    oracle_calls = totals.get("oracles.oracle", {"calls": 0})["calls"]
    values["formulas.dnf_clauses.clauses_out"] = counters["formulas.dnf_clauses.clauses_out"]
    values["formulas.dnf_clauses.max_clauses_out"] = maxima["formulas.dnf_clauses.max_clauses_out"]
    values["oracles.oracle.witness_ratio"] = (
        counters["oracles.oracle.witnesses"] / oracle_calls if oracle_calls else 0.0
    )
    values["decomposition.pieces_out"] = counters["decomposition.pieces_out"]
    values["model.enclosure.calls"] = counters["model.enclosure.calls"]
    values["model.enclosure.max_bits"] = maxima["model.enclosure.max_bits"]

    by_rung: dict[str, list[float]] = {}
    for r in untraced:
        by_rung.setdefault(r.kind, []).append(r.seconds)
    for family, ns in ladder.items():
        for n in ns:
            samples = by_rung.get(f"{family}.n{n}")
            values[f"qe.curve.{family}.n{n}_ms"] = (
                statistics.median(samples) * 1e3 if samples else 0.0
            )

    root = totals[spans.ROOT]
    replayed = [r.seconds for r in untraced[: len(traced)]]
    values["bench.op.self_s"] = root["self_s"]
    values["trace.op_s"] = sum(r.raw_seconds for r in traced)
    values["trace.layer_self_s"] = sum(
        entry["self_s"] for name, entry in totals.items() if name != spans.ROOT
    )
    values["trace.spans"] = float(len(rec))
    values["trace.untraced_ops_s"] = len(replayed) / sum(replayed)
    values["trace.traced_ops_s"] = len(traced) / sum(r.seconds for r in traced)
    values["trace.overhead_ops_s"] = values["trace.traced_ops_s"] - values["trace.untraced_ops_s"]
    return values


def metadata(args, results: list[OpResult], blocks: int, pct: dict) -> dict:
    raw = [r.raw_seconds for r in results]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "git_sha": git_sha(),
        "ops": len(results),
        "blocks": blocks,
        "raw_throughput_ops_s": len(raw) / sum(raw),
        "median_host_factor": statistics.median(
            r.seconds / r.raw_seconds for r in results if r.raw_seconds
        ),
        "loop": "closed loop, one caller, single process",
        "percentile_samples": pct,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    load_program()
    sys.path.insert(0, str(BENCH))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    count = max(MIN_BLOCKS[args.workload], round(args.seconds * BLOCK_RATE[args.workload]))
    stream = workloads.WORKLOADS[args.workload]

    setup = measure_setup() if args.trace == 0 else None
    results = measure_ops(itertools.islice(stream(args.seed), count))
    traced: list[OpResult] = []
    if args.trace == 1:
        # the replay re-runs the first blocks, so both sides time the same ops
        replay = itertools.islice(stream(args.seed), TRACE_BLOCKS[args.workload])
        rec, traced = traced_replay(replay, [workloads])
    every = results + traced
    failures = [
        {"block": r.block, "kind": r.kind, "error": r.error} for r in every if r.error
    ]
    attempted = len(every)
    pct = percentiles([r.seconds for r in results])
    if args.trace == 0:
        metrics = end_to_end(results, setup[0])
        units = dict(END_TO_END)
    else:
        ladder = workloads.QE_LADDER
        metrics = layer_metrics(
            rec, traced, results, ladder if args.workload == "qe_families" else {}
        )
        units = dict(per_layer_metrics(ladder))
        for name in units:
            metrics.setdefault(name, 0.0)

    meta = metadata(args, results, count, pct)
    report = {
        "metadata": meta,
        "fail_ratio": len(failures) / attempted,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "failures": failures[:20],
    }
    if args.trace == 0:
        report["setup_launches_s"] = setup[1]
    if args.workload == "qe_families":
        report["excluded"] = workloads.QE_EXCLUDED
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    stem = f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}"
    if args.trace == 1:
        rec.write(out_dir / f"{stem}_spans.tsv.gz")
    (out_dir / f"{stem}.json").write_text(json.dumps(report, indent=1) + "\n")

    print(
        f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
        f"python {meta['python']}  nproc {meta['nproc']}  git {meta['git_sha'][:12]}"
    )
    print(
        f"{len(results)} ops in {count} blocks; percentiles from "
        f"{pct['samples']} samples, {pct['beyond_p90']} beyond p90"
    )
    print(f"  {'fail_ratio':<40} {report['fail_ratio']:.6g} ({len(failures)}/{attempted})")
    for name, value in metrics.items():
        print(f"  {name:<40} {value:.6g} {units[name]}")
    for ex in report.get("excluded", []):
        print(
            f"  excluded: {ex['family']} n={ex['n']} ({ex['reason']}; "
            f"last known {ex['last_known_s']} s per instance)"
        )
    for f in failures[:5]:
        print(f"  FAILED block {f['block']} {f['kind']}: {f['error']}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": attempted,
                "failed": len(failures),
                "metrics": report["metrics"],
            }
        )
    )
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
