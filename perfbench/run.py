"""The repository's benchmark: one workload, end-to-end or traced.

Usage (from the repository root; no build step)::

    python3 perfbench/run.py --workload fast_warm --seed 42 --seconds 22 --trace 0

Every run starts with one untimed warm-up repetition, which also fills
a warm workload's key vault.  ``--trace 0`` then measures the end-to-end metrics with nothing but the per-unit call
wrapped; ``--trace 1`` alternates untraced and traced repetitions,
wraps every layer boundary (``spans.LAYERS``) in the traced ones and
reports per-layer counts and self times per repetition, writes the
spans to ``perfbench/out/`` and reconciles its counts with the
program's own counters.  Either way every repetition's output is
checked (see ``check``), human-readable lines come first, and the last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 only
when every check passed.

``--record`` runs one repetition at the given seed and stores its
digest in ``perfbench/expected.json`` (for ``wire_cap64`` only after
proving a cap-1 run produces the same digest).  ``--smoke`` shrinks
every workload to a few seconds, for the benchmark's own tests.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXPECTED = HERE / "expected.json"
SETUP_SAMPLES = 15

# Every metric's unit, as BENCHMARK.json declares it.
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {
    metric["name"]: metric["unit"]
    for kind in ("end_to_end", "per_layer")
    for metric in DECLARED[kind]
}

clock = time.perf_counter


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True, choices=("fast_warm", "wire_cap64", "audit_cold")
    )
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=22)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--record", action="store_true")
    parser.add_argument("--expected", type=Path, default=EXPECTED)
    return parser.parse_args(argv)


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..1)."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def expected_key(args) -> str:
    return args.workload + ("@smoke" if args.smoke else "")


class Benchmark:
    """One invocation: warm-up, timed repetitions, checks, metrics."""

    def __init__(self, args, workload, workdir: Path) -> None:
        self.args = args
        self.workload = workload
        self.workdir = workdir
        self.setups: list[float] = []
        self.reps: list = []
        self.untimed: list = []  # the traced run's untraced repetitions
        self.warmup = None

    def warm_up(self) -> None:
        """One untimed repetition before any timing: lazy set-up
        finishes and, on a warm workload, the key vault fills."""
        state = self.workload.setup(self.args.seed, self.workdir)
        self.warmup = self.workload.run(state)
        gc.collect()

    def rep(self, timed: bool = True):
        start = clock()
        state = self.workload.setup(self.args.seed, self.workdir)
        setup_s = clock() - start
        rep = self.workload.run(state)
        if timed:
            self.setups.append(setup_s)
            self.reps.append(rep)
        else:
            self.untimed.append(rep)
        return rep

    def timed_loop(self, step=None) -> None:
        """Repeat ``step`` (one timed repetition by default) until
        ``--seconds`` have passed (at least once)."""
        deadline = clock() + self.args.seconds
        while True:
            (step or self.rep)()
            # The last repetition's objects must not count towards the
            # next one's peak memory.
            gc.collect()
            if clock() >= deadline:
                break

    def extra_setups(self) -> None:
        """Top ``setup_s`` up to a median over several set-ups."""
        while len(self.setups) < SETUP_SAMPLES:
            start = clock()
            self.workload.setup(self.args.seed, self.workdir)
            self.setups.append(clock() - start)

    # -- checks -------------------------------------------------------------

    def check(self, expected: dict | None) -> list[str]:
        """Every correctness check; returns the failures."""
        everything = [self.warmup] + self.untimed + self.reps
        problems = [p for rep in everything for p in rep.problems]
        digests = {rep.digest for rep in everything}
        if len(digests) != 1:
            problems.append(f"digest differs between repetitions: {sorted(digests)}")
        tables = {rep.notes.get("tables") for rep in everything}
        if len(tables) != 1:
            problems.append("rendered tables differ between repetitions")
        if expected is not None and expected["digest"] not in digests:
            problems.append(
                f"digest {sorted(digests)} != recorded {expected['digest']}"
            )
        keys = [rep.keys_generated for rep in self.reps]
        if self.workload.warm:
            if any(keys):
                problems.append(f"warm vault still generated keys: {keys}")
        else:
            cold = [rep.keys_generated for rep in everything]
            if len(set(cold)) != 1 or not cold[0]:
                problems.append(f"cold runs generated different key counts: {cold}")
            if expected is not None and expected.get("keys_generated") != cold[0]:
                problems.append(
                    f"generated {cold[0]} keys, "
                    f"recorded {expected.get('keys_generated')}"
                )
        return problems

    # -- metrics ------------------------------------------------------------

    def end_to_end(self) -> dict[str, tuple[float, int]]:
        """Metric → (value, sample count).

        Latency percentiles pool every unit of the run, so the p99 has
        at least ten samples beyond it.
        """
        latencies = [s for rep in self.reps for s in rep.latencies_s]
        rates = [rep.units / rep.run_s for rep in self.reps]
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        return {
            "setup_s": (statistics.median(self.setups), len(self.setups)),
            "units_per_s": (statistics.median(rates), len(rates)),
            "latency_p50_ms": (1000 * percentile(latencies, 0.50), len(latencies)),
            "latency_p99_ms": (1000 * percentile(latencies, 0.99), len(latencies)),
            "peak_rss_mb": (rss_mb, 1),
        }


def traced(bench: Benchmark) -> tuple[dict, list[str], list[str]]:
    """Untraced and traced repetitions in turn, per-layer metrics.

    Returns (metrics, check failures, report lines).
    """
    from spans import (
        LAYERS, Installer, Tracer, binding_tag, install_layers, parent_name,
    )

    tracer = Tracer()
    traced_s = 0.0

    def pair() -> None:
        # Untraced then traced, so drift over the run touches both alike.
        nonlocal traced_s
        bench.rep(timed=False)
        gc.collect()
        with Installer() as installer:
            install_layers(installer, tracer)
            start = clock()
            bench.rep()
            traced_s += clock() - start

    bench.timed_loop(pair)
    reps = bench.reps
    n = len(reps)
    summary = tracer.summary()

    def calls(name: str) -> int:
        return summary.get(name, {}).get("calls", 0)

    metrics: dict[str, float] = {}
    # Every call layer, reported as "<name>.calls" and "<name>.self_s";
    # sessions and the study's own time are reported their own way.
    timed_layers = dict.fromkeys(
        name for name, _, _, _, hook in LAYERS
        if hook != "task" and name != "study.run"
    )
    for name in timed_layers:
        metrics[f"{name}.calls"] = calls(name) / n
        metrics[f"{name}.self_s"] = summary.get(name, {}).get("self_s", 0.0) / n
    by_site = tracer.calls_by("x509.parse", binding_tag)
    for site in ("server", "engine", "probe"):
        metrics[f"x509.parse.{site}.calls"] = by_site[site] / n
    by_parent = tracer.calls_by("x509.tbs_encode", parent_name)
    metrics["x509.tbs_encode.validate.calls"] = by_parent["x509.validate"] / n
    metrics["x509.tbs_encode.issue.calls"] = by_parent["x509.issue"] / n

    hits = sum(rep.cache_hits for rep in reps)
    forged = sum(rep.certificates_forged for rep in reps)
    forges = calls("proxy.forge")
    metrics["proxy.forge.hit_ratio"] = hits / forges if forges else 0.0

    counters = tracer.counters
    metrics["netsim.drain.events"] = counters["netsim.drain.events"] / n
    process = [snap["process"] for rep in reps for snap in rep.snapshots]
    metrics["netsim.queue_depth_peak"] = max(
        [p["gauges"].get("wire.queue_depth_peak", 0) for p in process] + [0]
    )
    metrics["netsim.loop_ticks"] = sum(
        p["counters"].get("loop.ticks", 0) for p in process
    ) / n
    ingests = calls("measure.ingest")
    metrics["measure.ingest.accept_ratio"] = (
        counters["measure.ingest.accepted"] / ingests if ingests else 0.0
    )
    metrics["measure.ingest.repeat_chain_share"] = (
        counters["measure.ingest.repeat_chain"] / ingests if ingests else 0.0
    )
    sessions = tracer.sessions()
    metrics["measure.session.calls"] = len(sessions) / n
    metrics["measure.session.busy_ms_p50"] = (
        1000 * statistics.median(busy for _, busy in sessions) if sessions else 0.0
    )
    total_latency = sum(latency for latency, _ in sessions)
    metrics["measure.session.wait_share"] = (
        1 - sum(busy for _, busy in sessions) / total_latency if total_latency else 0.0
    )
    metrics["study.run.self_s"] = summary.get("study.run", {}).get("self_s", 0.0) / n
    traced_rates = [rep.units / rep.run_s for rep in reps]
    untraced_rates = [rep.units / rep.run_s for rep in bench.untimed]
    traced_rate = statistics.median(traced_rates)
    untraced_rate = statistics.median(untraced_rates)
    pair_slowdowns = sorted(u / t for u, t in zip(untraced_rates, traced_rates))
    metrics["trace.units_per_s"] = traced_rate
    metrics["trace.untraced_units_per_s"] = untraced_rate
    metrics["trace.slowdown"] = untraced_rate / traced_rate
    metrics["trace.spans"] = len(tracer.spans) / n

    # Reconcile traced counts with the program's own counters.
    deterministic = [
        snap["deterministic"]["counters"] for rep in reps for snap in rep.snapshots
    ]

    def program(prefix: str) -> int:
        return sum(
            value
            for snap in deterministic
            for key, value in snap.items()
            if key == prefix or key.startswith(prefix + "{")
        )

    problems = []
    reconcile = [
        ("crypto.keygen.calls == keystore.keys_generated",
         calls("crypto.keygen"), sum(rep.keys_generated for rep in reps)),
        ("proxy.forge.calls - cache_hits == certificates_forged",
         forges - hits, forged),
        ("measure.ingest.calls == reports.ingested + reports.rejected",
         ingests, program("reports.ingested") + program("reports.rejected")),
        ("measure.session.calls == study.sessions{mode=wire}",
         len(sessions), program("study.sessions{mode=wire}")),
    ]
    if not bench.workload.queued:
        reconcile.append(("netsim.drain.calls == 0", calls("netsim.drain"), 0))
    for label, traced_count, program_count in reconcile:
        if traced_count != program_count:
            problems.append(f"reconcile {label}: {traced_count} != {program_count}")

    out = HERE / "out"
    out.mkdir(exist_ok=True)
    spans_path = out / f"{bench.args.workload}-seed{bench.args.seed}-spans.tsv"
    tracer.write(spans_path)

    ranked = sorted(
        ((row["self_s"], name) for name, row in summary.items()), reverse=True
    )
    lines = [
        f"traced {n} repetition(s), {len(tracer.spans):,} spans -> "
        f"{spans_path.relative_to(ROOT)}",
        f"tracing slowdown {metrics['trace.slowdown']:.3f}x "
        f"({untraced_rate:,.1f} -> {traced_rate:,.1f} {bench.workload.unit}/s, "
        f"medians of {n} untraced/traced pair(s); per pair "
        f"{pair_slowdowns[0]:.3f}x..{pair_slowdowns[-1]:.3f}x)",
        "layers by self time per repetition, with self and inclusive shares "
        "of traced set-up + run time:",
    ] + [
        f"  {name:<18} {self_s / n:9.4f} s  self {100 * self_s / traced_s:5.1f}%  "
        f"incl {100 * summary[name]['total_s'] / traced_s:5.1f}%  "
        f"{summary[name]['calls'] / n:>10,.0f} calls"
        for self_s, name in ranked
    ]
    return metrics, problems, lines


def record(args, workload, bench: Benchmark) -> int:
    """Store the digest (and cold key count) for ``args.seed``."""
    rep = bench.rep(timed=False)
    entry = {"digest": rep.digest}
    if not workload.warm:
        entry["keys_generated"] = rep.keys_generated
    if getattr(workload, "concurrency", 1) > 1:
        workload.concurrency, concurrency = 1, workload.concurrency
        serial = bench.rep(timed=False)
        workload.concurrency = concurrency
        if serial.digest != rep.digest:
            print(f"error: cap-1 digest {serial.digest} != cap-{concurrency} "
                  f"{rep.digest}", file=sys.stderr)
            return 1
        print(f"cap-1 run agrees: {serial.digest}")
    recorded = json.loads(args.expected.read_text()) if args.expected.exists() else {}
    recorded.setdefault(expected_key(args), {})[str(args.seed)] = entry
    args.expected.write_text(json.dumps(recorded, indent=2, sort_keys=True) + "\n")
    print(f"recorded {expected_key(args)} seed {args.seed}: {entry}")
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if str(HERE) not in sys.path:
        sys.path.insert(0, str(HERE))
    # CI points this at a shared vault; the benchmark owns its key state.
    os.environ.pop("REPRO_KEY_VAULT", None)
    from workloads import workloads

    workload = workloads(args.smoke)[args.workload]
    workdir = HERE / ".work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        bench = Benchmark(args, workload, workdir)
        bench.warm_up()
        if args.record:
            return record(args, workload, bench)
        lines: list[str] = []
        if args.trace:
            metrics, problems, lines = traced(bench)
            samples = {name: len(bench.reps) for name in metrics}
        else:
            bench.timed_loop()
            bench.extra_setups()
            measured = bench.end_to_end()
            metrics = {name: value for name, (value, _) in measured.items()}
            samples = {name: count for name, (_, count) in measured.items()}
            problems = []
        recorded = (
            json.loads(args.expected.read_text()) if args.expected.exists() else {}
        )
        expected = recorded.get(expected_key(args), {}).get(str(args.seed))
        problems = bench.check(expected) + problems
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(rep.attempted for rep in bench.reps)
    failed = sum(rep.failed for rep in bench.reps)
    rep0 = bench.reps[0]
    print(
        f"{args.workload}: seed {args.seed}, {len(bench.reps)} repetition(s) of "
        f"{rep0.units:,} {workload.unit}, digest {rep0.digest[:16]}"
        + (f", proxied rate {rep0.notes['rate_percent']:.3f}%"
           if "rate_percent" in rep0.notes else "")
    )
    for line in lines:
        print(line)
    for name, value in metrics.items():
        print(f"  {name:<36} {value:>14.6g} {UNITS[name]:<6} n={samples[name]}")
    print(f"  {'error_rate':<36} {failed / attempted:>14.6g} ratio  "
          f"n={attempted} ({failed} failed)")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": UNITS[name]}
                    for name, value in metrics.items()
                },
            }
        )
    )
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
