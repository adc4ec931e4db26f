"""contourcalc benchmark: derive and verify, end to end and per layer.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload compile --seed 1 --seconds 15 --trace 0

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` makes the traced
run and reports the per-layer metrics.  The last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
See README.md in this directory for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from speed import SpeedSampler

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SETUP_REPEATS = 5

# per-layer time metric -> span names whose self time it sums
LAYER_TIMES = {
    "engine.representation_s": ("engine.representation",),
    "compiler.reduce_self_s": ("compiler.derive_rule",),
    "compiler.emit_s": ("compiler.emit",),
    "ir.canonicalize_s": ("ir.canonicalize",),
    "cli.tables_s": ("cli.render_tables",),
    "oracle.branch_split_s": ("oracle.branch_split_oracle",),
    "oracle.normal_form_s": ("oracle.normal_form",),
    "oracle.table_build_s": ("oracle.ComponentTable",),
    "oracle.contour_side_s": ("oracle.evaluate_contour_side",),
    "oracle.realtime_side_s": ("oracle.evaluate_realtime_side",),
    "oracle.verify_self_s": ("oracle.verify",),
}
PARSE_SPANS = ("parser.parse_file", "parser.parse_superindex")
LAYER_COUNTS = (
    "engine.representation_terms",
    "compiler.rule_terms",
    "compiler.emit_chars",
    "ir.canonicalize_terms_in",
    "ir.canonicalize_terms_out",
    "oracle.branch_configs",
    "oracle.branch_terms",
    "oracle.normal_form_keys",
    "oracle.table_builds",
    "oracle.contour_points",
    "oracle.realtime_points",
)


def _import_program():
    """Import contourcalc from this checkout's src/, and nothing else."""
    sys.path.insert(0, str(SRC))
    try:
        import contourcalc
    except ImportError as err:
        sys.exit(f"error: cannot import contourcalc from {SRC}: {err}")
    if not Path(contourcalc.__file__).resolve().is_relative_to(SRC.resolve()):
        sys.exit(f"error: contourcalc was imported from {contourcalc.__file__}, not {SRC}")


def measure_setup(workload: str) -> float:
    """Median over fresh interpreters of import + parse + target enumeration,
    in reference seconds; each probe samples its own speed right after."""
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload],
            capture_output=True, text=True, timeout=120, check=False,
        )
        if proc.returncode != 0:
            sys.exit(f"error: set-up probe failed:\n{proc.stderr}")
        seconds, speed = map(float, proc.stdout.split())
        times.append(seconds * speed)
    return statistics.median(times)


class Phase:
    """Repeated passes of one phase: per-pass seconds and operation tallies,
    with each pass's outputs compared to the first pass's."""

    def __init__(self, fn, signature, sampler: SpeedSampler):
        self.fn = fn
        self.signature = signature  # outputs -> comparable value
        self.sampler = sampler
        self.raw_seconds: list[float] = []
        self.spans: list[tuple[float, float]] = []  # clock() at start and end
        self.done: list[int] = []
        self.attempted = 0
        self.failed = 0
        self.first = None
        self.reference = None
        self.mismatches = 0

    def run_once(self):
        clock = self.sampler.clock
        start = clock()
        outputs, attempted, failed = self.fn()
        end = clock()
        self.raw_seconds.append(end - start)
        self.spans.append((start, end))
        self.done.append(attempted - failed)
        self.attempted += attempted
        self.failed += failed
        sig = self.signature(outputs)
        if self.first is None:
            self.first, self.reference = outputs, sig
        elif sig != self.reference:
            self.mismatches += 1

    def run_for(self, seconds: float, on_pass=None):
        """Passes until ``seconds`` have gone by, at least one."""
        start = time.perf_counter()
        with self.sampler:
            while not self.raw_seconds or time.perf_counter() - start < seconds:
                if on_pass is not None:
                    on_pass(len(self.raw_seconds))
                self.run_once()

    def speeds(self) -> list[float]:
        """Per pass, the factor from its seconds to reference seconds."""
        return [self.sampler.speed(a, b) for a, b in self.spans]

    def seconds(self) -> list[float]:
        """Per-pass reference seconds."""
        return [s * k for s, k in zip(self.raw_seconds, self.speeds())]

    def rate(self) -> float:
        """Median over passes of operations done per reference second."""
        return statistics.median(d / s for d, s in zip(self.done, self.seconds()))


def _derive_signature(outputs):
    return [(key, text) for key, _, text in outputs]


def _verify_signature(outputs):
    return outputs


def _traced_layers(tracer, derive, verify, untraced_seconds, setup_speed, checks):
    """Per-layer metrics: median over traced derive passes plus median over
    traced verify passes, in reference seconds; parse time from the traced
    set-up."""

    def phase_values(prefix, phase):
        passes = [f"{prefix}-{i}" for i in range(len(phase.raw_seconds))]
        counts = [dict(tracer.counts[p]) for p in passes]
        checks.record(f"{prefix} counts repeat across traced passes",
                      lambda: all(c == counts[0] for c in counts))
        self_times = [tracer.self_times(p) for p in passes]
        times = {
            metric: statistics.median(
                k * sum(st.get(name, 0.0) for name in spans)
                for st, k in zip(self_times, phase.speeds())
            )
            for metric, spans in LAYER_TIMES.items()
        }
        return times, counts[0]

    d_times, d_counts = phase_values("derive", derive)
    v_times, v_counts = phase_values("verify", verify)
    setup_self = tracer.self_times("setup")
    parse_s = sum(setup_self.get(name, 0.0) for name in PARSE_SPANS)
    metrics = {"parser.parse_s": (parse_s * setup_speed, "s")}
    for metric in LAYER_TIMES:
        metrics[metric] = (d_times[metric] + v_times[metric], "s")
    for metric in LAYER_COUNTS:
        metrics[metric] = (d_counts.get(metric, 0) + v_counts.get(metric, 0), "count")
    contour_s = metrics["oracle.contour_side_s"][0]
    metrics["oracle.contour_points_per_s"] = (
        metrics["oracle.contour_points"][0] / contour_s if contour_s > 0 else 0.0, "1/s"
    )
    traced = statistics.median(derive.seconds()) + statistics.median(verify.seconds())
    metrics["trace.overhead_pct"] = (100.0 * (traced / untraced_seconds - 1.0), "%")
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    _import_program()
    import checks as ck
    import workloads as wl

    if args.workload not in wl.WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; one of {sorted(wl.WORKLOADS)}")
    spec = wl.WORKLOADS[args.workload]
    seeds = wl.verify_seeds(args.seed)

    sampler = SpeedSampler()
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer(sampler.clock)
        with tracer, sampler:
            tracer.begin_pass("setup")
            start = sampler.clock()
            setup = wl.load(args.workload)
            setup_speed = sampler.speed(start, sampler.clock())
    else:
        setup_s = measure_setup(args.workload)
        setup = wl.load(args.workload)
    jobs = wl.verify_jobs(setup)

    derive = Phase(lambda: wl.derive_pass(setup), _derive_signature, sampler)
    verify = Phase(lambda: wl.verify_pass(setup, jobs, seeds), _verify_signature, sampler)
    checks = ck.Checks()

    if tracer is None:
        derive.run_for(args.seconds * spec.derive_share)
        verify.run_for(args.seconds * (1.0 - spec.derive_share))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    else:
        # one untraced pass of each phase: the reference for outputs and
        # for the tracing overhead
        untraced_d = Phase(derive.fn, derive.signature, sampler)
        untraced_v = Phase(verify.fn, verify.signature, sampler)
        untraced_d.run_for(0.0)
        untraced_v.run_for(0.0)
        with tracer:
            derive.run_for(args.seconds * spec.derive_share,
                           lambda i: tracer.begin_pass(f"derive-{i}"))
            verify.run_for(args.seconds * (1.0 - spec.derive_share),
                           lambda i: tracer.begin_pass(f"verify-{i}"))
        checks.record("traced derive outputs match untraced",
                      lambda: untraced_d.reference == derive.reference)
        checks.record("traced verify outputs match untraced",
                      lambda: untraced_v.reference == verify.reference)

    checks.record("derive outputs repeat across passes", lambda: derive.mismatches == 0)
    checks.record("verify outputs repeat across passes", lambda: verify.mismatches == 0)
    rules = {key: rule for key, rule, _ in derive.first if rule is not None}
    rules.update({(st.name, st.eq.contour, tname): rule for st, tname, _, rule in jobs})
    tables = [(key[1:], text) for key, rule, text in derive.first if key[0] == "tables"]
    ck.golden_tables(checks, tables)
    ck.reference_rows(checks, setup, rules)
    ck.probe_rules(checks, setup, rules, spec.probe_checks, seeds[0])
    ck.corrupted_rules(checks, setup, rules, spec.corrupt, seeds[0])

    if tracer is None:
        metrics = {
            "setup_s": (setup_s, "s"),
            "derive_rules_per_s": (derive.rate(), "rules/s"),
            "verify_rules_per_s": (verify.rate(), "rules/s"),
            "peak_rss_mb": (peak_rss_mb, "MiB"),
        }
    else:
        untraced = untraced_d.seconds()[0] + untraced_v.seconds()[0]
        metrics = _traced_layers(tracer, derive, verify, untraced, setup_speed, checks)
        tracer.dump(HERE / "out" / f"spans-{args.workload}-seed{args.seed}.jsonl")

    phases = [derive, verify] + ([untraced_d, untraced_v] if tracer is not None else [])
    result = {
        "correct": checks.failed == 0,
        "attempted": sum(p.attempted for p in phases) + checks.attempted,
        "failed": sum(p.failed for p in phases) + checks.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    print(
        f"# {args.workload} seed={args.seed}: {len(derive.raw_seconds)} derive passes, "
        f"{len(verify.raw_seconds)} verify passes, {checks.attempted} checks "
        f"({checks.failed} failed)"
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != "0":
        # String hashing orders the sets and dicts of labels; left random, it
        # changes run times by several percent from one process to the next.
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  dict(os.environ, PYTHONHASHSEED="0"))
    sys.exit(main())
