"""The surfbraid benchmark.

    python3 bench/run.py --workload <membership|relator-search|tables>
                         --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a checkout; it imports the package from ``src/``.
One process, one thread, a closed loop: the next operation starts when the
previous one returns.  The workload's operations (``workloads.py``) run in
passes until ``--seconds`` have gone by; every answer is checked against an
oracle outside the timed region.

A short operation runs several times a pass, on the same input, its
repetitions spread over the pass, so that its samples come from the whole
run.  ``wall_s`` is the sum over the operations of the median of their
samples, the time for the workload's set of operations, and ``ops_per_s``
is the number of operations in the set over ``wall_s``.  ``op_p50_ms`` is
the median of the operations' medians and ``op_tail_ms`` the operation
median with ten operations beyond it, the highest percentile that has.
``setup_s`` is the median over fresh interpreters of importing surfbraid
and building the inputs.  ``peak_rss_mb`` is ``ru_maxrss`` of this process.

Every time is reported at the nominal speed of ``reference.py``: the
benchmark times a fixed kernel between the operations and multiplies each
timing by the kernel's nominal time over its mean time in the samples
around that timing, because a shared host changes speed by a quarter for
minutes at a time.  The detail line gives the times as measured next to
the kernel's figures.

``--trace 1`` first runs untraced passes for a third of the time, then
traced passes (``tracing.py``) for the rest, and reports the per-layer
metrics: counts from the first traced pass, self times as the mean over the
traced passes times the run's reference scale, and the traced over
untraced ``wall_s``.

The last line of stdout is the result as one JSON object; the line before
it holds the run's details (provenance, time per phase, failures, known
defects).  Exit code 2 means the checkout or its arguments are unusable.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import reference

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

SETUP_PROBES = 15
REPEAT_SHARE = 0.4
MAX_REPEATS = 24

# (name, unit, better)
END_TO_END = [
    ("wall_s", "s", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("op_p50_ms", "ms", "lower"),
    ("op_tail_ms", "ms", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
]

_COUNT, _SECONDS, _RATIO = "count", "s", "ratio"
PER_LAYER = [
    ("linalg.insert.calls", _COUNT, "lower"),
    ("linalg.insert.self_s", _SECONDS, "lower"),
    ("linalg.insert.useful_ratio", _RATIO, "higher"),
    ("linalg.reduce.calls", _COUNT, "lower"),
    ("linalg.reduce.self_s", _SECONDS, "lower"),
    ("linalg.rank", _COUNT, "lower"),
    ("linalg.columns", _COUNT, "lower"),
    ("linalg.elementary_divisors.calls", _COUNT, "lower"),
    ("linalg.elementary_divisors.self_s", _SECONDS, "lower"),
    ("diagrams.relation_instances.calls", _COUNT, "lower"),
    ("diagrams.relation_instances.self_s", _SECONDS, "lower"),
    ("diagrams.ideal_member.calls", _COUNT, "lower"),
    ("diagrams.ideal_member.self_s", _SECONDS, "lower"),
    ("diagrams.nf_decided_ratio", _RATIO, "higher"),
    ("diagrams.expand_certificate.self_s", _SECONDS, "lower"),
    ("diagrams.certificate_terms", _COUNT, "lower"),
    ("diagrams.degree_one_symbol.self_s", _SECONDS, "lower"),
    ("braid.relators.calls", _COUNT, "lower"),
    ("braid.relators.self_s", _SECONDS, "lower"),
    ("braid.random_relator_rewrite.self_s", _SECONDS, "lower"),
    ("braid.bounded_equal.calls", _COUNT, "lower"),
    ("braid.bounded_equal.self_s", _SECONDS, "lower"),
    ("braid.wreath_image.self_s", _SECONDS, "lower"),
    ("surface.pi1_normalize.calls", _COUNT, "lower"),
    ("surface.pi1_normalize.self_s", _SECONDS, "lower"),
    ("symplectic.symp_graded_dim.self_s", _SECONDS, "lower"),
    ("symplectic.words_of_degree.self_s", _SECONDS, "lower"),
    ("symplectic.symp_relations.self_s", _SECONDS, "lower"),
    ("symplectic.words", _COUNT, "lower"),
    ("abelianization.degree_one_torsion.self_s", _SECONDS, "lower"),
    ("abelianization.torsion_rows", _COUNT, "lower"),
    ("abelianization.torsion_columns", _COUNT, "lower"),
    ("verifier.verify_nonexistence.self_s", _SECONDS, "lower"),
    ("cli.main.self_s", _SECONDS, "lower"),
    ("trace.overhead_ratio", _RATIO, "lower"),
]


class Samples:
    """Latencies per operation label, outcome counts, and the reference
    kernel's samples (``reference.py``) taken between the operations."""

    def __init__(self, speed: reference.Speed | None = None):
        self.speed = speed or reference.Speed()
        self.latency: dict[str, list[float]] = {}
        self.when: dict[str, list[tuple[float, float]]] = {}
        self.phase: dict[str, str] = {}
        self.attempted = self.failed = self.refused = 0
        self.failures: dict[str, str] = {}

    def scaled(self) -> dict[str, list[float]]:
        """The latencies, each times the reference scale around it."""
        return {label: [x * self.speed.scale_at(*w) for x, w in zip(v, self.when[label])]
                for label, v in self.latency.items()}


def run_op(op, ctx, samples, tracer=None) -> tuple[bool, object]:
    """Time one call, then check it outside the timed region.  Returns
    whether it passed, and its result."""
    from surfbraid.errors import SurfbraidError

    error = result = None
    samples.speed.sample()
    if tracer is not None:
        tracer.active = True
    start = time.perf_counter()
    try:
        result = op.call(ctx)
    except SurfbraidError as exc:  # a refusal with a stated reason
        error = exc
    except Exception as exc:  # any other exception fails the operation
        error = exc
    elapsed = time.perf_counter() - start
    if tracer is not None:
        tracer.active = False

    samples.attempted += 1
    samples.latency.setdefault(op.label, []).append(elapsed)
    samples.when.setdefault(op.label, []).append((start, start + elapsed))
    samples.phase[op.label] = op.phase
    if isinstance(error, SurfbraidError):
        samples.refused += 1
        samples.failures[op.label] = f"refused: {type(error).__name__}: {error}"
        return False, error
    if error is not None:
        samples.failed += 1
        samples.failures[op.label] = f"{type(error).__name__}: {error}"
        return False, error
    try:
        ok = bool(op.check(ctx, result))
    except Exception as exc:  # a malformed answer is a wrong answer
        ok = False
        samples.failures[op.label] = f"check raised {type(exc).__name__}: {exc}"
    if not ok:
        samples.failed += 1
        samples.failures.setdefault(op.label, "wrong answer")
    return ok, result


def run_pass(tasks, samples, tracer=None) -> list[tuple]:
    """Every task once, in order, each operation after a full collection so
    that no operation pays for the garbage of the one before.  Returns the
    operations that passed, each with the ctx it ran on."""
    ran = []
    for task in tasks:
        ctx = dict(task.start)
        for op in task.ops:
            gc.collect()
            if tracer is not None:
                tracer.op_id += 1
            before = dict(ctx)
            ok, result = run_op(op, ctx, samples, tracer)
            if not ok:
                break
            ran.append((op, before))
            if op.keep is not None:
                op.keep(ctx, result)
    if tracer is not None:
        tracer.end_pass()
    return ran


def run_passes(tasks, samples, until, tracer=None) -> int:
    """Whole passes until ``until`` (a ``perf_counter`` reading): a pass
    starts only if one more pass of the last one's length fits, and the
    first always runs.  Returns the number of passes."""
    passes = 0
    while True:
        begin = time.perf_counter()
        run_pass(tasks, samples, tracer)
        passes += 1
        now = time.perf_counter()
        if now + (now - begin) > until:
            return passes


def run_spread(tasks, samples, until) -> int:
    """The untraced measurement.  A first pass in task order; then passes in
    which every operation gets at least an equal share of ``REPEAT_SHARE``
    of the first pass's time: a short one runs several times, on the same
    input, its repetitions spread evenly over the pass, so that the samples
    behind every median come from the whole run.  After the first pass an
    operation starts only if its first latency still fits before
    ``until``; the run ends when none does.  Returns the number of
    complete passes."""
    begin = time.perf_counter()
    ran = run_pass(tasks, samples)
    share = REPEAT_SHARE * (time.perf_counter() - begin) / max(len(ran), 1)
    first = {op.label: samples.latency[op.label][0] for op, _ in ran}
    slots = []
    for i, (op, ctx) in enumerate(ran):
        reps = max(1, min(MAX_REPEATS, int(share / max(first[op.label], 1e-9))))
        slots += [((k + (i + 0.5) / len(ran)) / reps, op, ctx) for k in range(reps)]
    slots.sort(key=lambda slot: slot[0])

    passes = 1
    while True:
        started = 0
        for _, op, ctx in slots:
            if time.perf_counter() + first[op.label] > until:
                continue
            gc.collect()
            run_op(op, dict(ctx), samples)
            started += 1
        if not started:
            return passes
        if started == len(slots):
            passes += 1


def latency_figures(latency: dict[str, list[float]]) -> dict:
    """The workload's figures from each operation's median latency: their
    sum, the median operation, and the operation with ten beyond it."""
    medians = sorted(statistics.median(v) for v in latency.values())
    n = len(medians)
    wall = sum(medians)
    tail = max(n - 11, 0)  # ten operations beyond it
    return {
        "wall_s": wall,
        "ops_per_s": n / wall,
        "op_p50_ms": 1000 * statistics.median(medians),
        "op_tail_ms": 1000 * medians[tail],
        "op_tail_percentile": 100 * (tail + 1) / n,
        "op_count": n,
    }


def setup_seconds(workload: str, seed: int) -> tuple[float, float]:
    """The median set-up time in fresh interpreters, as measured and at the
    nominal speed of the reference kernel timed in the same interpreter."""
    measured, nominal = [], []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "setup_probe.py"), workload, str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        setup, kernel = map(float, proc.stdout.split())
        measured.append(setup)
        nominal.append(setup * reference.NOMINAL_S / kernel)
    return statistics.median(measured), statistics.median(nominal)


def provenance(seed: int) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "seed": seed,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "git_commit": git_commit(),
    }


def git_commit() -> str | None:
    """HEAD of the checkout, read from ``.git`` without running git; None
    when the checkout is not a git repository."""
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
    return None


def per_layer_metrics(tracer, untraced_wall: float, traced_wall: float,
                      scale: float) -> tuple[dict, bool]:
    """Per-layer figures, self times multiplied by ``scale``, and whether
    the counts repeated on every pass."""
    summaries = [tracer.summary(i) for i in range(len(tracer.passes))]
    first = summaries[0]
    counts = [(s["calls"], s["counters"]) for s in summaries]
    repeat = all(c == counts[0] for c in counts)
    out = {}
    for name, _, _ in PER_LAYER:
        if name == "trace.overhead_ratio":
            out[name] = traced_wall / untraced_wall
        elif name.endswith(".calls"):
            out[name] = first["calls"].get(name[:-len(".calls")], 0)
        elif name.endswith(".self_s"):
            span = name[:-len(".self_s")]
            out[name] = scale * statistics.fmean(s["self_s"].get(span, 0.0) for s in summaries)
        else:
            out[name] = first["counters"].get(name, 0)
    return out, repeat


def known_defects(workloads) -> list[dict]:
    out = []
    for op in workloads.known_defect_probes():
        probe = Samples()
        ok, _ = run_op(op, {}, probe)
        out.append({"operation": op.label, "passes": ok,
                    "outcome": probe.failures.get(op.label, "correct")})
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    if not (SRC / "surfbraid" / "__init__.py").is_file():
        print(f"error: no surfbraid package under {SRC}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    import surfbraid
    if Path(surfbraid.__file__).resolve().parent != (SRC / "surfbraid").resolve():
        print(f"error: imported surfbraid from {surfbraid.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")

    detail = {"workload": args.workload, "trace": args.trace, **provenance(args.seed)}
    samples = Samples()
    if not args.trace:
        detail["setup_probes"] = SETUP_PROBES
        setup_raw, setup_s = setup_seconds(args.workload, args.seed)
    tasks = workloads.build(args.workload, args.seed)
    detail["known_defects"] = known_defects(workloads)

    start = time.perf_counter()
    if args.trace:
        passes = run_passes(tasks, samples, start + args.seconds / 3)
        untraced = latency_figures(samples.latency)
        traced_samples = Samples(samples.speed)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            passes += run_passes(tasks, traced_samples, start + args.seconds, tracer)
        finally:
            tracer.uninstall()
        traced = latency_figures(traced_samples.latency)
        metrics, repeat = per_layer_metrics(tracer, untraced["wall_s"], traced["wall_s"],
                                            samples.speed.scale())
        detail["traced_passes"] = len(tracer.passes)
        detail["counts_repeat_across_passes"] = repeat
        for key in ("attempted", "failed", "refused"):
            setattr(samples, key, getattr(samples, key) + getattr(traced_samples, key))
        samples.failures.update(traced_samples.failures)
        units = {name: unit for name, unit, _ in PER_LAYER}
    else:
        passes = run_spread(tasks, samples, start + args.seconds)
        keys = ("wall_s", "ops_per_s", "op_p50_ms", "op_tail_ms")
        scaled = samples.scaled()
        figures = latency_figures(scaled)
        raw = latency_figures(samples.latency)
        metrics = {
            **{k: figures[k] for k in keys},
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        detail["measured"] = {**{k: raw[k] for k in keys}, "setup_s": setup_raw}
        detail["op_tail"] = {"percentile": figures["op_tail_percentile"],
                             "operations": figures["op_count"],
                             "samples": samples.attempted}
        phases: dict[str, float] = {}
        medians = {label: statistics.median(v) for label, v in scaled.items()}
        for label, median in medians.items():
            key = samples.phase[label] + "_s"
            phases[key] = phases.get(key, 0.0) + median
        detail["phases"] = phases
        detail["op_median_ms"] = {k: 1000 * v for k, v in medians.items()}
        units = {name: unit for name, unit, _ in END_TO_END}

    detail["reference"] = {
        "nominal_s": reference.NOMINAL_S,
        "mean_s": statistics.fmean(samples.speed.samples),
        "samples": len(samples.speed.samples),
        "scale": samples.speed.scale(),
    }
    detail.update(
        measured_s=time.perf_counter() - start,
        passes=passes,
        ops_per_pass=sum(len(t.ops) for t in tasks),
        fail_rate=samples.failed / samples.attempted,
        refused=samples.refused,
        failures=samples.failures,
    )
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": samples.failed == 0 and samples.refused == 0,
        "attempted": samples.attempted,
        "failed": samples.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
