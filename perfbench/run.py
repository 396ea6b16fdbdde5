"""entlab benchmark: one workload per invocation, closed loop, one client.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload leak --seed 1 --seconds 16 --trace 0

Workloads: leak, defect, assisted, cli_batch (see workloads.py and
perfbench/README.md). The program is imported from ``src/`` of the
checkout; without it the benchmark exits with code 2.

The process pins itself to one CPU, beside a speed probe that times a
fixed slice of work there, and reports times scaled to a reference CPU
(see SpeedProbe). The timed phase runs whole rounds (see workloads.py), at
least three, and as many as fit in ``--seconds`` of scaled time. With
``--trace 0`` nothing is instrumented and the end-to-end metrics are
reported; ``--trace 1`` wraps entlab's layers and reports the per-layer
metrics instead. Human-readable lines go first, a detail file is written
to perfbench/results/, and the last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 3
# OpenBLAS ran 128x128 eigvalsh about 16x slower for the first 0.8 s after
# numpy loaded (2 vCPUs, 2 threads), so warm-up lasts at least this long.
WARMUP_S = 1.5
# Every kind is timed at least three times.
MIN_ROUNDS = 3
# On a badly slowed machine a run may fall short of MIN_ROUNDS rather than
# run past five times --seconds (the whole run must stay within 180 s).
MAX_STRETCH = 5

END_TO_END_UNITS = {
    "evals_per_s": "1/s",
    "eval_p50_s": "s",
    "eval_tail_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def pin_cpu() -> int:
    """Pin this process, and so every process it starts, to one CPU; return it.

    The speed probe then samples the CPU the evaluations run on.
    """
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def cap_threads() -> None:
    """Cap BLAS/OpenMP threads at the CPUs this process may use."""
    allowed = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        current = os.environ.get(var, "")
        if not (current.isdigit() and 0 < int(current) <= allowed):
            os.environ[var] = str(allowed)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("leak", "defect", "assisted", "cli_batch"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def probe_setup(workload_name: str, seed: int) -> None:
    """Body of one fresh set-up interpreter: imports plus the first round's inputs."""
    sys.path.insert(0, SRC)
    if workload_name == "cli_batch":
        import entlab.cli  # noqa: F401  the child processes pay this import
    import workloads

    workloads.make(workload_name, seed, SRC, RESULTS, False).round(0)
    print("ready", flush=True)


def measure_setup(args, probe) -> list[tuple[float, float]]:
    """(start, end) of each fresh interpreter, from spawn until it reports ready."""
    times = []
    argv = [sys.executable, os.path.abspath(__file__), "--probe-setup",
            "--workload", args.workload, "--seed", str(args.seed), "--seconds", "1"]
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE)
        try:
            line = proc.stdout.readline()
            end = time.perf_counter()
            proc.stdout.read()
        finally:
            proc.stdout.close()
            proc.wait()
        if line.strip() != b"ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed (exit {proc.returncode})")
        times.append((start, end))
        probe.poll()
    return times


def machine_facts(nproc: int, cpu: int, seed: int) -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_text = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # numpy without the dict form of show_config
        blas_text = "unknown"
    commit = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "-C", ROOT, "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = "unknown (git failed)"
    return {
        "nproc": nproc,
        "pinned_cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_text,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "seed": seed,
        "commit": commit,
        "machine": platform.machine(),
    }


class SpeedProbe:
    """How fast the benchmark's CPU is, sampled alongside the evaluations.

    Starts ``speed_probe.py`` on the CPU this process is pinned to; it times
    a fixed slice of work every 20 ms. Wall times are scaled to a CPU on
    which the slice takes ``REFERENCE_S`` (scaled = wall x REFERENCE_S /
    slice), so that a run on a shared host that neighbours slow down for
    seconds or minutes at a time reads the same as one they do not. The
    probe takes about 3% of the CPU, in every run alike.
    """

    REFERENCE_S = 0.0005
    # an interval is scaled by the median of the slices that started in it,
    # or of this many nearest slices when fewer did
    NEAREST = 5

    def __init__(self):
        self.samples: list[tuple[float, float]] = []
        self._starts: list[float] = []
        self._partial = b""
        self._proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "speed_probe.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        )
        os.set_blocking(self._proc.stdout.fileno(), False)

    def _take(self, data: bytes) -> None:
        lines = (self._partial + data).split(b"\n")
        self._partial = lines.pop()
        for line in lines:
            start, seconds = (float(x) for x in line.split())
            self.samples.append((start, seconds))
            self._starts.append(start)

    def poll(self) -> None:
        """Take the samples the probe has written so far."""
        while True:
            try:
                data = os.read(self._proc.stdout.fileno(), 1 << 16)
            except BlockingIOError:
                return
            if not data:
                raise RuntimeError(f"speed probe ended early (exit {self._proc.wait()})")
            self._take(data)

    def stop(self) -> None:
        """Take the remaining samples and wait for the probe to end."""
        self.poll()
        self._proc.stdin.close()
        os.set_blocking(self._proc.stdout.fileno(), True)
        self._take(self._proc.stdout.read())
        self._proc.stdout.close()
        if self._proc.wait() != 0:
            raise RuntimeError(f"speed probe failed (exit {self._proc.returncode})")

    def kill(self) -> None:
        if self._proc.poll() is None:
            self._proc.kill()
        self._proc.wait()

    def factor(self, t0: float, t1: float) -> float:
        """Slowdown against the reference CPU over [t0, t1]."""
        lo = bisect.bisect_left(self._starts, t0)
        hi = bisect.bisect_right(self._starts, t1)
        if hi - lo < self.NEAREST:
            mid = bisect.bisect_left(self._starts, (t0 + t1) / 2)
            lo = max(0, min(mid - self.NEAREST // 2, len(self.samples) - self.NEAREST))
            hi = lo + self.NEAREST
        return statistics.median(s for _, s in self.samples[lo:hi]) / self.REFERENCE_S

    def slices_between(self, t0: float, t1: float) -> list[float]:
        lo = bisect.bisect_left(self._starts, t0)
        hi = bisect.bisect_right(self._starts, t1)
        return [s for _, s in self.samples[lo:hi]]


def tail(samples: list[float]) -> tuple[float, float, int]:
    """Value at the highest percentile with at least 10 samples beyond it.

    Returns (value, percentile, samples beyond). With 10 samples or fewer no
    such percentile exists and the maximum is returned.
    """
    ordered = sorted(samples)
    if len(ordered) <= 10:
        return ordered[-1], 100.0, 0
    index = len(ordered) - 11
    return ordered[index], 100.0 * (index + 1) / len(ordered), len(ordered) - 1 - index


def run_loop(workload, seconds: float, tracer, convergence_error, probe):
    """Closed loop over whole rounds; returns per-evaluation records and timing.

    Each record keeps its evaluation's wall time (``t0`` to ``t1``) and its
    share of the timed phase (from the end of the previous record to the end
    of its check, ``mark`` to ``t2``). The loop runs as many whole rounds as
    fit in ``seconds`` of scaled time (see SpeedProbe), at least
    ``MIN_ROUNDS``, so that a run covers the same rounds however fast the
    CPU is at the moment.
    """
    records = []
    start = mark = time.perf_counter()
    scaled = 0.0
    rounds = 0
    while True:
        round_start = scaled
        for ev in workload.round(rounds):
            if tracer is not None:
                tracer.begin_eval(len(records))
            t0 = time.perf_counter()
            try:
                out = ev.run()
            except convergence_error as exc:
                t1 = time.perf_counter()
                status, message = "convergence", str(exc)
            except Exception as exc:  # recorded as a failed evaluation
                t1 = time.perf_counter()
                status, message = "raised", f"{type(exc).__name__}: {exc}"
            else:
                t1 = time.perf_counter()
                message = ev.check(out)
                status = "ok" if message is None else "wrong"
            t2 = time.perf_counter()
            records.append({"kind": ev.kind, "seconds": t1 - t0, "busy_s": t2 - mark,
                            "status": status, "message": message,
                            "t0": t0, "t1": t1, "mark": mark, "t2": t2})
            probe.poll()
            scaled += (t2 - mark) / probe.factor(mark, t2)
            mark = t2
        rounds += 1
        last = scaled - round_start
        # stop before a round that would likely end past the requested
        # duration, and never start one that would end past five times it
        if rounds >= MIN_ROUNDS and scaled + last > seconds:
            break
        if time.perf_counter() - start + last > MAX_STRETCH * seconds:
            break
    return records, time.perf_counter() - start, rounds


def scale_records(records, probe) -> None:
    """Add each record's times scaled to the reference CPU (see SpeedProbe)."""
    for r in records:
        r["factor"] = probe.factor(r["t0"], r["t1"])
        r["scaled_s"] = r["seconds"] / r["factor"]
        r["scaled_busy_s"] = r["busy_s"] / probe.factor(r["mark"], r["t2"])


# Per-layer metrics divided by the number of evaluations:
# (metric, tracer summary section, key, unit).
PER_EVAL = [
    ("channels.apply.calls", "calls", "channels.apply", "calls/eval"),
    ("channels.apply.self_s", "self_s", "channels.apply", "s/eval"),
    ("channels.apply.kraus_terms", "counters", "apply.kraus_terms", "terms/eval"),
    ("channels.apply.bytes_computed", "counters", "apply.bytes_computed", "B/eval"),
    ("channels.build.self_s", "self_s", "channels.build", "s/eval"),
    ("channels.pauli.self_s", "self_s", "channels.pauli", "s/eval"),
    ("measures.outputs_per_eval", "counters", "measures.outputs", "outputs/eval"),
    ("measures.self_s", "self_s", "measures", "s/eval"),
    ("states.DensityMatrix.calls", "calls", "states.DensityMatrix", "calls/eval"),
    ("states.DensityMatrix.self_s", "self_s", "states.DensityMatrix", "s/eval"),
    ("states.partial_trace.calls", "calls", "states.partial_trace", "calls/eval"),
    ("states.partial_trace.self_s", "self_s", "states.partial_trace", "s/eval"),
    ("states.von_neumann_entropy.calls", "calls", "states.von_neumann_entropy", "calls/eval"),
    ("states.von_neumann_entropy.self_s", "self_s", "states.von_neumann_entropy", "s/eval"),
    ("states.other.self_s", "self_s", "states.other", "s/eval"),
    ("optim.max_entropy.calls", "calls", "optim.max_entropy", "calls/eval"),
    ("optim.max_entropy.self_s", "self_s", "optim.max_entropy", "s/eval"),
    ("optim.max_entropy.iterations", "counters", "max_entropy.iterations", "iter/eval"),
    ("optim.max_entropy.failed", "counters", "max_entropy.failed", "fails/eval"),
    ("optim.constraints.self_s", "self_s", "optim.constraints", "s/eval"),
    ("optim.decomposition.calls", "calls", "optim.decomposition", "calls/eval"),
    ("optim.decomposition.self_s", "self_s", "optim.decomposition", "s/eval"),
    ("optim.decomposition.sweeps", "counters", "decomposition.sweeps", "sweeps/eval"),
    ("optim.decomposition.restarts", "counters", "decomposition.restarts", "restarts/eval"),
    ("optim.member_objective.calls", "counters", "member_objective.calls", "calls/eval"),
    ("conjectures.self_s", "self_s", "conjectures", "s/eval"),
    ("zoo.self_s", "self_s", "zoo", "s/eval"),
    ("sync.self_s", "self_s", "sync", "s/eval"),
    ("sync.binomial_tail.calls", "counters", "sync.binomial_tail.calls", "calls/eval"),
    ("cli.startup_s", "self_s", "cli.startup", "s/eval"),
    ("cli.self_s", "self_s", "cli", "s/eval"),
    ("cli.render_json_s", "self_s", "cli.render_json", "s/eval"),
    ("cli.report_bytes", "counters", "cli.report_bytes", "B/eval"),
]
# Ratios of two counters (0 when the denominator is 0): (metric, numerator, denominator, unit).
RATIOS = [
    ("optim.decomposition.bracket_ratio", "assisted.bracket_ratio_sum",
     "assisted.bracket_count", "ratio"),
    ("optim.decomposition.certified_mean_bits", "assisted.certified_bits",
     "assisted.calls", "bits"),
    ("optim.member_objective.zero_frac", "member_objective.zero",
     "member_objective.calls", "ratio"),
]


def per_layer_metrics(summary: dict, records: list) -> dict:
    """Per-layer numbers from a tracer summary, as {metric: (value, unit)}.

    Self times are scaled to the reference CPU by the run's overall ratio of
    scaled to wall evaluation time.
    """
    n = len(records)
    wall = sum(r["seconds"] for r in records)
    scale = sum(r["scaled_s"] for r in records) / wall
    values = {
        name: (summary.get(section, {}).get(key, 0) / n * (scale if section == "self_s" else 1),
               unit)
        for name, section, key, unit in PER_EVAL
    }
    counters = summary.get("counters", {})
    for name, num, den, unit in RATIOS:
        d = counters.get(den, 0)
        values[name] = (counters.get(num, 0) / d if d else 0.0, unit)
    values["optim.max_entropy.worst_residual"] = (
        counters.get("max_entropy.worst_residual", 0.0), "trace_dist")
    layer_self = sum(summary.get("self_s", {}).values())
    good = sum(r["status"] == "ok" for r in records)
    values["trace.evals_per_s"] = (good / sum(r["scaled_busy_s"] for r in records), "1/s")
    values["trace.layer_self_s"] = (layer_self / n * scale, "s/eval")
    values["trace.coverage"] = (layer_self / wall, "ratio")
    return values


def main(argv=None) -> int:
    args = parse_args(argv)
    nproc = len(os.sched_getaffinity(0))
    if not os.path.isfile(os.path.join(SRC, "entlab", "__init__.py")):
        print(f"perfbench: no entlab sources under {SRC}", file=sys.stderr)
        return 2
    if args.probe_setup:
        cap_threads()
        probe_setup(args.workload, args.seed)
        return 0

    cpu = pin_cpu()
    cap_threads()
    os.makedirs(RESULTS, exist_ok=True)
    probe = SpeedProbe()
    try:
        return measure(args, nproc, cpu, probe)
    finally:
        probe.kill()


def measure(args, nproc: int, cpu: int, probe: SpeedProbe) -> int:
    """Set-up probes, warm-up, the timed loop and the report."""
    setup_times = measure_setup(args, probe)

    sys.path.insert(0, SRC)
    import workloads
    from entlab.errors import ConvergenceError

    loaded = time.perf_counter()

    import tracer as tracing

    scratch = os.path.join(RESULTS, f"tmp-{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(scratch, exist_ok=True)
    workload = workloads.make(args.workload, args.seed, SRC, scratch, bool(args.trace))
    # first calls pay lazy imports and caches; users pay them once per process
    while True:
        for ev in workload.warmup():
            try:
                ev.run()
            except ConvergenceError:
                pass
            probe.poll()
        if time.perf_counter() - loaded >= WARMUP_S:
            break
    if args.workload == "cli_batch":
        workload.summaries.clear()
    tracer = None
    if args.trace and args.workload != "cli_batch":
        tracer = tracing.Tracer()
        tracing.install(tracer)

    records, timed, rounds = run_loop(workload, args.seconds, tracer, ConvergenceError, probe)
    probe.stop()
    scale_records(records, probe)
    setup_scaled = [(end - start, (end - start) / probe.factor(start, end))
                    for start, end in setup_times]
    timed_slices = probe.slices_between(records[0]["mark"], records[-1]["t2"])

    facts = machine_facts(nproc, cpu, args.seed)
    attempted = len(records)
    good = sum(r["status"] == "ok" for r in records)
    wrong = sum(r["status"] == "wrong" for r in records)
    raised = sum(r["status"] == "raised" for r in records)
    convergence = sum(r["status"] == "convergence" for r in records)
    wall = {}
    scaled = {}
    for out, key, busy_key, setup_at in ((wall, "seconds", "busy_s", 0),
                                         (scaled, "scaled_s", "scaled_busy_s", 1)):
        latencies = [r[key] for r in records]
        tail_value, tail_pct, beyond = tail(latencies)
        out.update({
            "evals_per_s": good / sum(r[busy_key] for r in records),
            "eval_p50_s": statistics.median(latencies),
            "eval_tail_s": tail_value,
            "setup_s": statistics.median(t[setup_at] for t in setup_scaled),
        })
    if args.workload == "cli_batch":
        peak_kb = workload.peak_rss_kb
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    certified = getattr(workload, "certified", [])
    wall["peak_rss_mb"] = scaled["peak_rss_mb"] = peak_kb / 1024.0
    quartiles = statistics.quantiles(timed_slices, n=4)

    print(f"perfbench workload={args.workload} seed={args.seed} trace={args.trace} "
          f"seconds={args.seconds:g}")
    print("machine " + " ".join(
        f"{k}={v}" for k, v in facts.items() if k != "threads"
    ) + " threads=" + ",".join(f"{k}={v}" for k, v in facts["threads"].items()))
    print(f"machine speed: speed-probe slice median {1e3 * statistics.median(timed_slices):.4g}"
          f" ms (quartiles {1e3 * quartiles[0]:.4g} and {1e3 * quartiles[2]:.4g} ms, "
          f"{len(timed_slices)} slices in the timed phase, on CPU {cpu}); times below are "
          f"scaled to a {1e3 * SpeedProbe.REFERENCE_S:g} ms slice, wall times in brackets")
    print(f"load closed loop, 1 client: {rounds} rounds, {attempted} evaluations "
          f"in {timed:.2f} s{' (traced)' if args.trace else ''}")
    print(f"  evals_per_s          {scaled['evals_per_s']:.6g} 1/s [{wall['evals_per_s']:.6g}] "
          f"({good} checked evaluations / timed phase)")
    print(f"  eval_p50_s           {scaled['eval_p50_s']:.6g} s [{wall['eval_p50_s']:.6g}] "
          f"({attempted} samples)")
    print(f"  eval_tail_s          {scaled['eval_tail_s']:.6g} s [{wall['eval_tail_s']:.6g}] "
          f"(p{tail_pct:.1f}, {beyond} samples beyond, {attempted} samples)")
    print(f"  setup_s              {scaled['setup_s']:.6g} s [{wall['setup_s']:.6g}] (median of "
          f"{len(setup_times)} fresh interpreters: "
          + ", ".join(f"{t:.3f}" for _, t in setup_scaled) + ")")
    print(f"  peak_rss_mb          {scaled['peak_rss_mb']:.6g} MB")
    print(f"  failed_frac          {(attempted - good) / attempted:.6g} "
          f"({attempted - good}/{attempted})")
    if certified:
        print(f"  certified_mean_bits  {statistics.fmean(certified):.6g} bits "
              f"({len(certified)} assisted evaluations)")
    else:
        print("  certified_mean_bits  n/a (assisted workload only)")
    print(f"checks: {good} passed, {wrong} wrong output, {convergence} ConvergenceError, "
          f"{raised} other exceptions")
    shown = set()
    for r in records:
        if r["status"] != "ok" and (r["kind"], r["status"]) not in shown:
            shown.add((r["kind"], r["status"]))
            print(f"  {r['status']}: {r['kind']}: {r['message']}")

    if args.trace:
        if tracer is not None:
            summary = tracer.summary()
        else:
            summary = {}
            for part in workload.summaries:
                tracing.merge(summary, part)
        metrics = per_layer_metrics(summary, records)
        print("per-layer (traced run, per evaluation):")
        for name, (value, unit) in metrics.items():
            print(f"  {name:40s} {value:.6g} {unit}")
    else:
        metrics = {name: (value, END_TO_END_UNITS[name]) for name, value in scaled.items()}

    detail = {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "timed_s": timed,
        "rounds": rounds,
        "machine": facts,
        "speed_probe": {"reference_s": SpeedProbe.REFERENCE_S, "slices": probe.samples},
        "end_to_end": scaled,
        "end_to_end_wall": wall,
        "eval_tail": {"percentile": tail_pct, "beyond": beyond, "samples": attempted},
        "failed_frac": (attempted - good) / attempted,
        "certified_mean_bits": statistics.fmean(certified) if certified else None,
        "setup_probes_s": setup_scaled,
        "metrics": {k: v for k, (v, _) in metrics.items()},
        "records": records,
    }
    if tracer is not None:
        detail["spans"] = tracer.spans
    detail_path = os.path.join(
        RESULTS, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(detail_path, "w", encoding="utf-8") as fh:
        json.dump(detail, fh)
    for name in os.listdir(scratch):
        os.remove(os.path.join(scratch, name))
    os.rmdir(scratch)
    print(f"detail: {os.path.relpath(detail_path, ROOT)}")

    # an evaluation that raised ConvergenceError declined to answer and is
    # counted as failed; a wrong answer or any other exception is incorrect
    result = {
        "correct": wrong == 0 and raised == 0,
        "attempted": attempted,
        "failed": attempted - good,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
