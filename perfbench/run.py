"""KDIA round benchmark: one workload per invocation, in one process, through
the public library path ``kdia.orchestrator.run_experiment``.

    python3 perfbench/run.py --workload hetero --seed 1 --seconds 40 --trace 0

A run builds the workload's ``ExperimentConfig`` by keyword from
``spec.json`` and refuses to measure if any resolved field differs from the
one recorded there. It then repeats the experiment (``rounds`` rounds from
a fresh ``build_state``) with ``--seed`` as master seed until the next
repeat would end after ``--seconds``. Every round record and weight vector
is checked, and every repeat's metrics CSV must be byte-identical to the
first; a round that raises or fails a check counts in ``failed``.

``--trace 0`` gives the end-to-end metrics, with only ``build_state`` and
``run_round`` timed. ``--trace 1`` times the nn kernels, then alternates
untraced and traced repeats: the traced ones wrap every public function of
the kdia modules (``tracer.py``) and give the per-layer metrics (span times
are wall-clock seconds), and their round-time difference to the untraced
ones is the tracing overhead.

The host these numbers come from changes speed by up to 1.8x for seconds to
minutes at a time. So a fixed yardstick (frozen interpreter, small-matrix and
BLAS work, see ``yardstick_s``) runs right before and after each timed call,
outside its span, and every end-to-end time is scaled to a host that runs the
yardstick in ``YARDSTICK_REF_S``: its unit is seconds at that reference
speed. The unscaled wall times are printed and recorded next to them.
Metric names and units come from ``BENCHMARK.json``; what each per-layer
metric should move, and on which workload, is in ``spec.json``.

Every metric is printed with its unit, and the last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics. A
fuller record (environment, host-speed probes, samples, checks and the span
tree of one traced round) is written to ``.perfbench_out/``.
"""

import argparse
import ctypes
import dataclasses
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

# pinned before numpy is first imported; the benchmark is single-threaded
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

try:
    import numpy as np
    import kdia
    from kdia import aggregate, config, data, freqs, generator, harness, nn, orchestrator, trainer
except ImportError as exc:
    sys.exit(f"perfbench: cannot import kdia from {ROOT / 'src'}: {exc}")
if Path(kdia.__file__).resolve().parent != ROOT / "src" / "kdia":
    sys.exit(f"perfbench: imported kdia from {kdia.__file__}, not from {ROOT / 'src'}")

import kernels
from tracer import Tracer, public_targets

SETUP_REPEATS = 15
PROBE_REPEATS = 9
YARDSTICK_REF_S = 1e-3
YARDSTICK_LOOP = 12000
YARDSTICK_CALLS = 150
YARDSTICK_MATMULS = 15
COVERAGE_TOLERANCE = 0.05
WEIGHT_SUM_TOLERANCE = 1e-9
STAGES = (
    "trainer.local_update",
    "aggregate.ModelRegistry.update",
    "aggregate.aggregate_student",
    "aggregate.aggregate_teacher",
    "freqs.round_weights",
    "generator.train_generator",
    "trainer.evaluate",
)
CLOCK = [
    (orchestrator, "build_state", "orchestrator.build_state"),
    (orchestrator, "run_round", "orchestrator.run_round"),
]
LAYERS = public_targets([aggregate, data, freqs, generator, harness, nn, orchestrator, trainer])
SUFFIX = {"nn.optimizer_step": lambda args: "." + args[2].kind}

# per-layer metrics taken straight from the span summary
PER_ROUND_S = (
    "generator.train_generator", "generator.diversity_loss", "generator.LocalSynthesizer.draw",
    "nn.forward", "nn.backward", "nn.softmax_ce_loss", "nn.optimizer_step.adam", "nn.optimizer_step.sgd",
    "trainer.local_update", "trainer.kd_loss", "trainer.evaluate",
    "aggregate.aggregate_teacher", "aggregate.aggregate_student", "aggregate.ModelRegistry.update",
    "freqs.round_weights", "freqs.ClientLedger.record_round", "data.batches",
)
PER_ROUND_CALLS = (
    "generator.LocalSynthesizer.draw", "nn.forward", "nn.backward", "nn.softmax_ce_loss",
    "nn.optimizer_step.adam", "nn.optimizer_step.sgd", "trainer.local_update", "data.batches",
)
PER_ROUND_SELF_S = ("generator.train_generator", "orchestrator.run_round")
PER_SETUP_S = ("data.make_blobs", "data.dirichlet_partition", "orchestrator.build_state")
PER_RUN_S = ("harness.write_metrics",)


@dataclasses.dataclass
class Experiment:
    """One ``run_experiment`` call and what its checks found. Only the last
    round record is kept, so memory does not grow with the number of repeats."""

    traced: bool
    tracer: Tracer
    rounds: int
    raised: bool = False
    last: object = None
    yardsticks: list = dataclasses.field(default_factory=list)  # before round 0, then after each round
    csv: bytes = b""
    failures: dict = dataclasses.field(default_factory=dict)  # round (None = all) -> reasons

    def fail(self, t, reason: str) -> None:
        self.failures.setdefault(t, []).append(reason)

    @property
    def failed_rounds(self) -> int:
        return self.rounds if None in self.failures else len(self.failures)


def config_drift(cfg, resolved: dict) -> list[str]:
    """Fields whose resolved value differs from the recorded one."""
    actual = json.loads(json.dumps(dataclasses.asdict(cfg)))
    return [
        f"{key}: recorded {resolved.get(key)!r}, resolved {actual.get(key)!r}"
        for key in sorted(set(actual) | set(resolved))
        if actual.get(key) != resolved.get(key)
    ]


def check_records(exp: Experiment, cfg, res) -> None:
    """Output checks on every round record and teacher weight vector."""
    history = res.state.weights_history
    if len(res.metrics) != cfg.rounds or len(history) != cfg.rounds:
        exp.fail(None, f"{len(res.metrics)} records and {len(history)} weight sets for {cfg.rounds} rounds")
    expect = round(cfg.n_clients * cfg.sample_ratio)
    for rec, weights in zip(res.metrics, history):
        if not (0.0 <= rec.teacher_acc <= 1.0 and 0.0 <= rec.student_acc <= 1.0):
            exp.fail(rec.round, "accuracy outside [0, 1]")
        if not all(math.isfinite(v) for v in (rec.loss_ce, rec.loss_kd, rec.loss_gen)):
            exp.fail(rec.round, "non-finite loss")
        sel = rec.selected
        if len(sel) != expect or len(set(sel)) != len(sel) or not all(0 <= k < cfg.n_clients for k in sel):
            exp.fail(rec.round, f"selected {sel} is not {expect} distinct client ids")
        teacher = np.asarray(weights.teacher)
        if abs(float(teacher.sum()) - 1.0) > WEIGHT_SUM_TOLERANCE or (teacher < 0).any():
            exp.fail(rec.round, f"teacher weights sum to {float(teacher.sum())!r}")


def check_csv(exp: Experiment, reference: Experiment) -> None:
    """Fail every round whose CSV row differs from the reference run's."""
    rows, ref = exp.csv.split(b"\n"), reference.csv.split(b"\n")
    kinds = f"{'traced' if exp.traced else 'untraced'} vs {'traced' if reference.traced else 'untraced'}"
    if len(rows) != len(ref) or rows[0] != ref[0]:
        exp.fail(None, f"metrics CSV shape differs ({kinds})")
        return
    for t, (row, ref_row) in enumerate(zip(rows[1:], ref[1:])):
        if row != ref_row:
            exp.fail(t, f"metrics CSV row differs ({kinds})")


def run_one(cfg, seed: int, traced: bool, csv_path: Path) -> Experiment:
    exp = Experiment(traced, Tracer(LAYERS if traced else CLOCK, SUFFIX), cfg.rounds)
    exp.yardsticks.append(yardstick_s())
    exp.tracer.install()
    try:
        result = orchestrator.run_experiment(
            cfg, seed, round_hook=lambda t, state, rec: exp.yardsticks.append(yardstick_s())
        )
        harness.write_metrics(result.metrics, csv_path)
    except Exception:  # a raising round fails the whole experiment; report it
        traceback.print_exc()
        exp.raised = True
        exp.fail(None, "raised")
        return exp
    finally:
        exp.tracer.uninstall()
    exp.csv = csv_path.read_bytes()
    exp.last = result.metrics[-1]
    check_records(exp, cfg, result)
    return exp


def run_until(deadline: float, cfg, seed: int, kinds, csv_path: Path) -> list:
    """Repeat the experiment, cycling through ``kinds`` (traced or not), until
    the next repeat would end after ``deadline``; at least two repeats and one
    of each kind. Every CSV is compared with the first."""
    exps: list = []
    longest = 0.0
    while True:
        t0 = time.perf_counter()
        exp = run_one(cfg, seed, kinds[len(exps) % len(kinds)], csv_path)
        longest = max(longest, time.perf_counter() - t0)
        if exps and not exp.raised:
            check_csv(exp, exps[0])
        exps.append(exp)
        if exp.raised:
            return exps
        if len(exps) >= max(2, len(kinds)) and time.perf_counter() + longest > deadline:
            return exps


_YARD_X = np.linspace(-1.0, 1.0, 8 * 16).reshape(8, 16)
_YARD_W = np.linspace(-0.5, 0.5, 16 * 10).reshape(16, 10)
_YARD_B = np.linspace(0.0, 0.1, 10)
_YARD_G = np.linspace(-1.0, 1.0, 64 * 110).reshape(64, 110)
_YARD_H = np.linspace(-0.5, 0.5, 110 * 64).reshape(110, 64)


def yardstick_s() -> float:
    """Seconds for a fixed mix of the three kinds of work a round is made of:
    a pure interpreter loop, small dense-layer numpy calls, and generator-width
    (64x110 @ 110x64) BLAS matmuls. It is frozen here, apart from kdia, so that
    kdia changes do not move it."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(YARDSTICK_LOOP):
        acc += i * i
    for _ in range(YARDSTICK_CALLS):
        np.maximum(_YARD_X @ _YARD_W + _YARD_B, 0.0)
    for _ in range(YARDSTICK_MATMULS):
        _YARD_G @ _YARD_H
    return time.perf_counter() - t0


def at_reference_speed(durations, yardsticks) -> list[float]:
    """Each duration scaled by the mean of the yardstick runs just before and
    just after it (``yardsticks`` has one more entry than ``durations``)."""
    return [2.0 * YARDSTICK_REF_S * d / (a + b) for d, a, b in zip(durations, yardsticks, yardsticks[1:])]


def host_probe_us() -> float:
    """Median yardstick time in microseconds, a record of host-speed drift."""
    return statistics.median(yardstick_s() for _ in range(PROBE_REPEATS)) * 1e6


def blas_threads():
    """Threads the bundled OpenBLAS will use, or None if it cannot be asked."""
    for path in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
        "OMP_NUM_THREADS": os.environ["OMP_NUM_THREADS"],
    }


def tail(samples) -> tuple[float, float]:
    """(value, percentile) of the highest sample with at least ten samples
    above it, never below the median; with under 22 samples it is the middle
    (upper middle) sample."""
    s = sorted(samples)
    i = max(len(s) - 11, len(s) // 2)
    return s[i], 100.0 * (i + 1) / len(s)


def round_times(exps) -> tuple[list, list]:
    """(wall seconds, seconds at reference speed) of every timed round."""
    wall, scaled = [], []
    for e in exps:
        d = e.tracer.durations("orchestrator.run_round")
        wall += d
        scaled += at_reference_speed(d, e.yardsticks)
    return wall, scaled


def timing_metrics(rounds, setups) -> dict:
    return {
        "rounds_per_s": len(rounds) / sum(rounds),
        "round_s.p50": statistics.median(rounds),
        "round_s.tail": tail(rounds)[0],
        "setup_s": statistics.median(setups),
    }


def end_to_end(exps, setup_wall: list, setup_yardsticks: list) -> tuple[dict, dict]:
    wall, rounds = round_times(exps)
    metrics = timing_metrics(rounds, at_reference_speed(setup_wall, setup_yardsticks))
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    notes = {
        "rounds": len(rounds),
        "round_s.tail.percentile": tail(rounds)[1],
        "setups": len(setup_wall),
        "wall": timing_metrics(wall, setup_wall),
    }
    return metrics, notes


def per_layer(cfg, exps) -> tuple[dict, dict]:
    traced = [e for e in exps if e.traced]
    untraced = [e for e in exps if not e.traced]
    summary: dict = {}
    for e in traced:
        for name, row in e.tracer.summary().items():
            acc = summary.setdefault(name, [0, 0.0, 0.0])
            for i in range(3):
                acc[i] += row[i]
    empty = [0, 0.0, 0.0]
    n_rounds = summary["orchestrator.run_round"][0]
    n_setups = summary["orchestrator.build_state"][0]
    m = {}
    m.update({f"{n}.s": summary.get(n, empty)[1] / n_rounds for n in PER_ROUND_S})
    m.update({f"{n}.calls": summary.get(n, empty)[0] / n_rounds for n in PER_ROUND_CALLS})
    m.update({f"{n}.self_s": summary.get(n, empty)[2] / n_rounds for n in PER_ROUND_SELF_S})
    m.update({f"{n}.s": summary.get(n, empty)[1] / n_setups for n in PER_SETUP_S})
    m.update({f"{n}.s": summary[n][1] / summary[n][0] for n in PER_RUN_S})
    m["generator.adam_steps"] = sum(
        e.tracer.calls_under("nn.optimizer_step.adam", "generator.train_generator") for e in traced
    ) / n_rounds
    m["trainer.sgd_steps"] = sum(
        e.tracer.calls_under("nn.optimizer_step.sgd", "trainer.local_update") for e in traced
    ) / n_rounds
    # every teacher aggregate reads all N registry snapshots of P float64 parameters
    n_params = cfg.d_in * cfg.feature_dim + cfg.feature_dim + cfg.feature_dim * cfg.n_classes + cfg.n_classes
    m["aggregate.snapshots_read"] = summary.get("aggregate.aggregate_teacher", empty)[0] * cfg.n_clients / n_rounds
    m["aggregate.bytes_read"] = m["aggregate.snapshots_read"] * n_params * 8

    _, traced_rounds = round_times(traced)
    plain_wall, plain_rounds = round_times(untraced)
    total = covered = 0.0
    for e in traced:
        t, c = e.tracer.child_time("orchestrator.run_round", STAGES)
        total += t
        covered += c
    m["trace.round_s.p50"] = statistics.median(traced_rounds)
    m["wall.round_s.p50"] = statistics.median(plain_wall)
    m["trace.overhead"] = statistics.median(traced_rounds) / statistics.median(plain_rounds) - 1.0
    m["trace.stage_coverage"] = covered / total
    m["teacher_acc.final"] = traced[-1].last.teacher_acc
    m["student_acc.final"] = traced[-1].last.student_acc

    root = max(i for i, n in enumerate(traced[-1].tracer.names) if n == "orchestrator.run_round")
    notes = {
        "traced_rounds": len(traced_rounds),
        "untraced_rounds": len(plain_rounds),
        "spans": {n: {"calls": r[0], "total_s": r[1], "self_s": r[2]} for n, r in sorted(summary.items())},
        "last_traced_round": traced[-1].tracer.tree(root),
    }
    return m, notes


def parse_args(argv, workloads):
    p = argparse.ArgumentParser(description="KDIA round benchmark (one workload per run).")
    p.add_argument("--workload", required=True, choices=sorted(workloads))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    spec = json.loads((HERE / "spec.json").read_text())
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    args = parse_args(argv, spec["workloads"])
    if set(spec["per_layer_targets"]) != {m["name"] for m in bench["per_layer"]}:
        raise RuntimeError("spec.json per_layer_targets do not match BENCHMARK.json per_layer")
    declared = {m["name"]: m["unit"] for m in bench["per_layer" if args.trace else "end_to_end"]}
    start = time.perf_counter()
    deadline = start + args.seconds
    workload = spec["workloads"][args.workload]
    cfg = config.ExperimentConfig(**workload["overrides"])
    drift = config_drift(cfg, workload["resolved"])
    if drift:
        print("workload config differs from spec.json:\n  " + "\n  ".join(drift), file=sys.stderr)
        return 3

    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    env = environment()
    probe_start = host_probe_us()
    checks = {}
    if args.trace:
        kernel_metrics = kernels.run_kernels(args.seed)
        exps = run_until(deadline, cfg, args.seed, (False, True), out_dir / f"{stem}.csv")
    else:
        clock = Tracer(CLOCK)
        setup_yardsticks = [yardstick_s()]
        clock.install()
        try:
            for _ in range(SETUP_REPEATS):
                orchestrator.build_state(cfg, args.seed)
                setup_yardsticks.append(yardstick_s())
        finally:
            clock.uninstall()
        exps = run_until(deadline, cfg, args.seed, (False,), out_dir / f"{stem}.csv")
    probe_end = host_probe_us()

    attempted = sum(e.rounds for e in exps)
    failed = sum(e.failed_rounds for e in exps)
    if not exps[-1].raised:
        if args.trace:
            metrics, notes = per_layer(cfg, exps)
            metrics.update(kernel_metrics)
            metrics["host.probe_us.start"] = probe_start
            metrics["host.probe_us.end"] = probe_end
            coverage = metrics["trace.stage_coverage"]
            checks["stage_coverage"] = abs(1.0 - coverage) <= COVERAGE_TOLERANCE
        else:
            metrics, notes = end_to_end(exps, clock.durations("orchestrator.build_state"), setup_yardsticks)
    else:
        metrics, notes = {}, {}
    if metrics and set(metrics) != set(declared):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(declared))}")
    correct = failed == 0 and bool(metrics) and all(checks.values())

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  experiments {len(exps)}"
          f"  rounds/experiment {cfg.rounds}")
    print("environment " + "  ".join(f"{k}={v}" for k, v in env.items()))
    print(f"host.probe_us start {probe_start:.2f}  end {probe_end:.2f}")
    for name in sorted(metrics):
        print(f"  {name:<44} {metrics[name]:.6g} {declared[name]}")
    for name, value in notes.items():
        if name == "wall":
            print("  (wall, unscaled: " + "  ".join(f"{k} {v:.6g}" for k, v in value.items()) + ")")
        elif not isinstance(value, (dict, list)):
            print(f"  ({name} {value:g})")
    print(f"fail_share {failed / attempted:g} ({failed} of {attempted} rounds)  checks {checks}")
    for e in exps:
        for t, reasons in sorted(e.failures.items(), key=lambda kv: -1 if kv[0] is None else kv[0]):
            print(f"  failed round {'all' if t is None else t}: {'; '.join(reasons)}")

    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace, "seconds": args.seconds,
        "wall_s": time.perf_counter() - start, "environment": env,
        "config": dataclasses.asdict(cfg), "host_probe_us": {"start": probe_start, "end": probe_end},
        "checks": checks, "attempted": attempted, "failed": failed,
        "failures": [f"{t}: {r}" for e in exps for t, rs in e.failures.items() for r in rs],
        "metrics": metrics, "notes": notes,
    }
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1, default=str))
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": declared[n]} for n, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
