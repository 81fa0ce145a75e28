"""Command-line harness: run experiments, sweep one axis, compute feature
similarity, verify gradients, and run the plain-FedAvg reference.

Flags mirror configuration keys in kebab-case; ``--config`` points at a flat
key=value file and explicit flags win over it.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

from . import gradcheck, harness, nn, orchestrator, trainer
from .config import ExperimentConfig, parse_config
from .errors import ConfigError, ProtocolError


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    for f in dataclasses.fields(ExperimentConfig):
        flag = "--" + f.name.replace("_", "-")
        if f.type == "bool":
            # --flag / --no-flag, so a flag can also switch off a config-file true
            parser.add_argument(
                flag, action=argparse.BooleanOptionalAction, default=None, dest=f.name
            )
        else:
            parser.add_argument(flag, type=str, default=None, dest=f.name, metavar="V")


def _overrides(args) -> dict:
    """The config keys given as flags, as text."""
    fields = dataclasses.fields(ExperimentConfig)
    return {f.name: getattr(args, f.name) for f in fields if getattr(args, f.name) is not None}


def _cmd_run(args) -> int:
    cfg = parse_config(args.config, _overrides(args))
    if args.checkpoint_interval < 0:
        raise ConfigError(
            f"--checkpoint-interval must be >= 0, got {args.checkpoint_interval}"
        )
    harness.make_out_dir(args.out_dir)
    for seed in cfg.seeds:
        hook = None
        if args.checkpoint_interval > 0:
            ckpt_dir = os.path.join(args.out_dir, f"checkpoints-seed{seed}")
            os.makedirs(ckpt_dir, exist_ok=True)

            def hook(t, state, rec, _dir=ckpt_dir):
                if (t + 1) % args.checkpoint_interval == 0:
                    models = (
                        ("student", state.student),
                        ("teacher", state.teacher),
                        ("generator", state.gen),
                    )
                    for name, model in models:
                        if model is not None:
                            path = os.path.join(_dir, f"{name}-{t:04d}.ckpt")
                            nn.save_checkpoint(model, path)

        result = orchestrator.run_experiment(cfg, seed, round_hook=hook)
        path = os.path.join(args.out_dir, f"run-seed{seed}.csv")
        harness.write_metrics(result.metrics, path)
        print(
            f"seed {seed}: best student {result.best_student_acc:.4f}, "
            f"best teacher {result.best_teacher_acc:.4f}, "
            f"final model: {result.final_model_kind} -> {path}"
        )
    return 0


def _cmd_sweep(args) -> int:
    values = [v for v in args.values.split(",") if v.strip()]
    written = harness.sweep(args.config, _overrides(args), args.axis, values, args.out_dir)
    for value, per_seed in written.items():
        for seed, path in per_seed.items():
            print(f"{args.axis}={value} seed={seed} -> {path}")
    return 0


def _cmd_similarity(args) -> int:
    cfg = parse_config(args.config, _overrides(args))
    if args.reference_epochs < 0:
        raise ConfigError(f"--reference-epochs must be >= 0, got {args.reference_epochs}")
    gen = nn.load_checkpoint(args.gen_checkpoint) if args.gen_checkpoint else None
    if gen is None and cfg.disable_gen:
        raise ConfigError("generator disabled; nothing to compare")
    expected = (cfg.noise_dim + cfg.n_classes, cfg.feature_dim)
    if gen is not None and (gen.input_width, gen.layers[-1][0].shape[1]) != expected:
        raise ConfigError(
            f"{args.gen_checkpoint}: maps {gen.input_width} -> {gen.layers[-1][0].shape[1]}, "
            f"not noise_dim + n_classes = {expected[0]} -> feature_dim = {expected[1]}"
        )
    seed = cfg.seeds[0]
    state = orchestrator.build_state(cfg, seed)
    # reference is trained centrally on the pooled training split
    reference = harness.train_centralized_reference(
        state.train_ds, cfg, seed=seed, epochs=args.reference_epochs
    )
    ref_acc = trainer.evaluate(reference, state.test_ds.features, state.test_ds.labels)
    if gen is None:
        gen = orchestrator.run_experiment(cfg, seed).state.gen
    sims = harness.feature_similarity(gen, reference, state.train_ds, seed=seed)
    print(f"centralized reference accuracy: {ref_acc:.4f}")
    for c, s in enumerate(sims):
        print(f"class {c}: mean cosine similarity {s:.4f}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write("class,mean_cosine\n")
            for c, s in enumerate(sims):
                fh.write(f"{c},{s:.6f}\n")
        print(f"wrote {args.out}")
    return 0


def _cmd_gradcheck(args) -> int:
    if args.instances < 1:
        raise ConfigError(f"--instances must be >= 1, got {args.instances}")
    return gradcheck.report(args.instances, args.seed)


def _cmd_fedavg_ref(args) -> int:
    cfg = parse_config(args.config, _overrides(args))
    harness.make_out_dir(args.out_dir)
    for seed in cfg.seeds:
        run = orchestrator.fedavg_reference(cfg, seed)
        records = [
            orchestrator.RoundMetrics(t, acc, *[0.0] * 7, sel)
            for t, (acc, sel) in enumerate(zip(run.accuracies, run.selected_sets))
        ]
        path = os.path.join(args.out_dir, f"fedavg-seed{seed}.csv")
        harness.write_metrics(records, path)
        print(f"seed {seed}: best accuracy {max(run.accuracies):.4f} -> {path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kdia",
        description="Desk-scale federated-learning simulator with inequitable "
        "teacher/student aggregation and conditional feature generation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run the full protocol for each seed")
    run_p.add_argument("--config", default=None, help="key=value config file")
    run_p.add_argument("--out-dir", default=".", help="metrics output directory")
    run_p.add_argument(
        "--checkpoint-interval",
        type=int,
        default=0,
        help="save model checkpoints every k rounds (0 disables)",
    )
    _add_config_flags(run_p)
    run_p.set_defaults(func=_cmd_run)

    sweep_p = sub.add_parser("sweep", help="sweep one axis with shared seeds")
    sweep_p.add_argument("--config", default=None)
    sweep_p.add_argument("--axis", required=True, choices=sorted(harness.SWEEP_AXES))
    sweep_p.add_argument("--values", required=True, help="comma-separated values")
    sweep_p.add_argument("--out-dir", default="sweep")
    _add_config_flags(sweep_p)
    sweep_p.set_defaults(func=_cmd_sweep)

    sim_p = sub.add_parser(
        "similarity", help="generated-vs-real feature similarity per class"
    )
    sim_p.add_argument("--config", default=None)
    sim_p.add_argument("--gen-checkpoint", default=None, help="load generator instead of training")
    sim_p.add_argument("--reference-epochs", type=int, default=100)
    sim_p.add_argument("--out", default=None, help="optional CSV output")
    _add_config_flags(sim_p)
    sim_p.set_defaults(func=_cmd_similarity)

    grad_p = sub.add_parser("gradcheck", help="finite-difference gradient suite")
    grad_p.add_argument("--instances", type=int, default=50)
    grad_p.add_argument("--seed", type=int, default=0)
    grad_p.set_defaults(func=_cmd_gradcheck)

    ref_p = sub.add_parser("fedavg-ref", help="plain FedAvg reference run")
    ref_p.add_argument("--config", default=None)
    ref_p.add_argument("--out-dir", default=".")
    _add_config_flags(ref_p)
    ref_p.set_defaults(func=_cmd_fedavg_ref)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ProtocolError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
