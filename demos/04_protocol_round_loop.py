"""The full protocol against plain federated averaging.

Runs a shortened severe-heterogeneity benchmark (Dir(0.1), 10% sampling) and
prints both accuracy curves. The teacher, aggregated over every client with
the triple-frequency weights, converges more smoothly than the two-client
student and ends above the plain-averaging baseline. With distillation and
generation switched off, the round loop reproduces the baseline exactly,
parameter for parameter.
"""

import dataclasses

import numpy as np

from kdia import orchestrator
from kdia.config import heterogeneity_benchmark_config

cfg = dataclasses.replace(heterogeneity_benchmark_config(seeds=(0,)), rounds=40)
print(f"{cfg.n_clients} clients, {int(cfg.n_clients * cfg.sample_ratio)} per round, "
      f"Dir({cfg.beta}), {cfg.rounds} rounds, kd_weight={cfg.kd_weight}, "
      f"gen_weight={cfg.gen_weight}\n")

result = orchestrator.run_experiment(cfg, master_seed=0)
reference = orchestrator.fedavg_reference(cfg, master_seed=0)

print("round   student   teacher   plain-avg")
for t in range(0, cfg.rounds, 4):
    rec = result.metrics[t]
    print(f"{t:5d}   {rec.student_acc:.3f}     {rec.teacher_acc:.3f}     "
          f"{reference.accuracies[t]:.3f}")

sa = np.array([r.student_acc for r in result.metrics])
ta = np.array([r.teacher_acc for r in result.metrics])
fa = np.array(reference.accuracies)
print(f"\nbest: student {sa.max():.3f}, teacher {ta.max():.3f}, "
      f"plain averaging {fa.max():.3f}")
print(f"round-to-round delta variance: teacher {np.diff(ta).var():.5f} "
      f"vs student {np.diff(sa).var():.5f}")
print(f"final model by held-out performance: {result.final_model_kind}")

# exact degeneration: switch everything off and the loop IS plain averaging
off = dataclasses.replace(cfg, rounds=5, disable_kd=True, disable_gen=True)
state = orchestrator.build_state(off, master_seed=0)
for t in range(off.rounds):
    orchestrator.run_round(state, t)
ref5 = orchestrator.fedavg_reference(off, master_seed=0)
print(f"\n5 disabled rounds match plain averaging bit for bit: "
      f"{np.array_equal(state.student.flat, ref5.round_models[-1].flat)}")
