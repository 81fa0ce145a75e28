"""The triple-frequency teacher weights and how they evolve.

Simulates 200 rounds of uniform client sampling and tracks the three
per-client frequencies: the participation-interval frequency concentrates on
recent participants, the participation-count frequency flattens toward
uniform, and the data-volume frequency never moves. Their normalized
geometric mean is the teacher aggregation weight; clients that never
participated get exactly zero. ``round_weights`` reads the round and its
clients from what the ledger last recorded.
"""

import numpy as np

from kdia import freqs

rng = np.random.default_rng(3)
n_clients, k = 30, 3
sizes = rng.integers(20, 400, size=n_clients)
ledger = freqs.ClientLedger(sizes)

print(f"{n_clients} clients, {k} sampled per round, data sizes "
      f"{sizes.min()}..{sizes.max()}\n")
print("round   var(interval)  var(participation)  var(volume)")
for t in range(200):
    ledger.record_round(rng.choice(n_clients, size=k, replace=False), t)
    if t + 1 in (1, 5, 10, 50, 100, 200):
        w = freqs.round_weights(ledger)
        print(f"{t + 1:5d}   {w.interval.var():.6f}       "
              f"{w.participation.var():.6f}            {w.volume.var():.6f}")

w = freqs.round_weights(ledger)
print("\nfinal-round teacher weights, largest first:")
order = np.argsort(w.teacher)[::-1]
for k_id in order[:6]:
    mark = "<- selected this round" if k_id in ledger.selected else ""
    print(f"  client {k_id:2d}: {w.teacher[k_id]:.4f} "
          f"(last seen round {ledger.last_round[k_id]}, "
          f"{ledger.part_counts[k_id]} participations) {mark}")

# every combination mode on the same ledger state
print("\nsame state under each weighting mode (top weight / spread):")
for mode in freqs.WEIGHT_MODES:
    wm = freqs.round_weights(ledger, mode=mode)
    print(f"  {mode:7s} max={wm.teacher.max():.4f} var={wm.teacher.var():.6f}")

# a client that sits out for long decays smoothly but never to zero
idle = freqs.ClientLedger([100] * 5)
idle.record_round([0, 1, 2, 3, 4], 0)
for t in range(1, 31):
    idle.record_round([t % 4], t)  # client 4 never selected again
f = freqs.round_weights(idle).interval
print(f"\nafter 30 idle rounds client 4 keeps interval frequency {f[4]:.3e} > 0")
