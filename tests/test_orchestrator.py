import dataclasses

import numpy as np
import pytest

from kdia import generator, nn, orchestrator, trainer
from kdia.config import ExperimentConfig
from kdia.errors import ConfigError


def tiny_overrides(**kw):
    """The keys of a small, fast experiment, as ``parse_config`` overrides."""
    base = dict(
        n_classes=3,
        samples_per_class=40,
        d_in=4,
        spread=1.0,
        feature_dim=8,
        gen_hidden=8,
        n_clients=6,
        sample_ratio=0.5,
        beta=0.5,
        rounds=3,
        local_epochs=2,
        batch_size=16,
        noise_dim=5,
        gen_epochs=1,
        gen_batches=3,
        gen_batch_size=8,
        seeds=(0,),
    )
    base.update(kw)
    return base


def tiny_cfg(**kw):
    return ExperimentConfig(**tiny_overrides(**kw))


class TestSampleClients:
    def test_full_ratio_selects_everyone(self):
        sel = orchestrator.sample_clients(7, 1.0, round_seed=0)
        assert sel.tolist() == list(range(7))

    def test_count_rounds_half_up(self):
        assert len(orchestrator.sample_clients(100, 0.1, 0)) == 10
        assert len(orchestrator.sample_clients(10, 0.25, 0)) == 3  # 2.5 -> 3
        assert len(orchestrator.sample_clients(100, 0.001, 0)) == 1  # minimum 1

    def test_deterministic_per_seed(self):
        a = orchestrator.sample_clients(50, 0.2, round_seed=9)
        b = orchestrator.sample_clients(50, 0.2, round_seed=9)
        assert np.array_equal(a, b)

    def test_selection_frequency_concentrates(self):
        counts = np.zeros(100)
        rounds = 2000
        for t in range(rounds):
            counts[orchestrator.sample_clients(100, 0.1, (1234, t))] += 1
        freq = counts / rounds
        assert freq.min() >= 0.05 and freq.max() <= 0.15

    def test_bad_ratio_rejected(self):
        with pytest.raises(ConfigError):
            orchestrator.sample_clients(10, 0.0, 0)


class TestRunRound:
    def test_metrics_schema(self):
        cfg = tiny_cfg()
        state = orchestrator.build_state(cfg, master_seed=0)
        rec = orchestrator.run_round(state, 0)
        names = [f.name for f in dataclasses.fields(rec)]
        assert names == [
            "round",
            "student_acc",
            "teacher_acc",
            "loss_ce",
            "loss_kd",
            "loss_gen",
            "var_f_intv",
            "var_f_part",
            "var_f_num",
            "selected",
        ]
        assert 0.0 <= rec.student_acc <= 1.0
        assert 0.0 <= rec.teacher_acc <= 1.0
        assert rec.loss_ce >= 0 and rec.loss_kd >= 0 and rec.loss_gen >= 0
        assert rec.selected == sorted(rec.selected)

    def test_ledger_and_registry_bookkeeping(self):
        cfg = tiny_cfg(rounds=5)
        state = orchestrator.build_state(cfg, master_seed=1)
        snapshots = state.registry.stored.copy()
        total_selected = 0
        for t in range(cfg.rounds):
            rec = orchestrator.run_round(state, t)
            total_selected += len(rec.selected)
            for k in range(cfg.n_clients):
                changed = not np.array_equal(state.registry.stored[k], snapshots[k])
                if k in rec.selected:
                    snapshots[k] = state.registry.stored[k]
                else:
                    assert not changed, f"client {k} snapshot changed while idle"
        assert state.ledger.part_counts.sum() == total_selected
        assert (state.ledger.last_round <= cfg.rounds - 1).all()

    def test_last_round_monotone(self):
        cfg = tiny_cfg(rounds=6)
        state = orchestrator.build_state(cfg, master_seed=2)
        prev = state.ledger.last_round.copy()
        for t in range(cfg.rounds):
            orchestrator.run_round(state, t)
            assert (state.ledger.last_round >= prev).all()
            prev = state.ledger.last_round.copy()

    def test_zero_local_epochs_with_generator_returns_global_model(self):
        # every client holds fewer rows than one batch, so its label pool
        # would be sized by the epoch count
        cfg = tiny_cfg(local_epochs=0, batch_size=64)
        state = orchestrator.build_state(cfg, master_seed=4)
        theta0 = state.student.flat.copy()
        rec = orchestrator.run_round(state, 0)
        for k in rec.selected:
            assert state.registry.stored[k].tobytes() == theta0.tobytes()

    def test_full_participation_num_mode_teacher_equals_student(self):
        cfg = tiny_cfg(sample_ratio=1.0, mode="num", disable_gen=True)
        state = orchestrator.build_state(cfg, master_seed=3)
        for t in range(2):
            rec = orchestrator.run_round(state, t)
            assert nn.params_equal(state.teacher, state.student)
            assert rec.teacher_acc == rec.student_acc


class TestFedAvgDegeneration:
    def test_disabled_run_matches_reference_bitwise(self):
        cfg = tiny_cfg(disable_kd=True, disable_gen=True, rounds=4)
        state = orchestrator.build_state(cfg, master_seed=7)
        ours = []
        for t in range(cfg.rounds):
            orchestrator.run_round(state, t)
            ours.append(state.student.copy())
        ref = orchestrator.fedavg_reference(cfg, master_seed=7)
        for mine, theirs in zip(ours, ref.round_models):
            assert nn.params_equal(mine, theirs)

    def test_enabled_run_differs_from_reference(self):
        cfg = tiny_cfg(rounds=2, kd_weight=0.5, gen_weight=0.5)
        state = orchestrator.build_state(cfg, master_seed=7)
        for t in range(cfg.rounds):
            orchestrator.run_round(state, t)
        ref = orchestrator.fedavg_reference(cfg, master_seed=7, rounds=2)
        assert not nn.params_equal(state.student, ref.round_models[-1])


class TestRunExperiment:
    def test_deterministic_metrics(self):
        cfg = tiny_cfg(rounds=3)
        a = orchestrator.run_experiment(cfg, master_seed=11)
        b = orchestrator.run_experiment(cfg, master_seed=11)
        for ra, rb in zip(a.metrics, b.metrics):
            assert ra == rb
        assert nn.params_equal(a.final_model, b.final_model)

    def test_final_model_by_performance(self):
        cfg = tiny_cfg(rounds=3)
        result = orchestrator.run_experiment(cfg, master_seed=13)
        assert len(result.metrics) == 3
        best_student = max(r.student_acc for r in result.metrics)
        best_teacher = max(r.teacher_acc for r in result.metrics)
        assert result.best_student_acc == best_student
        assert result.best_teacher_acc == best_teacher
        expected = "teacher" if best_teacher >= best_student else "student"
        assert result.final_model_kind == expected

    def test_disabled_teacher_reports_zero(self):
        cfg = tiny_cfg(rounds=2, disable_kd=True, disable_gen=True)
        result = orchestrator.run_experiment(cfg, master_seed=17)
        assert all(r.teacher_acc == 0.0 for r in result.metrics)
        assert all(r.loss_kd == 0.0 and r.loss_gen == 0.0 for r in result.metrics)
        assert result.final_model_kind == "student"


class TestNonFiniteContext:
    def test_nan_student_names_round_client_and_local_update(self):
        cfg = tiny_cfg(rounds=1)
        first = orchestrator.run_round(orchestrator.build_state(cfg, 0), 0).selected[0]
        state = orchestrator.build_state(cfg, 0)
        state.student.flat[0] = np.nan
        with pytest.raises(
            ArithmeticError, match=f"^round 0, client {first}, local update: forward"
        ) as info:
            orchestrator.run_round(state, 0)
        assert isinstance(info.value.__cause__, ArithmeticError)

    def test_nan_snapshot_names_round_client_and_server_generator(self, monkeypatch):
        # no teacher, so the generator is the first to read the snapshots
        cfg = tiny_cfg(rounds=1, disable_kd=True)
        second = orchestrator.run_round(orchestrator.build_state(cfg, 0), 0).selected[1]
        real_update = trainer.local_update

        def update_with_nan_head(*args, **kwargs):
            updates, stats = real_update(*args, **kwargs)
            params = updates[1]
            params.layers[params.split_index][0][0, 0] = np.nan
            return updates, stats

        monkeypatch.setattr(trainer, "local_update", update_with_nan_head)
        with pytest.raises(
            ArithmeticError, match=f"^round 0, client {second}, server generator: forward"
        ) as info:
            orchestrator.run_round(orchestrator.build_state(cfg, 0), 0)
        assert isinstance(info.value.__cause__, ArithmeticError)

    def test_poisoned_registry_row_names_round_client_and_teacher_evaluation(self):
        cfg = tiny_cfg(rounds=2)
        state = orchestrator.build_state(cfg, 0)
        first = orchestrator.run_round(state, 0).selected
        second = orchestrator.run_round(orchestrator.build_state(cfg, 0), 1).selected
        # selected in round 0 but not in round 1, so its round-1 weight is non-zero
        stale = max(set(first) - set(second))
        state.registry.stored[stale, 0] = np.inf
        with np.errstate(invalid="ignore"), pytest.raises(
            ArithmeticError, match=f"^round 1, client {stale}, teacher evaluation: forward"
        ) as info:
            orchestrator.run_round(state, 1)
        assert isinstance(info.value.__cause__, ArithmeticError)

    def test_overflowed_update_names_round_client_and_student_evaluation(self, monkeypatch):
        # no teacher and no generator, so evaluation is the first to read it
        cfg = tiny_cfg(rounds=1, disable_kd=True, disable_gen=True)
        third = orchestrator.run_round(orchestrator.build_state(cfg, 0), 0).selected[2]
        real_update = trainer.local_update

        def update_with_inf(*args, **kwargs):
            updates, stats = real_update(*args, **kwargs)
            updates[2].flat[-1] = np.inf
            return updates, stats

        monkeypatch.setattr(trainer, "local_update", update_with_inf)
        with pytest.raises(
            ArithmeticError, match=f"^round 0, client {third}, student evaluation: forward"
        ) as info:
            orchestrator.run_round(orchestrator.build_state(cfg, 0), 0)
        assert isinstance(info.value.__cause__, ArithmeticError)

    def test_finite_snapshots_name_no_client(self, monkeypatch):
        def diverge(*args, **kwargs):
            raise ArithmeticError("diverged")

        monkeypatch.setattr(generator, "train_generator", diverge)
        with pytest.raises(ArithmeticError, match="^round 0, server generator: diverged$"):
            orchestrator.run_round(orchestrator.build_state(tiny_cfg(rounds=1), 0), 0)
