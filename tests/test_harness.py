import os

import numpy as np
import pytest

from conftest import make_random_model
from kdia import data, generator, harness, nn, orchestrator
from kdia.cli import main as cli_main
from kdia.config import ExperimentConfig, parse_config
from kdia.errors import ConfigError
from test_orchestrator import tiny_cfg


class TestParseConfig:
    def test_empty_config_reference_defaults(self):
        cfg = parse_config()
        assert cfg.n_clients == 100
        assert cfg.sample_ratio == 0.1
        assert cfg.rounds == 200
        assert cfg.temperature == 2.0
        assert cfg.kd_weight == 0.5
        assert cfg.local_epochs == 10
        assert cfg.batch_size == 64
        assert cfg.gen_epochs == 10
        assert cfg.gen_batches == 200
        assert cfg.noise_dim == 100
        assert cfg.learning_rate == 0.01
        assert cfg.momentum == 0.9
        assert cfg.weight_decay == 1e-5

    @pytest.mark.parametrize(
        "beta,expect", [(0.1, 0.01), (0.5, 1.0), (5.0, 0.01), (2.0, 0.01)]
    )
    def test_gen_weight_beta_presets(self, beta, expect):
        cfg = parse_config(overrides={"beta": str(beta)})
        assert cfg.gen_weight == expect

    def test_explicit_gen_weight_wins_over_preset(self):
        cfg = parse_config(overrides={"beta": "0.5", "gen_weight": "0.2"})
        assert cfg.gen_weight == 0.2

    def test_zero_sample_ratio_rejected(self):
        with pytest.raises(ConfigError):
            parse_config(overrides={"sample_ratio": "0"})

    def test_unknown_key_named(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("n_cleints = 10\n")
        with pytest.raises(ConfigError, match="n_cleints"):
            parse_config(path)

    def test_file_parsing_with_comments(self, tmp_path):
        path = tmp_path / "ok.cfg"
        path.write_text(
            "# experiment\nn_clients = 20\nbeta = 0.1\nseeds = 3,4\n\nmode = tri-am\n"
        )
        cfg = parse_config(path)
        assert cfg.n_clients == 20
        assert cfg.beta == 0.1
        assert cfg.seeds == (3, 4)
        assert cfg.mode == "tri-am"

    def test_env_seed_override(self, monkeypatch):
        monkeypatch.setenv("KDIA_SEED", "99")
        cfg = parse_config()
        assert cfg.seeds == (99,)

    def test_bad_value_names_key(self):
        with pytest.raises(ConfigError, match="rounds"):
            parse_config(overrides={"rounds": "many"})


class TestMetricsCsv:
    def make_records(self):
        cfg = tiny_cfg(rounds=3)
        return orchestrator.run_experiment(cfg, master_seed=5).metrics

    def test_header_exact(self, tmp_path):
        path = tmp_path / "m.csv"
        harness.write_metrics(self.make_records(), path)
        first = path.read_text().splitlines()[0]
        assert first == (
            "round,student_acc,teacher_acc,loss_ce,loss_kd,loss_gen,"
            "var_f_intv,var_f_part,var_f_num,selected"
        )

    def test_round_trip(self, tmp_path):
        records = self.make_records()
        path = tmp_path / "m.csv"
        harness.write_metrics(records, path)
        loaded = harness.read_metrics(path)
        assert loaded == harness.quantize(records)

    def test_six_decimal_floats(self, tmp_path):
        records = self.make_records()
        path = tmp_path / "m.csv"
        harness.write_metrics(records, path)
        row = path.read_text().splitlines()[1].split(",")
        for cell in row[1:9]:
            whole, _, frac = cell.partition(".")
            assert len(frac) == 6

    def test_selected_semicolon_joined(self, tmp_path):
        records = self.make_records()
        path = tmp_path / "m.csv"
        harness.write_metrics(records, path)
        row = path.read_text().splitlines()[1].split(",")
        ids = [int(v) for v in row[9].split(";")]
        assert ids == records[0].selected

    def test_write_error_names_path(self):
        with pytest.raises(OSError, match="no/such/dir"):
            harness.write_metrics([], "no/such/dir/m.csv")


class TestSweep:
    def test_sweep_writes_one_file_per_value(self, tmp_path):
        cfg = tiny_cfg(rounds=2, seeds=(0,), disable_gen=True)
        written = harness.sweep(cfg, "C", [0.5, 1.0], tmp_path)
        assert set(written) == {0.5, 1.0}
        for value in written:
            path = written[value][0]
            assert os.path.basename(path) == f"C={value}.csv"
            assert len(harness.read_metrics(path)) == 2

    def test_sweep_shares_seeds_across_values(self, tmp_path):
        cfg = tiny_cfg(rounds=2, seeds=(3,), disable_gen=True, disable_kd=True)
        written = harness.sweep(cfg, "mode", ["num", "tri-gm"], tmp_path)
        a = harness.read_metrics(written["num"][3])
        b = harness.read_metrics(written["tri-gm"][3])
        # same seed, same sampling: per-round selected sets coincide
        assert [r.selected for r in a] == [r.selected for r in b]

    def test_bad_axis_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            harness.sweep(tiny_cfg(), "gamma", [1], tmp_path)


class TestVarianceTrack:
    def test_uniform_vector_zero_variance(self):
        cfg = tiny_cfg(rounds=2, sample_ratio=1.0)
        state = orchestrator.build_state(cfg, master_seed=3)
        records = [orchestrator.run_round(state, t) for t in range(2)]
        np.testing.assert_allclose(
            [r.var_f_intv for r in records], 0.0, atol=1e-30
        )

    def test_volume_variance_constant(self):
        cfg = tiny_cfg(rounds=4)
        state = orchestrator.build_state(cfg, master_seed=4)
        records = [orchestrator.run_round(state, t) for t in range(4)]
        assert len({r.var_f_num for r in records}) == 1

    def test_participation_variance_nonincreasing_after_burn_in(self):
        for seed in range(3):
            rng = np.random.default_rng(seed)
            from kdia import freqs

            ledger = freqs.ClientLedger(np.full(40, 25))
            series = []
            for t in range(120):
                ledger.record_round(rng.choice(40, size=4, replace=False), t)
                series.append(ledger.participation_freqs().var())
            assert series[119] <= series[20]


class TestFeatureSimilarity:
    def test_identical_features_similarity_one(self):
        real = np.abs(np.random.default_rng(0).normal(size=(10, 6))) + 0.1
        assert harness.mean_cosine(real, real.copy()) <= 1.0 + 1e-12
        sims = harness.mean_cosine(real[:1], real[:1])
        assert sims == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_features_similarity_zero(self):
        a = np.zeros((3, 6))
        b = np.zeros((3, 6))
        a[:, 0] = 1.0
        b[:, 1] = 1.0
        assert harness.mean_cosine(a, b) == pytest.approx(0.0, abs=1e-15)

    def test_random_pairs_near_zero(self):
        rng = np.random.default_rng(1)
        real = rng.normal(size=(1000, 64))
        fake = rng.normal(size=(1000, 64))
        assert abs(harness.mean_cosine(real, fake)) < 0.1

    def test_per_class_vector_with_empty_class_marker(self):
        ds = data.make_blobs(4, 10, 5, spread=1.0, seed=2)
        keep = ds.labels != 2
        pruned = data.Dataset(ds.features[keep], ds.labels[keep], 4)
        reference = make_random_model(5, [5, 8, 4], 1)
        rng = np.random.default_rng(6)
        gen = generator.init_generator(7, 4, 8, 12, rng)
        sims = harness.feature_similarity(gen, reference, pruned, seed=0)
        assert np.isnan(sims[2])
        assert np.isfinite(sims[[0, 1, 3]]).all()


class TestCli:
    def test_run_writes_metrics_and_checkpoints(self, tmp_path, capsys):
        rc = cli_main(
            [
                "run",
                "--out-dir",
                str(tmp_path),
                "--n-classes", "3",
                "--samples-per-class", "40",
                "--d-in", "4",
                "--feature-dim", "8",
                "--gen-hidden", "8",
                "--noise-dim", "5",
                "--gen-epochs", "1",
                "--gen-batches", "2",
                "--gen-batch-size", "8",
                "--n-clients", "4",
                "--sample-ratio", "0.5",
                "--rounds", "2",
                "--local-epochs", "1",
                "--batch-size", "16",
                "--seeds", "0",
                "--checkpoint-interval", "1",
            ]
        )
        assert rc == 0
        assert (tmp_path / "run-seed0.csv").exists()
        ckpts = os.listdir(tmp_path / "checkpoints-seed0")
        assert "student-0001.ckpt" in ckpts and "teacher-0001.ckpt" in ckpts
        loaded = nn.load_checkpoint(tmp_path / "checkpoints-seed0" / "student-0001.ckpt")
        assert loaded.split_index == 1

    def test_flag_switches_off_config_file_boolean(self, tmp_path):
        cfg = tmp_path / "tiny.cfg"
        cfg.write_text(
            "disable_gen = true\n"
            "n_classes = 3\nsamples_per_class = 40\nd_in = 4\nfeature_dim = 8\n"
            "gen_hidden = 8\nnoise_dim = 5\ngen_epochs = 1\ngen_batches = 2\n"
            "gen_batch_size = 8\nn_clients = 4\nsample_ratio = 0.5\nrounds = 1\n"
            "local_epochs = 1\nbatch_size = 16\nseeds = 0\n"
        )
        # a generator checkpoint is written exactly when disable_gen is False
        for flags, gen_on in (([], False), (["--no-disable-gen"], True)):
            out = tmp_path / ("on" if gen_on else "off")
            rc = cli_main(
                ["run", "--config", str(cfg), "--out-dir", str(out),
                 "--checkpoint-interval", "1", *flags]
            )
            assert rc == 0
            ckpts = os.listdir(out / "checkpoints-seed0")
            assert ("generator-0000.ckpt" in ckpts) == gen_on

    def test_fedavg_ref_verb(self, tmp_path):
        rc = cli_main(
            [
                "fedavg-ref",
                "--out-dir", str(tmp_path),
                "--n-classes", "3",
                "--samples-per-class", "30",
                "--d-in", "4",
                "--feature-dim", "8",
                "--n-clients", "4",
                "--sample-ratio", "0.5",
                "--rounds", "2",
                "--local-epochs", "1",
                "--seeds", "1",
            ]
        )
        assert rc == 0
        records = harness.read_metrics(tmp_path / "fedavg-seed1.csv")
        assert len(records) == 2
        assert all(r.teacher_acc == 0.0 for r in records)

    def test_gradcheck_verb_passes(self, capsys):
        rc = cli_main(["gradcheck", "--instances", "3", "--seed", "1"])
        out = capsys.readouterr().out
        assert rc == 0
        assert out.count("PASS") == 5

    def test_unknown_config_key_is_config_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("nope = 1\n")
        rc = cli_main(["run", "--config", str(bad)])
        assert rc == 2
        assert "nope" in capsys.readouterr().err

    def test_similarity_verb(self, tmp_path, capsys):
        out_csv = tmp_path / "sims.csv"
        rc = cli_main(
            [
                "similarity",
                "--out", str(out_csv),
                "--reference-epochs", "5",
                "--n-classes", "3",
                "--samples-per-class", "40",
                "--d-in", "4",
                "--feature-dim", "8",
                "--gen-hidden", "8",
                "--noise-dim", "5",
                "--gen-epochs", "1",
                "--gen-batches", "4",
                "--gen-batch-size", "8",
                "--n-clients", "4",
                "--sample-ratio", "0.5",
                "--rounds", "2",
                "--local-epochs", "1",
                "--seeds", "0",
            ]
        )
        assert rc == 0
        lines = out_csv.read_text().splitlines()
        assert lines[0] == "class,mean_cosine"
        assert len(lines) == 4
        out = capsys.readouterr().out
        assert "centralized reference accuracy" in out

    def test_sweep_verb(self, tmp_path):
        rc = cli_main(
            [
                "sweep",
                "--axis", "C",
                "--values", "0.5,1.0",
                "--out-dir", str(tmp_path),
                "--n-classes", "3",
                "--samples-per-class", "30",
                "--d-in", "4",
                "--feature-dim", "8",
                "--gen-hidden", "8",
                "--noise-dim", "5",
                "--gen-epochs", "1",
                "--gen-batches", "2",
                "--gen-batch-size", "8",
                "--n-clients", "4",
                "--rounds", "1",
                "--local-epochs", "1",
                "--seeds", "0",
            ]
        )
        assert rc == 0
        assert (tmp_path / "C=0.5.csv").exists()
        assert (tmp_path / "C=1.0.csv").exists()
