import dataclasses
import os
import re
from pathlib import Path

import numpy as np
import pytest

from conftest import make_random_model
from kdia import data, generator, harness, nn, orchestrator
from kdia.cli import main as cli_main
from kdia.config import ExperimentConfig, parse_config
from kdia.errors import ConfigError
from test_orchestrator import tiny_cfg

README = Path(__file__).resolve().parent.parent / "README.md"


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
            "# experiment\nn_clients = 20\nbeta = 0.1  # severe\nseeds = 3,4\n\n"
            "mode = tri-am#x\ndisable_gen = yes  # = no\n"
        )
        cfg = parse_config(path)
        assert cfg.n_clients == 20
        assert cfg.beta == 0.1
        assert cfg.seeds == (3, 4)
        assert cfg.mode == "tri-am"
        assert cfg.disable_gen is True

    def test_env_seed_override(self, monkeypatch):
        monkeypatch.setenv("KDIA_SEED", "99")
        cfg = parse_config()
        assert cfg.seeds == (99,)

    def test_bad_value_names_key(self):
        with pytest.raises(ConfigError, match="rounds"):
            parse_config(overrides={"rounds": "many"})

    def test_readme_config_example_parses(self, tmp_path):
        block = re.search(r"```ini\n(.*?)```", README.read_text(), re.S).group(1)
        path = tmp_path / "experiment.cfg"
        path.write_text(block)
        cfg = parse_config(path)
        assert (cfg.n_clients, cfg.rounds, cfg.mode, cfg.seeds) == (100, 200, "tri-gm", (0, 1, 2))

    @pytest.mark.parametrize(
        "key,value",
        [("rounds", 5.0), ("seeds", (1.5,)), ("beta", True), ("disable_gen", 1),
         ("seeds", [0]), ("mode", 3), ("rounds", True), ("disable_gen", "maybe")],
    )
    def test_value_of_wrong_type_names_key(self, key, value):
        with pytest.raises(ConfigError, match=f"^{key} must be"):
            ExperimentConfig(**{key: value})

    @pytest.mark.parametrize(
        "key,value,expect",
        [("disable_gen", "no", False), ("disable_gen", " On ", True), ("rounds", "5", 5),
         ("beta", "0.1", 0.1), ("seeds", "4, 5,", (4, 5)), ("mode", " num ", "num"),
         ("beta", 1, 1), ("sample_ratio", 0.25, 0.25)],
    )
    def test_text_parsed_and_typed_values_kept(self, key, value, expect):
        got = getattr(ExperimentConfig(**{key: value}), key)
        assert got == expect and type(got) is type(expect)

    @pytest.mark.parametrize(
        "key,value",
        [
            ("n_classes", "0"), ("samples_per_class", "0"), ("d_in", "0"),
            ("spread", "0"), ("separation", "-1"), ("feature_dim", "0"),
            ("gen_hidden", "0"), ("part_floor", "-0.1"), ("local_epochs", "-1"),
            ("batch_size", "0"), ("learning_rate", "0"), ("momentum", "1"),
            ("weight_decay", "-1e-5"), ("kd_weight", "-0.5"), ("gen_weight", "nan"),
            ("temperature", "0"), ("temperature", "nan"), ("gen_epochs", "0"),
            ("gen_batches", "0"), ("gen_batch_size", "0"), ("noise_dim", "0"),
            ("diversity_weight", "-1"), ("diversity_epsilon", "0"),
            ("gen_learning_rate", "0"), ("gen_weight_decay", "-1e-5"),
        ],
    )
    def test_out_of_range_value_names_key(self, key, value):
        with pytest.raises(ConfigError, match=f"^{key} must be"):
            parse_config(overrides={key: value})


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
        # every float field reads back rounded to the file's 6 decimals
        assert loaded == [
            orchestrator.RoundMetrics(**{
                k: round(v, 6) if isinstance(v, float) else v
                for k, v in dataclasses.asdict(r).items()
            })
            for r in records
        ]

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

    @pytest.mark.parametrize(
        "row", ["0,0.5,0.5,0,0,0,0,0,0", "0,0.5,0.5,0,0,0,0,0,0,1,2", "0,x,0.5,0,0,0,0,0,0,1"]
    )
    def test_malformed_row_names_file_and_line(self, tmp_path, row):
        path = tmp_path / "m.csv"
        path.write_text(f"{harness.METRICS_HEADER}\n0,0.5,0.5,0,0,0,0,0,0,1;2\n{row}\n")
        with pytest.raises(ConfigError, match=r"m\.csv:3: malformed"):
            harness.read_metrics(path)


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

    def test_text_values_name_files_by_typed_value(self, tmp_path):
        cfg = tiny_cfg(rounds=1, seeds=(0,), disable_gen=True)
        written = harness.sweep(cfg, "C", ["0.50", " 1"], tmp_path)
        assert {v: os.path.basename(p[0]) for v, p in written.items()} == {
            0.5: "C=0.5.csv", 1.0: "C=1.0.csv"
        }


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


class TestCentralizedReference:
    @staticmethod
    def textbook_train(ds, cfg, seed, epochs):
        # plain minibatch SGD over a fresh permutation of every row per epoch
        rng = np.random.default_rng(seed)
        model = nn.he_uniform_init([cfg.d_in, cfg.feature_dim, cfg.n_classes], 1, rng)
        state = nn.sgd_state(model, cfg.learning_rate, cfg.momentum, cfg.weight_decay)
        for _ in range(epochs):
            order = rng.permutation(len(ds))
            for lo in range(0, len(ds), cfg.batch_size):
                ix = order[lo : lo + cfg.batch_size]
                x, y = ds.features[ix], ds.labels[ix]
                _, grad = nn.softmax_ce_loss(nn.forward(model, x), y)
                nn.optimizer_step(model, nn.backward(model, x, grad), state)
        return model

    @pytest.mark.parametrize("epochs", [0, 1, 3])
    def test_matches_textbook_sgd_bitwise(self, epochs):
        cfg = tiny_cfg(batch_size=7)
        ds = data.make_blobs(cfg.n_classes, 20, cfg.d_in, spread=1.0, seed=1)
        got = harness.train_centralized_reference(ds, cfg, seed=4, epochs=epochs)
        want = self.textbook_train(ds, cfg, 4, epochs)
        assert got.flat.tobytes() == want.flat.tobytes()


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

    @pytest.mark.parametrize(
        "flag",
        ["--temperature", "--batch-size", "--gen-epochs", "--diversity-epsilon", "--feature-dim"],
    )
    def test_out_of_range_flag_exits_2_naming_key(self, tmp_path, capsys, flag):
        rc = cli_main(
            ["run", "--out-dir", str(tmp_path), "--rounds", "1", "--seeds", "0", flag, "0"]
        )
        assert rc == 2
        assert flag[2:].replace("-", "_") in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv,named",
        [
            (["run", "--config", "{tmp}/missing.cfg"], "missing.cfg"),
            (["run", "--config", "{tmp}/junk.ckpt"], "junk.ckpt"),
            (["similarity", "--gen-checkpoint", "{tmp}/junk.ckpt", "--reference-epochs", "0",
              "--samples-per-class", "20", "--n-clients", "4", "--seeds", "0"], "junk.ckpt"),
            (["sweep", "--axis", "C", "--values", "x", "--out-dir", "{tmp}"], "sample_ratio"),
            (["sweep", "--axis", "N", "--values", "2.5", "--out-dir", "{tmp}"], "n_clients"),
            (["similarity", "--gen-checkpoint", "{tmp}/nope.ckpt"], "nope.ckpt"),
            (["similarity", "--gen-checkpoint", "{tmp}/gen16.ckpt"], "gen16.ckpt"),
            (["similarity", "--gen-checkpoint", "{tmp}/student.ckpt"], "student.ckpt"),
            (["similarity", "--reference-epochs", "-1"], "--reference-epochs"),
            (["gradcheck", "--instances", "0"], "--instances"),
        ],
    )
    def test_bad_input_exits_2_with_one_line(self, tmp_path, capsys, argv, named):
        (tmp_path / "junk.ckpt").write_bytes(b"\xffnot a checkpoint")
        # a generator from a feature_dim=16 run, and a student, under the default config
        cfg, rng = ExperimentConfig(), np.random.default_rng(0)
        gen16 = generator.init_generator(cfg.noise_dim, cfg.n_classes, 16, cfg.gen_hidden, rng)
        nn.save_checkpoint(gen16, tmp_path / "gen16.ckpt")
        student = nn.he_uniform_init([cfg.d_in, cfg.feature_dim, cfg.n_classes], 1, rng)
        nn.save_checkpoint(student, tmp_path / "student.ckpt")
        rc = cli_main([a.format(tmp=tmp_path) for a in argv])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.count("\n") == 1 and named in err

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
