"""Command-line behavior: flags, outputs, determinism, exit codes."""

import argparse
import hashlib
import json
import os
from dataclasses import fields

import numpy as np
import pytest

from dasr.cli import _merged_config, build_parser, main
from dasr.imaging import (DegradationSpec, Image, load_image, save_image,
                          sobel_map)
from dasr.pipeline import TrainConfig
from dasr.synth import SyntheticSceneSpec


def run(args):
    return main(args)


def tree_hash(root):
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in sorted(os.walk(root)):
        dirnames.sort()
        for name in sorted(filenames):
            h.update(name.encode())
            h.update(open(os.path.join(dirpath, name), "rb").read())
    return h.hexdigest()


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli_data")
    assert run(["synth", "--count", "4", "--size", "48", "--seed", "7",
                "--out", str(out)]) == 0
    return str(out)


@pytest.fixture(scope="module")
def trained_ckpt(dataset_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("cli_ckpt")
    ckpt = str(out / "s1.dasr")
    assert run(["train", "--stage", "1", "--data", dataset_dir,
                "--steps", "3", "--lr", "1e-3", "--lr-crop", "12",
                "--batch", "2", "--ckpt-out", ckpt]) == 0
    return ckpt


def test_log_level_env_mapping():
    import logging
    from dasr.cli import log_level_from_env
    assert log_level_from_env("quiet") == logging.ERROR
    assert log_level_from_env("info") == logging.INFO
    assert log_level_from_env("debug") == logging.DEBUG
    assert log_level_from_env(None) == logging.INFO
    assert log_level_from_env("bogus") == logging.INFO


class TestHelpAndUsage:
    @pytest.mark.parametrize("cmd", ["synth", "degrade", "train", "eval",
                                     "metrics", "sobel", "residual"])
    def test_help_exits_zero(self, cmd, capsys):
        with pytest.raises(SystemExit) as e:
            build_parser().parse_args([cmd, "--help"])
        assert e.value.code == 0
        assert "--" in capsys.readouterr().out

    def test_missing_required_flag_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as e:
            build_parser().parse_args(["synth", "--count", "1"])
        assert e.value.code == 2

    def test_unknown_flag_is_usage_error(self):
        with pytest.raises(SystemExit) as e:
            build_parser().parse_args(["synth", "--out", "x", "--banana", "1"])
        assert e.value.code == 2

    def test_train_help_lists_paper_defaults(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["train", "--help"])
        text = capsys.readouterr().out
        cfg = TrainConfig()
        assert f"default: {cfg.lr}" in text          # 1e-05
        assert f"default: {cfg.lr_crop}" in text     # 64
        assert f"default: {cfg.alpha}" in text       # 0.1
        assert f"default: {cfg.beta}" in text        # 1.0
        assert f"default: {cfg.prior_depth}" in text  # middle
        assert (cfg.lr, cfg.lr_crop, cfg.alpha, cfg.beta,
                cfg.prior_depth) == (1e-5, 64, 0.1, 1.0, "middle")
        # every subcommand built from a settings class keeps exactly its
        # flags, and each generated flag's help shows its field's default
        parser = build_parser()
        commands = next(a for a in parser._actions
                        if isinstance(a, argparse._SubParsersAction)).choices
        for cmd, spec_cls in (("synth", SyntheticSceneSpec),
                              ("degrade", DegradationSpec),
                              ("train", TrainConfig)):
            actions = commands[cmd]._actions
            assert {s for a in actions
                    for s in a.option_strings} == SUBCOMMAND_OPTIONS[cmd]
            helps = {a.dest: a.help for a in actions}
            for f in fields(spec_cls):
                if f.metadata.get("help") and f.default is not None:
                    shown = (("on" if f.default else "off")
                             if f.type == "bool" else f.default)
                    assert helps[f.name].endswith(f"(default: {shown})")


# the option strings of each subcommand whose flags come from a settings
# class; a new field with help text would add one
SUBCOMMAND_OPTIONS = {
    "synth": {"-h", "--help", "--count", "--size", "--seed", "--out"},
    "degrade": {"-h", "--help", "--in", "--out", "--scale", "--blur-sigma",
                "--noise-sigma", "--seed"},
    "train": {"-h", "--help", "--stage", "--data", "--config", "--ckpt-in",
              "--ckpt-out", "--log", "--steps", "--scale", "--lr", "--beta1",
              "--beta2", "--eps", "--batch", "--lr-crop", "--alpha", "--beta",
              "--prior-depth", "--trans-mode", "--noise-sigma", "--adv",
              "--seed", "--preset", "--prior-blocks", "--grad-clip",
              "--ir-replay", "--init-trans-from-spre", "--feature-weights"},
}

# a non-default command-line value for every flagged TrainConfig field, and
# the value it must set
FLAG_VALUES = {
    "scale": ("4", 4),
    "lr": ("0.003", 0.003),
    "beta1": ("0.8", 0.8),
    "beta2": ("0.99", 0.99),
    "eps": ("1e-07", 1e-7),
    "batch": ("3", 3),
    "lr_crop": ("10", 10),
    "alpha": ("0.25", 0.25),
    "beta": ("0.5", 0.5),
    "prior_depth": ("deep", "deep"),
    "trans_mode": ("raw-sobel", "raw-sobel"),
    "noise_sigma": ("0.2", 0.2),
    "adv_enabled": ("off", False),
    "seed": ("9", 9),
    "preset": ("paper-scale", "paper-scale"),
    "prior_blocks": ("3", 3),
    "grad_clip": ("0.5", 0.5),
    "ir_replay": ("off", False),
    "init_trans_from_spre": ("on", True),
    "feature_weights": ("0.2,0.3,0.5", [0.2, 0.3, 0.5]),
}
FLAG_NAMES = {"adv_enabled": "--adv"}
TRAIN_ARGS = ["train", "--stage", "1", "--data", "d", "--ckpt-out", "o"]


def merged(argv):
    return _merged_config(build_parser().parse_args(argv))


class TestTrainFlags:
    @pytest.mark.parametrize("name", [f.name for f in fields(TrainConfig)
                                      if not f.name.startswith("steps_")])
    def test_flag_sets_its_field(self, name):
        assert name in FLAG_VALUES, f"no test value for field {name}"
        text, want = FLAG_VALUES[name]
        default = TrainConfig().to_dict()
        assert want != default[name]
        flag = FLAG_NAMES.get(name, "--" + name.replace("_", "-"))
        got = merged(TRAIN_ARGS + [flag, text]).to_dict()
        assert got[name] == want
        del got[name], default[name]
        assert got == default

    @pytest.mark.parametrize("stage", [1, 2])
    def test_steps_sets_the_stage_step_count(self, stage):
        argv = ["train", "--stage", str(stage), "--data", "d",
                "--ckpt-out", "o", "--steps", "7"]
        got = merged(argv)
        other = 2 if stage == 1 else 1
        assert getattr(got, f"steps_stage{stage}") == 7
        assert (getattr(got, f"steps_stage{other}")
                == getattr(TrainConfig(), f"steps_stage{other}"))


class TestSynth:
    def test_writes_pairs_and_manifest(self, dataset_dir):
        assert len(os.listdir(os.path.join(dataset_dir, "ir"))) == 4
        assert len(os.listdir(os.path.join(dataset_dir, "vis"))) == 4
        doc = json.load(open(os.path.join(dataset_dir, "manifest.json")))
        assert len(doc["entries"]) == 4
        assert set(doc["degradation"]) == {"blur_sigma", "noise_sigma",
                                           "seed"}

    def test_rerun_identical_hashes(self, tmp_path):
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        run(["synth", "--count", "2", "--size", "32", "--seed", "3",
             "--out", a])
        run(["synth", "--count", "2", "--size", "32", "--seed", "3",
             "--out", b])
        assert tree_hash(a) == tree_hash(b)


class TestDegrade:
    def test_scale_halves_extents(self, dataset_dir, tmp_path):
        out = str(tmp_path / "lr")
        assert run(["degrade", "--in", os.path.join(dataset_dir, "ir"),
                    "--out", out, "--scale", "2"]) == 0
        img = load_image(os.path.join(out, "0000.png"))
        assert (img.height, img.width) == (24, 24)

    def test_blur_sigma_ladder_reduces_sobel_energy(self, dataset_dir,
                                                    tmp_path):
        means = []
        for sigma in ("1", "3", "5"):
            out = str(tmp_path / f"lr{sigma}")
            run(["degrade", "--in", os.path.join(dataset_dir, "vis"),
                 "--out", out, "--scale", "2", "--blur-sigma", sigma])
            vals = [sobel_map(load_image(os.path.join(out, n))).mean()
                    for n in sorted(os.listdir(out))]
            means.append(float(np.mean(vals)))
        assert means[0] > means[1] > means[2]

    def test_odd_extent_matches_imaging_degrade(self, tmp_path):
        from dasr.imaging import degrade, quantize8
        rng = np.random.default_rng(8)
        src = tmp_path / "in"
        src.mkdir()
        names = ("a.png", "b.png")
        for name in names:
            save_image(Image(rng.random((49, 51, 1))), str(src / name))
        out = str(tmp_path / "lr")
        assert run(["degrade", "--in", str(src), "--out", out, "--scale",
                    "2", "--blur-sigma", "1.2", "--noise-sigma", "0.05",
                    "--seed", "4"]) == 0
        spec = DegradationSpec(scale=2, blur_sigma=1.2, noise_sigma=0.05,
                               seed=4)
        for i, name in enumerate(names):
            hr = Image(load_image(str(src / name)).array[:48, :50])
            want = degrade(hr, spec, spec.seed + i)
            got = load_image(os.path.join(out, name))
            assert (got.height, got.width) == (24, 25)
            assert np.array_equal(quantize8(got), quantize8(want))

    @pytest.mark.parametrize("flag, value, field", [
        ("--noise-sigma", "nan", "noise_sigma"),
        ("--blur-sigma", "inf", "blur_sigma"),
    ])
    def test_non_finite_sigma_refused(self, dataset_dir, tmp_path, capsys,
                                      flag, value, field):
        out = tmp_path / "lr"
        assert run(["degrade", "--in", os.path.join(dataset_dir, "ir"),
                    "--out", str(out), flag, value]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {field} must be finite, got {value}\n"
        assert not out.exists()

    @pytest.mark.parametrize("make, msg", [
        (lambda: DegradationSpec(scale=4.0), "scale must be int, got float"),
        (lambda: SyntheticSceneSpec(count=True),
         "count must be int, got bool"),
    ], ids=["degradation-scale-float", "scene-count-bool"])
    def test_spec_value_of_wrong_type_raises(self, make, msg):
        with pytest.raises(ValueError, match=msg):
            make()

    def test_zero_sigmas_is_pure_bicubic(self, dataset_dir, tmp_path):
        from dasr.imaging import bicubic_resize
        out = str(tmp_path / "pure")
        run(["degrade", "--in", os.path.join(dataset_dir, "ir"),
             "--out", out, "--scale", "2"])
        src = load_image(os.path.join(dataset_dir, "ir", "0000.png"))
        want = bicubic_resize(src, 24, 24)
        got = load_image(os.path.join(out, "0000.png"))
        assert np.abs(got.array - want.array).max() <= 1 / 255.0 + 1e-9


class TestTrain:
    def test_zero_steps_checkpoint_equals_init(self, dataset_dir, tmp_path):
        from dasr.checkpoint import load_checkpoint
        from dasr.pipeline import build_generator
        ckpt = str(tmp_path / "z.dasr")
        assert run(["train", "--stage", "1", "--data", dataset_dir,
                    "--steps", "0", "--ckpt-out", ckpt]) == 0
        ck = load_checkpoint(ckpt)
        gen = build_generator(TrainConfig.from_dict(ck.config))
        for name, data in gen.named_tensors():
            assert np.array_equal(ck.tensors[f"gen.{name}"], data)

    def test_identical_invocations_identical_hash(self, dataset_dir,
                                                  tmp_path, capsys):
        args = ["train", "--stage", "1", "--data", dataset_dir, "--steps",
                "2", "--lr-crop", "12", "--batch", "1", "--seed", "9"]
        run(args + ["--ckpt-out", str(tmp_path / "a.dasr")])
        first = [l for l in capsys.readouterr().out.splitlines()
                 if "sha256" in l][0].split()[2]
        run(args + ["--ckpt-out", str(tmp_path / "b.dasr")])
        second = [l for l in capsys.readouterr().out.splitlines()
                  if "sha256" in l][0].split()[2]
        assert first == second

    def test_stage2_without_ckpt_in_fails(self, dataset_dir, tmp_path,
                                          capsys):
        code = run(["train", "--stage", "2", "--data", dataset_dir,
                    "--steps", "1", "--ckpt-out", str(tmp_path / "x.dasr")])
        assert code == 1
        assert "ckpt-in" in capsys.readouterr().err

    def test_config_file_and_flag_precedence(self, dataset_dir, tmp_path):
        from dasr.checkpoint import load_checkpoint
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"lr_crop": 10, "batch": 1,
                                        "seed": 4}))
        ckpt = str(tmp_path / "c.dasr")
        run(["train", "--stage", "1", "--data", dataset_dir, "--steps", "0",
             "--config", str(cfg_file), "--batch", "2",
             "--ckpt-out", ckpt])
        doc = load_checkpoint(ckpt).config
        assert doc["lr_crop"] == 10   # from file
        assert doc["batch"] == 2      # flag overrides file
        assert doc["lr"] == 1e-5      # built-in default

    def test_optimizer_and_feature_weight_flags(self, dataset_dir, tmp_path):
        from dasr.checkpoint import load_checkpoint
        ckpt = str(tmp_path / "opt.dasr")
        run(["train", "--stage", "1", "--data", dataset_dir, "--steps", "0",
             "--beta1", "0.8", "--beta2", "0.99", "--eps", "1e-7",
             "--feature-weights", "0.2,0.3,0.5", "--ckpt-out", ckpt])
        doc = load_checkpoint(ckpt).config
        assert (doc["beta1"], doc["beta2"], doc["eps"]) == (0.8, 0.99, 1e-7)
        assert doc["feature_weights"] == [0.2, 0.3, 0.5]

    def test_unknown_config_file_key_fails(self, dataset_dir, tmp_path,
                                           capsys):
        cfg_file = tmp_path / "bad.json"
        cfg_file.write_text(json.dumps({"warp": 9}))
        code = run(["train", "--stage", "1", "--data", dataset_dir,
                    "--config", str(cfg_file), "--steps", "0",
                    "--ckpt-out", str(tmp_path / "x.dasr")])
        assert code == 1
        assert "warp" in capsys.readouterr().err

    def test_config_file_value_of_wrong_type_fails(self, dataset_dir,
                                                   tmp_path, capsys):
        cfg_file = tmp_path / "str.json"
        cfg_file.write_text(json.dumps({"batch": "2"}))
        code = run(["train", "--stage", "1", "--data", dataset_dir,
                    "--config", str(cfg_file), "--steps", "0",
                    "--ckpt-out", str(tmp_path / "x.dasr")])
        assert code == 1
        assert "batch must be int, got str" in capsys.readouterr().err

    @pytest.mark.parametrize("text,reason", [
        ('{"lr": ', "Expecting value"),
        ("[1, 2]", "must be a JSON object, got list"),
    ])
    def test_malformed_config_file_names_its_path(self, dataset_dir,
                                                  tmp_path, capsys, text,
                                                  reason):
        cfg_file = tmp_path / "bad.json"
        cfg_file.write_text(text)
        code = run(["train", "--stage", "1", "--data", dataset_dir,
                    "--config", str(cfg_file), "--steps", "0",
                    "--ckpt-out", str(tmp_path / "x.dasr")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {cfg_file}")
        assert reason in err

    def test_non_finite_gradient_stops_the_run(self, dataset_dir, tmp_path,
                                               capsys, monkeypatch):
        from dasr import pipeline, tensor as T
        real_mae = pipeline.losses.l_mae
        calls = []

        def mae_nan_from_step_2(pred, target):
            calls.append(None)
            loss = real_mae(pred, target)
            return T.scale(loss, float("nan")) if len(calls) > 2 else loss

        monkeypatch.setattr(pipeline.losses, "l_mae", mae_nan_from_step_2)
        ckpt = tmp_path / "nan.dasr"
        code = run(["train", "--stage", "1", "--data", dataset_dir,
                    "--steps", "4", "--lr-crop", "12", "--batch", "1",
                    "--adv", "off", "--ckpt-out", str(ckpt)])
        assert code == 1
        err = capsys.readouterr().err
        assert "step 2" in err
        assert "conv_first.bias" in err  # first trainable name, sorted
        assert not ckpt.exists()

    @pytest.mark.parametrize("flag, value, field", [
        ("--batch", "100000000000", "batch"),
        ("--lr-crop", "100000", "lr_crop"),
        ("--lr", "inf", "lr"),
    ])
    def test_value_out_of_range_refused_before_the_run(
            self, dataset_dir, tmp_path, capsys, flag, value, field):
        ckpt = tmp_path / "x.dasr"
        code = run(["train", "--stage", "1", "--data", dataset_dir,
                    "--steps", "1", flag, value, "--ckpt-out", str(ckpt)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {field} must be ")
        assert not ckpt.exists()

    def test_config_file_int_for_float_field_accepted(self, dataset_dir,
                                                      tmp_path):
        from dasr.checkpoint import load_checkpoint
        cfg_file = tmp_path / "int.json"
        cfg_file.write_text(json.dumps({"lr": 1}))
        ckpt = str(tmp_path / "i.dasr")
        assert run(["train", "--stage", "1", "--data", dataset_dir,
                    "--config", str(cfg_file), "--steps", "0",
                    "--ckpt-out", ckpt]) == 0
        assert load_checkpoint(ckpt).config["lr"] == 1


class TestEval:
    def test_markdown_table_column_order(self, dataset_dir, trained_ckpt,
                                         capsys):
        assert run(["eval", "--ckpt", trained_ckpt, "--data", dataset_dir,
                    "--table", "md"]) == 0
        out = capsys.readouterr().out
        header = out.splitlines()[0]
        assert header.index("PSNR↑") < header.index("MSE↓") \
            < header.index("SSIM↑")
        assert "bicubic" in out

    def test_self_check_gives_perfect_metrics(self, dataset_dir, capsys):
        assert run(["eval", "--data", dataset_dir, "--self-check"]) == 0
        out = capsys.readouterr().out
        row = out.strip().splitlines()[1]
        cols = row.split(",")
        assert cols[2] == "inf"
        assert float(cols[3]) == 0.0
        assert float(cols[4]) == 1.0

    def test_missing_checkpoint_mentions_path(self, dataset_dir, capsys):
        code = run(["eval", "--ckpt", "/nowhere/x.dasr", "--data",
                    dataset_dir])
        assert code == 1
        assert "/nowhere/x.dasr" in capsys.readouterr().err


class TestMetricsCmd:
    def test_identical_dirs(self, dataset_dir, capsys):
        ir = os.path.join(dataset_dir, "ir")
        assert run(["metrics", "--hr", ir, "--sr", ir]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "name,psnr,mse,ssim"
        assert lines[1].split(",")[1] == "inf"
        assert lines[-1].startswith("mean,")
        assert lines[-1].endswith(",0.0000,1.0000")

    def test_single_pair_mean_equals_pair(self, tmp_path, capsys):
        rng = np.random.default_rng(5)
        hr_d, sr_d = tmp_path / "hr", tmp_path / "sr"
        hr_d.mkdir(), sr_d.mkdir()
        save_image(Image(rng.random((16, 16, 1))), str(hr_d / "x.png"))
        save_image(Image(rng.random((16, 16, 1))), str(sr_d / "x.png"))
        run(["metrics", "--hr", str(hr_d), "--sr", str(sr_d)])
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[1].split(",")[1:] == lines[2].split(",")[1:]

    def test_mean_row_equals_evaluate_set(self, dataset_dir, tmp_path,
                                          capsys):
        from dasr.imaging import gaussian_blur
        from dasr.metrics import evaluate_set
        ir = os.path.join(dataset_dir, "ir")
        names = sorted(os.listdir(ir))
        sr_d = tmp_path / "sr"
        sr_d.mkdir()
        pairs = []
        for i, name in enumerate(names):
            hr = load_image(os.path.join(ir, name))
            # every other pair identical (infinite PSNR), the rest blurred
            sr = hr if i % 2 else gaussian_blur(hr, 1.0 + i)
            save_image(sr, str(sr_d / name))
            pairs.append((hr, load_image(str(sr_d / name))))
        assert run(["metrics", "--hr", ir, "--sr", str(sr_d)]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        row = evaluate_set(pairs, "mix", 2)
        assert row.psnr_inf_count == len(names) // 2
        assert lines[-1] == (f"mean,{row.psnr:.4f},{row.mse:.4f},"
                             f"{row.ssim:.4f}")

    @pytest.mark.parametrize("cmd", ["metrics", "residual"])
    def test_unmatched_names_listed(self, tmp_path, capsys, cmd):
        # both subcommands pair HR and SR files by one rule
        hr_d, sr_d = tmp_path / "hr", tmp_path / "sr"
        hr_d.mkdir(), sr_d.mkdir()
        for d in (hr_d, sr_d):
            save_image(Image(np.zeros((8, 8, 1))), str(d / "both.png"))
        save_image(Image(np.zeros((8, 8, 1))), str(hr_d / "only_hr.png"))
        save_image(Image(np.zeros((8, 8, 1))), str(sr_d / "only_sr.png"))
        out = ["--out", str(tmp_path / "out")] if cmd == "residual" else []
        assert run([cmd, "--hr", str(hr_d), "--sr", str(sr_d)] + out) == 1
        captured = capsys.readouterr()
        assert "only_hr.png" in captured.err and "only_sr.png" in captured.err
        assert captured.out == ""


class TestSobelCmd:
    def test_constant_image_gives_black_map(self, tmp_path):
        src = tmp_path / "in"
        src.mkdir()
        save_image(Image(np.full((16, 16, 1), 0.5)), str(src / "flat.png"))
        out = str(tmp_path / "out")
        assert run(["sobel", "--in", str(src), "--out", out]) == 0
        m = load_image(os.path.join(out, "flat_sobel.png"))
        assert np.array_equal(m.array, np.zeros_like(m.array))

    def test_step_edge_lights_up_only_near_the_step(self, tmp_path):
        arr = np.zeros((16, 16, 1))
        arr[:, 8:, 0] = 1.0
        src = tmp_path / "in"
        src.mkdir()
        save_image(Image(arr), str(src / "step.png"))
        out = str(tmp_path / "out")
        run(["sobel", "--in", str(src), "--out", out])
        m = load_image(os.path.join(out, "step_sobel.png")).array[:, :, 0]
        lit = np.where(m.max(axis=0) > 0)[0]
        # valid-region column j covers source columns j..j+2; the step
        # between source columns 7 and 8 can light columns 6..8 only
        assert lit.min() >= 5 and lit.max() <= 8
        assert m.max() == 1.0  # max-scaled

    def test_rerun_byte_identical(self, dataset_dir, tmp_path):
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        run(["sobel", "--in", os.path.join(dataset_dir, "ir"), "--out", a])
        run(["sobel", "--in", os.path.join(dataset_dir, "ir"), "--out", b])
        assert tree_hash(a) == tree_hash(b)


class TestResidualCmd:
    def test_identical_images_give_black_map_and_zero_mean(self, dataset_dir,
                                                           tmp_path, capsys):
        ir = os.path.join(dataset_dir, "ir")
        out = str(tmp_path / "res")
        assert run(["residual", "--hr", ir, "--sr", ir, "--out", out]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[-1] == "mean,0.000000"
        m = load_image(os.path.join(out, "0000_residual.png"))
        assert np.array_equal(m.array, np.zeros_like(m.array))
        assert os.path.exists(os.path.join(out, "0000_residual_color.png"))

    def test_constant_offset_uniform_map(self, tmp_path, capsys):
        hr_d, sr_d = tmp_path / "hr", tmp_path / "sr"
        hr_d.mkdir(), sr_d.mkdir()
        base = np.full((8, 8, 1), 100 / 255.0)
        save_image(Image(base), str(hr_d / "c.png"))
        save_image(Image(base + 10 / 255.0), str(sr_d / "c.png"))
        out = str(tmp_path / "res")
        run(["residual", "--hr", str(hr_d), "--sr", str(sr_d), "--out", out])
        lines = capsys.readouterr().out.strip().splitlines()
        mean = float(lines[-1].split(",")[1])
        assert mean == pytest.approx(10 / 255.0, abs=1e-6)
        m = load_image(os.path.join(out, "c_residual.png")).array
        assert np.allclose(m, m.flat[0])

    def test_mean_matches_scalar_oracle(self, tmp_path, capsys):
        rng = np.random.default_rng(6)
        hr_d, sr_d = tmp_path / "hr", tmp_path / "sr"
        hr_d.mkdir(), sr_d.mkdir()
        a = Image(rng.random((12, 12, 1)))
        b = Image(rng.random((12, 12, 1)))
        save_image(a, str(hr_d / "r.png"))
        save_image(b, str(sr_d / "r.png"))
        out = str(tmp_path / "res")
        run(["residual", "--hr", str(hr_d), "--sr", str(sr_d), "--out", out])
        got = float(capsys.readouterr().out.strip().splitlines()[-1]
                    .split(",")[1])
        qa = load_image(str(hr_d / "r.png")).array
        qb = load_image(str(sr_d / "r.png")).array
        want = sum(abs(float(x) - float(y))
                   for x, y in zip(qa.flat, qb.flat)) / qa.size
        assert abs(got - want) < 1e-7
