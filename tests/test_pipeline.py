"""Dataset synthesis and manifests, training contracts, checkpoints, eval."""

import hashlib
import json
import math
import os
import struct
import time
import tracemalloc
import weakref

import numpy as np
import pytest

from dasr import checkpoint, cli, pipeline, synth, tensor as T
from dasr.checkpoint import (Checkpoint, CheckpointError, checkpoint_bytes,
                             load_checkpoint, save_checkpoint)
from dasr.imaging import (DegradationSpec, Image, load_image, save_image,
                          sobel_map)
from dasr.metrics import evaluate_set
from dasr.models import Generator
from dasr.pngio import (ImageFormatError, read_png, read_pnm, write_png,
                        write_pnm)
from dasr.pipeline import (TrainConfig, build_generator, evaluate_checkpoint,
                           generator_from_checkpoint, super_resolve,
                           train_stage1, train_stage2)
from dasr.synth import (DatasetManifest, ManifestEntry, SyntheticSceneSpec,
                        make_synthetic_dataset, render_pair)
from dasr.tensor import Tensor
from test_models import dense_sobel_weight


def small_config(**kw):
    base = dict(scale=2, lr=1e-3, batch=2, lr_crop=12, steps_stage1=4,
                steps_stage2=3, seed=5)
    base.update(kw)
    return TrainConfig(**base)


def tree_hash(root):
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in sorted(os.walk(root)):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(name.encode())
            h.update(open(path, "rb").read())
    return h.hexdigest()


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("data")
    manifest = make_synthetic_dataset(
        SyntheticSceneSpec(count=6, extent=48, seed=11), str(out))
    return manifest


@pytest.fixture(scope="module")
def stage1_ckpt(dataset):
    return train_stage1(dataset, small_config())


class TestSynth:
    def test_pair_without_margin_is_redrawn_alone(self, tmp_path):
        # seed 2109's pair 12 loses its texture margin on the first draw;
        # its neighbours keep the bytes of their first draw
        spec = SyntheticSceneSpec(count=24, extent=48, seed=2109)
        made = make_synthetic_dataset(spec, str(tmp_path / "set"))
        for i in (11, 12, 13):
            ir, vis = render_pair(spec, i)
            first = str(tmp_path / f"first{i}.png")
            save_image(ir, first)
            saved = os.path.join(made.base_dir, made.entries[i].ir)
            kept = open(first, "rb").read() == open(saved, "rb").read()
            assert kept == (i != 12)
            assert (sobel_map(vis).mean() > sobel_map(ir).mean()) == kept
            assert (sobel_map(made.load_vis(i)).mean()
                    > sobel_map(made.load_ir(i)).mean())

    def test_refused_when_every_draw_loses_the_margin(self, tmp_path,
                                                     monkeypatch):
        draws = []

        def flat(spec, idx, redraw=0):
            draws.append(redraw)
            img = Image(np.full((spec.extent, spec.extent, 1), 0.5))
            return img, img

        monkeypatch.setattr(synth, "render_pair", flat)
        with pytest.raises(AssertionError, match="pair 0: .*texture margin"):
            make_synthetic_dataset(SyntheticSceneSpec(count=2, extent=16),
                                   str(tmp_path))
        assert draws == list(range(synth.REDRAWS + 1))

    def test_deterministic_rerun(self, tmp_path):
        spec = SyntheticSceneSpec(count=8, extent=32, seed=7)
        a = tmp_path / "a"
        b = tmp_path / "b"
        make_synthetic_dataset(spec, str(a))
        make_synthetic_dataset(spec, str(b))
        assert tree_hash(a) == tree_hash(b)

    def test_pair_count_and_alignment(self, dataset):
        assert len(dataset.entries) == 6
        for i in range(len(dataset.entries)):
            ir, vis = dataset.load_ir(i), dataset.load_vis(i)
            assert vis is not None
            assert (ir.height, ir.width) == (vis.height, vis.width)

    def test_visible_has_more_sobel_energy(self, dataset):
        for i in range(len(dataset.entries)):
            ir, vis = dataset.load_ir(i), dataset.load_vis(i)
            assert sobel_map(vis).mean() > sobel_map(ir).mean()


class TestManifest:
    def test_odd_extent_cropped_to_scale_multiple(self, tmp_path):
        save_image(Image(np.random.default_rng(1).random((65, 65, 1))),
                   str(tmp_path / "odd.png"))
        man = DatasetManifest(degradation=DegradationSpec(),
                              entries=[ManifestEntry(ir="odd.png")],
                              base_dir=str(tmp_path))
        hr = man.load_ir(0)
        assert (hr.height, hr.width) == (64, 64)

    def test_scale_is_the_degradation_scale(self, tmp_path):
        made = make_synthetic_dataset(
            SyntheticSceneSpec(count=2, extent=32, seed=4), str(tmp_path),
            degradation=DegradationSpec(scale=4, noise_sigma=0.02, seed=3))
        loaded = DatasetManifest.load(str(tmp_path / "manifest.json"))
        assert made.scale == loaded.scale == 4
        for i in range(2):
            hr = made.load_ir(i)
            lr_made = made.lr_for(hr, i, "ir-noise")
            lr_loaded = loaded.lr_for(loaded.load_ir(i), i, "ir-noise")
            assert (lr_made.height, lr_made.width) == (8, 8)
            assert lr_made.array.tobytes() == lr_loaded.array.tobytes()


class TestStage1:
    def test_zero_steps_equals_initialization(self, dataset):
        cfg = small_config(steps_stage1=0)
        ckpt = train_stage1(dataset, cfg)
        gen = build_generator(cfg)
        for name, data in gen.named_tensors():
            assert np.array_equal(ckpt.tensors[f"gen.{name}"], data)

    def test_same_seed_byte_identical(self, dataset):
        cfg = small_config()
        a = checkpoint_bytes(train_stage1(dataset, cfg))
        b = checkpoint_bytes(train_stage1(dataset, cfg))
        assert a == b

    def test_different_seed_differs(self, dataset):
        a = checkpoint_bytes(train_stage1(dataset, small_config(seed=1)))
        b = checkpoint_bytes(train_stage1(dataset, small_config(seed=2)))
        assert a != b

    def test_scale_mismatch_rejected(self, dataset):
        with pytest.raises(ValueError, match="scale"):
            train_stage1(dataset, small_config(scale=4))

    def test_loss_log_layout(self, dataset, tmp_path):
        log = tmp_path / "log.csv"
        train_stage1(dataset, small_config(steps_stage1=2), str(log))
        lines = log.read_text().strip().splitlines()
        assert lines[0] == "step,mae,adv_g,noise,trans,spre,total_g,total_d"
        assert len(lines) == 3


class TestNoiseFeatureWeights:
    def test_one_hot_at_prior_depth(self):
        for depth, weights in (("shallow", [1.0, 0.0, 0.0]),
                               ("middle", [0.0, 1.0, 0.0]),
                               ("deep", [0.0, 0.0, 1.0])):
            assert pipeline.noise_feature_weights(
                TrainConfig(prior_depth=depth)) == weights

    def test_explicit_weights_as_floats(self):
        w = pipeline.noise_feature_weights(
            TrainConfig(prior_depth="deep", feature_weights=[0.2, 1, 0.3]))
        assert w == [0.2, 1.0, 0.3]
        assert all(type(v) is float for v in w)

    def test_wrong_length_names_the_field(self):
        with pytest.raises(ValueError, match="feature_weights needs 3 "
                                             "entries, got 2"):
            pipeline.noise_feature_weights(
                TrainConfig(feature_weights=[0.5, 0.5]))


class TestStage2:
    def test_requires_stage1_checkpoint(self, dataset, stage1_ckpt):
        ck2 = train_stage2(stage1_ckpt, dataset, small_config())
        with pytest.raises(ValueError, match="stage1"):
            train_stage2(ck2, dataset, small_config())

    def test_zero_steps_keeps_stage1_generator(self, dataset, stage1_ckpt):
        cfg = small_config(steps_stage2=0)
        ck2 = train_stage2(stage1_ckpt, dataset, cfg)
        for name, data in stage1_ckpt.tensors.items():
            if name.startswith("gen."):
                assert np.array_equal(ck2.tensors[name], data)

    def test_frozen_tensors_unchanged_by_training(self, dataset,
                                                  stage1_ckpt, monkeypatch):
        # the feature extractor's weights are constants, and the Sobel
        # filters are code: the checkpoint holds no tensor for them
        from dasr.models import FeatureExtractor
        built = []

        class Recorded(FeatureExtractor):
            def __init__(self):
                super().__init__()
                built.append(self)

        monkeypatch.setattr(pipeline, "FeatureExtractor", Recorded)
        ck2 = train_stage2(stage1_ckpt, dataset, small_config())
        assert len(built) == 1
        for used, fresh in zip(built[0].stages, FeatureExtractor().stages,
                               strict=True):
            assert np.array_equal(used.data, fresh.data)
        assert "dtrans.prior.conv0.weight" in ck2.tensors
        assert not [k for k in ck2.tensors
                    if k.startswith("dtrans.prior.sobel")]

    def test_checkpoint_with_old_sobel_tensors_evaluates_the_same(
            self, dataset, stage1_ckpt, tmp_path):
        # stage-2 files written while the Sobel filters were stored as
        # [2C, C, 3, 3] conv weights still load; the extra tensors are
        # ignored
        ck2 = train_stage2(stage1_ckpt, dataset,
                           small_config(steps_stage2=1))
        old = Checkpoint(stage=ck2.stage, config=ck2.config,
                         tensors=dict(ck2.tensors))
        for i, c in enumerate((16, 32)):
            old.tensors[f"dtrans.prior.sobel{i}.weight"] = \
                dense_sobel_weight(c)
        path = str(tmp_path / "old.dasr")
        save_checkpoint(old, path)
        assert evaluate_checkpoint(load_checkpoint(path), dataset) == \
            evaluate_checkpoint(ck2, dataset)

    def test_logged_discriminator_total(self, dataset, stage1_ckpt,
                                        tmp_path):
        # total_d = adv_d - beta * trans and spre = -adv_d, to within the
        # CSV's 6-decimal rounding
        log = tmp_path / "s2.csv"
        train_stage2(stage1_ckpt, dataset, small_config(beta=0.5), str(log))
        header, *rows = log.read_text().strip().splitlines()
        cols = header.split(",")
        assert len(rows) == 3
        for line in rows:
            r = dict(zip(cols, map(float, line.split(","))))
            assert r["trans"] != 0.0
            assert abs(r["total_d"] - (-r["spre"] - 0.5 * r["trans"])) \
                <= 5e-6

    def test_vis_required(self, tmp_path, stage1_ckpt):
        rng = np.random.default_rng(3)
        ir_dir = tmp_path / "ir_only"
        ir_dir.mkdir()
        for i in range(2):
            save_image(Image(rng.random((48, 48, 1))),
                       str(ir_dir / f"{i}.png"))
        man = DatasetManifest(
            degradation=DegradationSpec(scale=2),
            entries=[ManifestEntry(ir=f"{i}.png") for i in range(2)],
            base_dir=str(ir_dir))
        with pytest.raises(ValueError, match="visible"):
            train_stage2(stage1_ckpt, man, small_config())

    def test_init_trans_from_spre_copies_main_stack(self, dataset,
                                                    stage1_ckpt):
        cfg = small_config(steps_stage2=0, init_trans_from_spre=True)
        ck2 = train_stage2(stage1_ckpt, dataset, cfg)
        for name, data in stage1_ckpt.tensors.items():
            if name.startswith("dspre.main."):
                tail = name[len("dspre."):]
                assert np.array_equal(ck2.tensors[f"dtrans.{tail}"], data)

    def test_init_trans_from_spre_refuses_a_misshaped_tensor(self, dataset,
                                                            stage1_ckpt):
        tensors = dict(stage1_ckpt.tensors)
        tensors["dspre.main.conv0.weight"] = np.zeros((32, 1, 2, 2),
                                                      np.float32)
        bad = Checkpoint(stage="stage1", config=stage1_ckpt.config,
                         tensors=tensors)
        cfg = small_config(steps_stage2=0, init_trans_from_spre=True)
        with pytest.raises(ValueError, match="main.conv0.weight"):
            train_stage2(bad, dataset, cfg)

    def test_one_step_runs_the_prior_branch_once_per_image(
            self, dataset, stage1_ckpt, monkeypatch):
        # real, fake and the generator's adversarial pass: the texture
        # loss reuses the latents of the discriminator step
        from dasr.models import DiscTrans
        calls = []
        inner = DiscTrans.prior_branch

        def counted(self, img):
            calls.append(img.shape)
            return inner(self, img)

        monkeypatch.setattr(DiscTrans, "prior_branch", counted)
        train_stage2(stage1_ckpt, dataset,
                     small_config(steps_stage2=1, adv_enabled=True))
        assert len(calls) == 3


class TestStepLifetime:
    @pytest.mark.parametrize("stage", [1, 2])
    def test_no_step_graph_outlives_its_step(self, dataset, stage1_ckpt,
                                             monkeypatch, stage):
        # every optimizer step sees the losses of earlier steps gone
        refs, leaks = [], []
        inner = pipeline._update

        def spy(model, loss, state, config, step):
            leaks.extend(s for s, r in refs if s < step and r() is not None)
            refs.append((step, weakref.ref(loss.data)))
            inner(model, loss, state, config, step)

        monkeypatch.setattr(pipeline, "_update", spy)
        config = small_config(steps_stage1=3, steps_stage2=3)
        if stage == 1:
            train_stage1(dataset, config)
        else:
            train_stage2(stage1_ckpt, dataset, config)
        assert sorted({s for s, _ in refs}) == [0, 1, 2]
        assert leaks == []


class TestGeneratorStep:
    @pytest.mark.parametrize("stage", [1, 2])
    def test_discriminator_gets_no_gradient(self, dataset, stage1_ckpt,
                                            monkeypatch, stage):
        # the discriminator is a constant in the generator step, so its
        # gradient slab, which its own Adam step left at zero, stays zero
        discs, left = [], []
        inner = pipeline._update

        def spy(model, loss, state, config, step):
            if isinstance(model, Generator):
                inner(model, loss, state, config, step)
                left.append([p.name for d in discs for p in d.parameters()
                             if p.grad.any()])
            else:
                discs.append(model)
                inner(model, loss, state, config, step)

        monkeypatch.setattr(pipeline, "_update", spy)
        config = small_config(steps_stage1=2, steps_stage2=2,
                              adv_enabled=True)
        if stage == 1:
            train_stage1(dataset, config)
        else:
            train_stage2(stage1_ckpt, dataset, config)
        assert discs and left and left == [[]] * len(left)


class TestVisibleReads:
    def test_only_stage2_reads_visible_images(self, dataset, stage1_ckpt,
                                              monkeypatch):
        reads = []
        inner = DatasetManifest.load_vis

        def spy(manifest, idx):
            reads.append(idx)
            return inner(manifest, idx)

        monkeypatch.setattr(DatasetManifest, "load_vis", spy)
        train_stage1(dataset, small_config(steps_stage1=1))
        evaluate_checkpoint(stage1_ckpt, dataset)
        assert cli.main(["eval", "--self-check", "--data",
                         dataset.base_dir]) == 0
        assert reads == []
        train_stage2(stage1_ckpt, dataset, small_config(steps_stage2=1))
        assert reads == list(range(len(dataset.entries)))


class TestCheckpointFormat:
    def test_save_load_save_byte_identical(self, stage1_ckpt, tmp_path):
        p1 = tmp_path / "a.dasr"
        p2 = tmp_path / "b.dasr"
        save_checkpoint(stage1_ckpt, str(p1))
        save_checkpoint(load_checkpoint(str(p1)), str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_bad_magic(self, stage1_ckpt, tmp_path):
        p = tmp_path / "bad.dasr"
        blob = bytearray(checkpoint_bytes(stage1_ckpt))
        blob[:4] = b"WHAT"
        p.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="bad magic"):
            load_checkpoint(str(p))

    def test_version_mismatch(self, stage1_ckpt, tmp_path):
        p = tmp_path / "ver.dasr"
        blob = bytearray(checkpoint_bytes(stage1_ckpt))
        blob[4:8] = (99).to_bytes(4, "little")
        p.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="version mismatch"):
            load_checkpoint(str(p))

    def test_truncation(self, stage1_ckpt, tmp_path):
        p = tmp_path / "cut.dasr"
        blob = checkpoint_bytes(stage1_ckpt)
        p.write_bytes(blob[:len(blob) - 17])
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(str(p))

    def test_payload_shorter_than_dims_product(self, tmp_path):
        ck = Checkpoint(stage="stage1", config={},
                        tensors={"w": np.ones((2, 3), dtype=np.float32)})
        blob = bytearray(checkpoint_bytes(ck))
        p = tmp_path / "short.dasr"
        p.write_bytes(bytes(blob[:-8]))  # drop two floats of payload
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(str(p))

    def test_dims_product_past_int64_is_truncation(self, tmp_path):
        # 65536**4 == 2**64, which an int64 product wraps to 0
        blob = (checkpoint_bytes(Checkpoint(stage="stage1", config={}))
                + struct.pack("<H", 1) + b"w" + struct.pack("<B", 4)
                + struct.pack("<4I", *(65536,) * 4))
        p = tmp_path / "huge.dasr"
        p.write_bytes(blob)
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(str(p))

    def test_non_utf8_tensor_name(self, tmp_path):
        ck = Checkpoint(stage="stage1", config={},
                        tensors={"ab": np.ones(2, dtype=np.float32)})
        blob = checkpoint_bytes(ck).replace(b"ab", b"\xff\xfe")
        p = tmp_path / "name.dasr"
        p.write_bytes(blob)
        with pytest.raises(CheckpointError, match="tensor name"):
            load_checkpoint(str(p))

    def test_stage_roundtrip(self, tmp_path):
        ck = Checkpoint(stage="stage2", config={"scale": 2}, tensors={})
        p = tmp_path / "s2.dasr"
        save_checkpoint(ck, str(p))
        assert load_checkpoint(str(p)).stage == "stage2"


class _TornFile:
    """A file whose write stores half of its data, then fails."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, data):
        self.fh.write(data[:len(data) // 2])
        raise OSError("disk full")


class TestAtomicWrites:
    @staticmethod
    def tear_writes(monkeypatch):
        monkeypatch.setattr(checkpoint, "open",
                            lambda path, mode: _TornFile(open(path, mode)),
                            raising=False)

    def test_failed_checkpoint_write_keeps_previous_file(
            self, stage1_ckpt, tmp_path, monkeypatch):
        p = tmp_path / "c.dasr"
        save_checkpoint(stage1_ckpt, str(p))
        before = p.read_bytes()
        assert before == checkpoint_bytes(stage1_ckpt)
        self.tear_writes(monkeypatch)
        other = Checkpoint(stage="stage2", config={}, tensors={})
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(other, str(p))
        assert p.read_bytes() == before
        assert os.listdir(tmp_path) == ["c.dasr"]

    def test_failed_loss_log_write_keeps_previous_file(
            self, dataset, tmp_path, monkeypatch):
        p = tmp_path / "loss.csv"
        p.write_text("previous run\n")
        self.tear_writes(monkeypatch)
        with pytest.raises(OSError, match="disk full"):
            train_stage1(dataset, small_config(steps_stage1=0),
                         log_path=str(p))
        assert p.read_text() == "previous run\n"
        assert os.listdir(tmp_path) == ["loss.csv"]


class TestEvaluate:
    def test_hr_vs_hr_sanity(self, dataset):
        pairs = []
        for i in range(len(dataset.entries)):
            hr = dataset.load_ir(i)
            pairs.append((hr, hr))
        row = evaluate_set(pairs, "self", 2)
        assert row.mse == 0.0
        assert row.ssim == 1.0
        assert row.psnr_inf_count == len(pairs)

    def test_fresh_generator_matches_bicubic_and_broken_one_falls(
            self, dataset, tmp_path):
        cfg = small_config(steps_stage1=0)
        ckpt = train_stage1(dataset, cfg)
        model_row, bicubic_row = evaluate_checkpoint(
            ckpt, dataset, out_dir=str(tmp_path / "sr"))
        # fresh generator == bicubic skip; the float32 forward can flip a
        # few 8-bit rounding boundaries, so allow a hair of slack
        assert model_row.psnr == pytest.approx(bicubic_row.psnr, abs=1e-3)
        written = os.listdir(tmp_path / "sr")
        assert len(written) == len(dataset.entries)
        # sanity direction: a scrambled generator scores far below bicubic
        bad = Checkpoint(stage=ckpt.stage, config=dict(ckpt.config),
                         tensors=dict(ckpt.tensors))
        rng = np.random.default_rng(0)
        bad.tensors["gen.conv_last.weight"] = rng.standard_normal(
            bad.tensors["gen.conv_last.weight"].shape).astype(np.float32)
        bad_row, _ = evaluate_checkpoint(bad, dataset)
        assert bad_row.psnr < bicubic_row.psnr - 10

    def test_scale_mismatch(self, dataset, stage1_ckpt):
        bad = Checkpoint(stage=stage1_ckpt.stage,
                         config=dict(stage1_ckpt.config, scale=4),
                         tensors=stage1_ckpt.tensors)
        with pytest.raises(ValueError, match="scale"):
            evaluate_checkpoint(bad, dataset)

    def test_super_resolve_memory_is_bounded(self):
        # one 64-pixel tile's activations, not a retained graph per tile
        gen = build_generator(small_config())
        lr = Image(np.random.default_rng(2).random((80, 80, 1)))
        tracemalloc.start()
        try:
            super_resolve(gen, lr)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 100 * 2 ** 20

    def test_tiled_inference_covers_and_blends(self, dataset, stage1_ckpt):
        gen, _ = generator_from_checkpoint(stage1_ckpt)
        hr = dataset.load_ir(0)
        lr = dataset.lr_for(hr, 0, "ir-noise")
        whole = super_resolve(gen, lr, tile=64, overlap=8)
        tiled = super_resolve(gen, lr, tile=16, overlap=8)
        assert (whole.height, whole.width) == (2 * lr.height, 2 * lr.width)
        assert (tiled.height, tiled.width) == (whole.height, whole.width)
        # every pixel covered (a missed tile would divide by zero)
        assert np.all(np.isfinite(tiled.array))
        # tile borders see different padding, but blended seams stay close
        assert np.abs(whole.array - tiled.array).mean() < 0.06
        # deterministic
        again = super_resolve(gen, lr, tile=16, overlap=8)
        assert np.array_equal(tiled.array, again.array)


class TestScale4EndToEnd:
    def test_train_both_stages_and_evaluate_at_x4(self, tmp_path):
        data = make_synthetic_dataset(
            SyntheticSceneSpec(count=2, extent=48, seed=21),
            str(tmp_path / "data"), degradation=DegradationSpec(scale=4))
        cfg = small_config(scale=4, lr_crop=6, batch=1, steps_stage1=2,
                           steps_stage2=2)
        logs = [str(tmp_path / "s1.csv"), str(tmp_path / "s2.csv")]
        s1 = train_stage1(data, cfg, log_path=logs[0])
        s2 = train_stage2(s1, data, cfg, log_path=logs[1])
        for log in logs:
            rows = open(log).read().splitlines()[1:]
            assert len(rows) == 2
            values = [float(v) for row in rows for v in row.split(",")]
            assert all(math.isfinite(v) for v in values)
        model_row, _ = evaluate_checkpoint(s2, data,
                                           out_dir=str(tmp_path / "sr"))
        assert (model_row.scale, model_row.count) == (4, 2)
        assert math.isfinite(model_row.psnr)
        for i in range(2):
            lr = data.lr_for(data.load_ir(i), i, "ir-noise")
            sr = load_image(str(tmp_path / "sr" / f"{i:04d}_sr.png"))
            assert (sr.height, sr.width) == (4 * lr.height, 4 * lr.width)
        path = tmp_path / "s2.dasr"
        save_checkpoint(s2, str(path))
        gen, config = generator_from_checkpoint(load_checkpoint(str(path)))
        assert config.scale == gen.config.scale == 4


class _CountingGenerator:
    """Forwards to a generator and records the shape of every input."""

    def __init__(self, gen):
        self.gen, self.config, self.shapes = gen, gen.config, []

    def __call__(self, x):
        self.shapes.append(x.shape)
        return self.gen(x)


class TestTilePlan:
    SHAPES = [(80, 80), (65, 65), (1, 200), (200, 7), (33, 97)]

    @pytest.mark.parametrize("tile,overlap", [(64, 8), (16, 8), (9, 8),
                                              (10, 0), (1, 0), (20, 3)])
    def test_tiles_fit_the_budget_and_overlap(self, tile, overlap):
        for h, w in self.SHAPES + [(2, 2), (9, 130), (130, 64), (64, 65)]:
            th, ys, tw, xs = pipeline._tile_plan(h, w, tile, overlap)
            assert th * tw <= tile * tile
            for starts, size, n in ((ys, th, h), (xs, tw, w)):
                assert starts[0] == 0 and starts[-1] + size == n
                for a, b in zip(starts, starts[1:]):
                    assert 0 < b - a <= size - overlap

    @staticmethod
    def _brute_force_plan(h, w, tile, overlap):
        # every (rows, columns) pair: fewest pixels, then tiles, then rows
        best = None
        for rows in range(1, max(h - overlap, 1) + 1):
            for cols in range(1, max(w - overlap, 1) + 1):
                th = pipeline._span(h, rows, overlap)
                tw = pipeline._span(w, cols, overlap)
                key = (rows * th * cols * tw, rows * cols, rows)
                if th * tw <= tile * tile and (best is None or key < best[0]):
                    best = key, th, rows, tw, cols
        _, th, rows, tw, cols = best
        return (th, pipeline._starts(h, rows, th), tw,
                pipeline._starts(w, cols, tw))

    def test_plan_is_the_brute_force_fewest_pixel_grid(self):
        for tile, overlap in [(20, 3), (10, 0), (9, 8), (6, 2), (5, 0)]:
            for h in range(1, 34, 4):
                for w in (1, 7, 13, 30, 41):
                    assert (pipeline._tile_plan(h, w, tile, overlap)
                            == self._brute_force_plan(h, w, tile, overlap))

    @pytest.mark.parametrize("h,w,tile,overlap,pixels,tiles", [
        (33, 130, 20, 3, 5472, 16), (9, 130, 10, 0, 1170, 13)])
    def test_more_columns_can_compute_fewer_pixels(self, h, w, tile, overlap,
                                                   pixels, tiles):
        # the fewest columns that fit each row count would give 5,544
        # pixels for the first and 18 tiles of 1,170 pixels for the second
        th, ys, tw, xs = pipeline._tile_plan(h, w, tile, overlap)
        assert (th * len(ys) * tw * len(xs), len(ys) * len(xs)) == (pixels,
                                                                   tiles)

    def test_plan_of_a_large_image_is_fast(self):
        times = []
        for _ in range(3):
            start = time.perf_counter()
            pipeline._tile_plan(4096, 4096, 64, 8)
            times.append(time.perf_counter() - start)
        assert min(times) < 0.05

    def test_80x80_runs_two_strips(self, stage1_ckpt):
        gen = _CountingGenerator(generator_from_checkpoint(stage1_ckpt)[0])
        lr = Image(np.random.default_rng(4).random((80, 80, 1)))
        super_resolve(gen, lr)
        assert gen.shapes == [(1, 1, 80, 44)] * 2

    @pytest.mark.parametrize("tile,overlap", [(64, 8), (24, 8)])
    def test_every_pixel_covered_and_finite(self, stage1_ckpt, tile,
                                            overlap):
        gen, _ = generator_from_checkpoint(stage1_ckpt)
        rng = np.random.default_rng(5)
        for h, w in self.SHAPES:
            lr = Image(rng.random((h, w, 1)))
            sr = super_resolve(gen, lr, tile=tile, overlap=overlap)
            assert sr.array.shape == (2 * h, 2 * w, 1)
            # a pixel no tile covered would be 0 / 0
            assert np.all(np.isfinite(sr.array))
            again = super_resolve(gen, lr, tile=tile, overlap=overlap)
            assert np.array_equal(sr.array, again.array)

    @pytest.mark.parametrize("h,w", [(64, 64), (33, 97), (1, 200), (200, 7)])
    def test_image_within_budget_is_one_exact_forward(self, stage1_ckpt,
                                                      h, w):
        gen, _ = generator_from_checkpoint(stage1_ckpt)
        lr = Image(np.random.default_rng(6).random((h, w, 1)))
        with T.no_grad():
            direct = gen(Tensor(lr.array[None, None, :, :, 0]
                                .astype(np.float32))).data[0, 0]
        sr = super_resolve(gen, lr)
        assert np.array_equal(sr.array[:, :, 0], np.clip(direct, 0.0, 1.0))

    @pytest.mark.parametrize("tile,overlap", [(8, 8), (4, 9), (0, 0),
                                              (64, -1)])
    def test_bad_tile_arguments_name_both_values(self, tile, overlap):
        gen = build_generator(small_config())
        lr = Image(np.zeros((80, 80, 1)))
        with pytest.raises(ValueError,
                           match=f"tile={tile}, overlap={overlap}"):
            super_resolve(gen, lr, tile=tile, overlap=overlap)


class TestReaderFuzz:
    @pytest.mark.parametrize("kind", ["png", "pnm", "checkpoint"])
    def test_truncations_and_byte_flips_raise_format_errors(self, kind,
                                                            tmp_path):
        # every input must load or raise the reader's own format error
        path = tmp_path / f"f.{kind}"
        pixels = (np.arange(48).reshape(4, 4, 3) * 5).astype(np.uint8)
        if kind == "png":
            write_png(str(path), pixels)
            read, error = read_png, ImageFormatError
        elif kind == "pnm":
            write_pnm(str(path), pixels[:, :, 0])
            read, error = read_pnm, ImageFormatError
        else:
            save_checkpoint(Checkpoint(
                stage="stage1", config={"scale": 2},
                tensors={"w": np.ones((2, 3), dtype=np.float32),
                         "b": np.zeros(2, dtype=np.float32)}), str(path))
            read, error = load_checkpoint, CheckpointError
        blob = path.read_bytes()
        rng = np.random.default_rng(13)
        cases = [blob[:n] for n in range(len(blob))]
        for _ in range(300):
            flipped = bytearray(blob)
            flipped[rng.integers(len(blob))] ^= int(rng.integers(1, 256))
            cases.append(bytes(flipped))
        for case in cases:
            path.write_bytes(case)
            try:
                read(str(path))
            except error:
                pass


def _write_manifest(path) -> None:
    DatasetManifest(
        degradation=DegradationSpec(scale=4, blur_sigma=0.5,
                                    noise_sigma=0.02, seed=3),
        entries=[ManifestEntry(ir="ir/0.png", vis="vis/0.png"),
                 ManifestEntry(ir="ir/1.png")]).save(str(path))


class TestManifestFuzz:
    def test_truncations_and_bit_flips_load_or_name_the_path(self,
                                                             tmp_path):
        path = tmp_path / "manifest.json"
        _write_manifest(path)
        blob = path.read_bytes()
        rng = np.random.default_rng(17)
        cases = [blob[:n] for n in range(len(blob))]
        for _ in range(400):
            flipped = bytearray(blob)
            flipped[rng.integers(len(blob))] ^= 1 << int(rng.integers(8))
            cases.append(bytes(flipped))
        for case in cases:
            path.write_bytes(case)
            try:
                DatasetManifest.load(str(path))
            except ValueError as exc:
                assert str(exc).startswith(f"{path}: ")

    @pytest.mark.parametrize("edit, msg", [
        (lambda d: d.update(scale=2.7), "scale must be int, got float"),
        (lambda d: d.update(scale=None), "scale must be int, got NoneType"),
        (lambda d: d.update(scale=3), "scale must be one of (2, 4), got 3"),
        (lambda d: d["degradation"].update(seed=1.5),
         "seed must be int, got float"),
        (lambda d: d["degradation"].update(seed=True),
         "seed must be int, got bool"),
        (lambda d: d["degradation"].update(noise_sigma=math.nan),
         "noise_sigma must be finite, got nan"),
        (lambda d: d["degradation"].update(blur_sigma=-1.0),
         "blur_sigma must be >= 0, got -1.0"),
        (lambda d: d["degradation"].update(warp=1),
         "unknown config keys in degradation: warp"),
        (lambda d: d.update(degradation=[]),
         "degradation must be a JSON object, got list"),
        (lambda d: d["entries"][0].update(ir=5),
         "manifest entry 0: 'ir' and 'vis' must be strings"),
        (lambda d: d.update(entries={}), "manifest 'entries' must be a list"),
    ], ids=["scale-float", "scale-null", "scale-3", "seed-float",
            "seed-bool", "noise-sigma-nan", "blur-sigma-negative",
            "degradation-unknown-key", "degradation-list", "ir-int",
            "entries-object"])
    def test_malformed_value_is_refused_naming_the_path(self, tmp_path,
                                                        edit, msg):
        path = tmp_path / "manifest.json"
        _write_manifest(path)
        doc = json.loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError) as exc:
            DatasetManifest.load(str(path))
        assert str(exc.value) == f"{path}: {msg}"


class TestManifestRoundTrip:
    def test_save_load_preserves_fields(self, dataset, tmp_path):
        p = tmp_path / "m.json"
        dataset.save(str(p))
        back = DatasetManifest.load(str(p))
        assert back.scale == dataset.scale
        assert len(back.entries) == len(dataset.entries)
        assert back.degradation.seed == dataset.degradation.seed

    @pytest.mark.parametrize("key", ["scale", "entries"])
    def test_missing_key_is_named(self, dataset, tmp_path, key):
        p = tmp_path / "m.json"
        dataset.save(str(p))
        doc = json.loads(p.read_text())
        del doc[key]
        p.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=key):
            DatasetManifest.load(str(p))

    def test_entry_without_ir_is_named(self, dataset, tmp_path):
        p = tmp_path / "m.json"
        dataset.save(str(p))
        doc = json.loads(p.read_text())
        del doc["entries"][1]["ir"]
        p.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=r"m\.json: manifest entry 1 "
                                             r"has no 'ir' key"):
            DatasetManifest.load(str(p))

    @pytest.mark.parametrize("doc, msg", [
        ({"adv_enabled": 1}, "adv_enabled must be bool, got int"),
        ({"seed": True}, "seed must be int, got bool"),
        ({"alpha": "0.1"}, "alpha must be float, got str"),
        ({"feature_weights": [0.5, "x", 0.5]},
         "feature_weights must be None or a list of numbers, got list"),
    ], ids=["adv-enabled-int", "seed-bool", "alpha-str",
            "feature-weights-str-entry"])
    def test_config_value_types_checked(self, doc, msg):
        with pytest.raises(ValueError, match=msg):
            TrainConfig.from_dict(doc)

    @pytest.mark.parametrize("doc, msg", [
        ({"lr": 0.0}, r"lr must be > 0, got 0\.0"),
        ({"lr": -1e-3}, r"lr must be > 0"),
        ({"beta1": 1.0}, r"beta1 must be in \[0, 1\), got 1\.0"),
        ({"beta1": -0.1}, r"beta1 must be in \[0, 1\)"),
        ({"beta2": 1.0}, r"beta2 must be in \[0, 1\), got 1\.0"),
        ({"eps": 0.0}, r"eps must be > 0, got 0\.0"),
        ({"noise_sigma": -1.0}, r"noise_sigma must be >= 0, got -1\.0"),
        ({"alpha": -0.1}, r"alpha must be >= 0, got -0\.1"),
        ({"beta": -1.0}, r"beta must be >= 0, got -1\.0"),
        ({"lr": math.inf}, r"lr must be finite, got inf"),
        ({"eps": math.nan}, r"eps must be finite, got nan"),
        ({"alpha": math.inf}, r"alpha must be finite, got inf"),
        ({"grad_clip": -math.inf}, r"grad_clip must be finite, got -inf"),
        ({"feature_weights": [0.2, math.inf, 0.3]},
         r"feature_weights must be finite, got \[0\.2, inf, 0\.3\]"),
        ({"feature_weights": [-1.0, 0.0, 0.0]},
         r"feature_weights must be >= 0 in every entry, "
         r"got \[-1\.0, 0\.0, 0\.0\]"),
        ({"batch": 0}, r"batch must be in \[1, 1024\], got 0"),
        ({"batch": 1025}, r"batch must be in \[1, 1024\], got 1025"),
        ({"lr_crop": 0}, r"lr_crop must be in \[1, 1024\], got 0"),
        ({"lr_crop": 100000}, r"lr_crop must be in \[1, 1024\], got 100000"),
        ({"steps_stage1": -1}, r"steps_stage1 must be >= 0, got -1"),
        ({"steps_stage2": -1}, r"steps_stage2 must be >= 0, got -1"),
    ], ids=["lr-zero", "lr-negative", "beta1-one", "beta1-negative",
            "beta2-one", "eps-zero", "noise-sigma-negative",
            "alpha-negative", "beta-negative", "lr-inf", "eps-nan",
            "alpha-inf", "grad-clip-minus-inf", "feature-weight-inf",
            "feature-weight-negative",
            "batch-zero", "batch-above-max", "lr-crop-zero",
            "lr-crop-above-max", "steps-stage1-negative",
            "steps-stage2-negative"])
    def test_config_value_ranges_checked(self, doc, msg):
        with pytest.raises(ValueError, match=msg):
            TrainConfig.from_dict(doc)

    def test_unknown_config_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown config keys"):
            TrainConfig.from_dict({"scale": 2, "warp_drive": True})
