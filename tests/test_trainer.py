import errno
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

from litedepth import trainer
from litedepth.config import TrainConfig
from litedepth.data import (DirectorySource, SyntheticSource, Triplet, augment,
                            generate_synthetic_sequence, resize_depth, save_dataset)
from litedepth.encoder import DepthEncoder, EncoderConfig
from litedepth.engine import Tensor, default_dtype, set_default_dtype, using_dtype
from litedepth.engine.functional import _BLOCK
from litedepth.losses import LossConfig
from litedepth.pngio import read_f32
from litedepth.warp import CameraIntrinsics
from litedepth.trainer import (
    AdamW, TrainingDiverged, build_models, checkpoint_entries, cosine_lr, evaluate,
    load_checkpoint, predict_depth, restore_checkpoint, save_checkpoint, train,
)
from litedepth.metrics import depth_metrics


def toy_train_config(**kw):
    base = dict(batch_size=2, steps=3, lr0=5e-4, seed=1, augment=False,
                precision="f32")
    base.update(kw)
    return TrainConfig(**base)


TINY = EncoderConfig.variant_preset("tiny")


class TestAdamW:
    def test_zero_grads_no_decay_leaves_params(self):
        p = Tensor(np.array([1.0, -2.0]), requires_grad=True)
        opt = AdamW({"p": p}, weight_decay=0.0)
        before = p.data.copy()
        opt.step(lr=0.1)
        np.testing.assert_array_equal(p.data, before)

    def test_first_step_magnitude_is_lr(self):
        # closed form: m_hat = g, v_hat = g^2, so |update| = lr * |g|/(|g|+eps)
        for g in (0.5, -3.0, 200.0):
            p = Tensor(np.array([1.0]), requires_grad=True)
            p.grad = np.array([g])
            opt = AdamW({"p": p}, weight_decay=0.0)
            opt.step(lr=1e-3)
            assert abs(abs(1.0 - p.data[0]) - 1e-3) < 1e-9

    def test_decoupled_decay_shrinks_multiplicatively(self):
        p = Tensor(np.array([4.0, -8.0]), requires_grad=True)
        opt = AdamW({"p": p}, weight_decay=1e-2)
        before = p.data.copy()
        opt.step(lr=0.1)     # grads are zero: pure decay
        np.testing.assert_allclose(p.data, before * (1 - 0.1 * 1e-2), rtol=1e-12)

    def test_zero_lr_is_bit_identical(self, rng):
        p = Tensor(rng.standard_normal(5), requires_grad=True)
        p.grad = rng.standard_normal(5)
        before = p.data.copy()
        AdamW({"p": p}).step(lr=0.0)
        np.testing.assert_array_equal(p.data, before)

    def test_parameter_order_never_matters(self, rng):
        def run(order):
            params = {name: Tensor(np.full(3, float(i + 1)), requires_grad=True)
                      for i, name in enumerate("abc")}
            for i, p in enumerate(params.values()):
                p.grad = np.full(3, 0.1 * (i + 1))
            opt = AdamW({k: params[k] for k in order}, weight_decay=1e-2)
            for _ in range(3):
                opt.step(lr=1e-3)
            return {k: p.data.copy() for k, p in params.items()}

        a = run("abc")
        b = run("cba")
        for k in "abc":
            np.testing.assert_array_equal(a[k], b[k])

    def test_holds_only_the_two_moments(self, rng):
        # the two largest span several blocks and end in a partial one
        shapes = {"big": ((512, 160), np.float64), "f32": ((300, 500), np.float32),
                  "small": ((40, 30), np.float64)}
        params = {k: Tensor(rng.standard_normal(shape).astype(dt), requires_grad=True)
                  for k, (shape, dt) in shapes.items()}
        for p in params.values():
            p.grad = rng.standard_normal(p.shape).astype(p.dtype)
        alone = {k: Tensor(p.data.copy(), requires_grad=True) for k, p in params.items()}
        for k, p in alone.items():
            p.grad = params[k].grad
        sizes = [p.data.nbytes for p in params.values()]
        block = _BLOCK * np.dtype(np.float64).itemsize   # the widest block's scratch
        assert sorted(p.data.size for p in params.values())[1] > 2 * _BLOCK
        tracemalloc.start()
        try:
            opt = AdamW(params)
            held, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            opt.step(lr=1e-3)
            step_peak = tracemalloc.get_traced_memory()[1] - held
        finally:
            tracemalloc.stop()
        # two moments per parameter and nothing else
        assert 0 <= held - 2 * sum(sizes) < 16384
        # no full-size temporaries: one block-sized scratch at a time
        assert step_peak < block + 16384 < sorted(sizes)[1]
        for k, p in alone.items():
            AdamW({k: p}).step(lr=1e-3)
            np.testing.assert_array_equal(p.data, params[k].data)

    def test_a_strided_parameter_updates_like_a_contiguous_one(self, rng):
        # a transposed parameter under a C-ordered gradient, over several blocks
        data = rng.standard_normal((300, 700)).astype(np.float32).T
        strided = Tensor(data, requires_grad=True)
        contiguous = Tensor(np.ascontiguousarray(data), requires_grad=True)
        assert not strided.data.flags.c_contiguous and data.size > 2 * _BLOCK
        opts = [AdamW({"p": p}) for p in (strided, contiguous)]
        for lr in (1e-2, 5e-3):
            strided.grad = contiguous.grad = rng.standard_normal(data.shape).astype(np.float32)
            for opt in opts:
                opt.step(lr)
        np.testing.assert_array_equal(strided.data, contiguous.data)
        np.testing.assert_array_equal(opts[0].v["p"], opts[1].v["p"])

    def test_chunks_give_the_whole_array_update(self, rng):
        # the same in-place terms over whole arrays, bit for bit
        b1, b2, eps, wd = trainer.ADAM_BETA1, trainer.ADAM_BETA2, trainer.ADAM_EPS, 1e-2
        p = Tensor(rng.standard_normal((700, 300)).astype(np.float32), requires_grad=True)
        assert p.data.size > 2 * _BLOCK
        opt = AdamW({"p": p}, weight_decay=wd)
        ref, m, v = p.data.copy(), np.zeros_like(p.data), np.zeros_like(p.data)
        for t, lr in enumerate((1e-2, 5e-3, 2e-3), start=1):
            p.grad = g = rng.standard_normal(p.shape).astype(np.float32)
            m *= b1
            m += g * np.float32(1 - b1)
            v *= b2
            v += g * g * np.float32(1 - b2)
            ref -= ref * np.float32(lr * wd)
            denom = np.sqrt(v / np.float32(1 - b2 ** t)) + np.float32(eps)
            ref -= m / denom * np.float32(lr / (1 - b1 ** t))
            opt.step(lr)
            for got, want in ((p.data, ref), (opt.m["p"], m), (opt.v["p"], v)):
                np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("dtype,rtol", [(np.float64, 1e-12), (np.float32, 1e-6)])
    def test_matches_float64_transcription_of_the_formula(self, dtype, rtol, rng):
        # p <- p - lr * m_hat / (sqrt(v_hat) + eps) - lr * wd * p, term by term
        b1, b2, eps, wd = trainer.ADAM_BETA1, trainer.ADAM_BETA2, trainer.ADAM_EPS, 0.05
        assert (b1, b2, eps) == (0.9, 0.999, 1e-8)
        shape = (4, 6)
        p = Tensor((rng.uniform(0.5, 2.0, shape) * rng.choice([-1, 1], shape)).astype(dtype),
                   requires_grad=True)
        opt = AdamW({"p": p}, weight_decay=wd)
        ref_p = p.data.astype(np.float64)
        m, v = np.zeros(shape), np.zeros(shape)
        for step, lr in enumerate((1e-2, 5e-3, 2e-3), start=1):
            p.grad = rng.standard_normal(shape).astype(dtype)
            g = p.grad.astype(np.float64)
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            m_hat, v_hat = m / (1 - b1 ** step), v / (1 - b2 ** step)
            ref_p = ref_p - lr * m_hat / (np.sqrt(v_hat) + eps) - lr * wd * ref_p
            opt.step(lr)
            assert p.data.dtype == dtype
            np.testing.assert_allclose(p.data, ref_p, rtol=rtol, atol=0)


class TestCosine:
    def test_start_is_lr0(self):
        assert cosine_lr(0, 100, 5e-4) == pytest.approx(5e-4)

    def test_end_is_lr_min(self):
        assert cosine_lr(100, 100, 5e-4, 1e-6) == pytest.approx(1e-6)

    def test_midpoint(self):
        assert cosine_lr(50, 100, 5e-4, 1e-6) == pytest.approx((5e-4 + 1e-6) / 2)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            cosine_lr(101, 100, 5e-4)


class TestCheckpointFormat:
    def test_roundtrip_bit_identical(self, tmp_path, rng):
        entries = {
            "param.w": rng.standard_normal((3, 4)).astype(np.float32),
            "param.b": rng.standard_normal(7),
            "opt.step": np.array([42], dtype=np.int64),
            "meta.config": b"encoder.variant = tiny\n",
        }
        p1, p2 = tmp_path / "a.lmck", tmp_path / "b.lmck"
        save_checkpoint(p1, entries)
        loaded = load_checkpoint(p1)
        for k, v in entries.items():
            want = np.frombuffer(v, dtype="u1") if isinstance(v, bytes) else v
            np.testing.assert_array_equal(loaded[k], want)
        save_checkpoint(p2, loaded)
        assert p1.read_bytes() == p2.read_bytes()

    def test_magic_enforced(self, tmp_path):
        p = tmp_path / "bad.lmck"
        p.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(ValueError, match="not a checkpoint"):
            load_checkpoint(p)

    @staticmethod
    def small_checkpoint(path):
        save_checkpoint(path, {"a": np.arange(3, dtype=np.float32), "b": b"xy"})
        return path.read_bytes()

    def test_every_truncation_names_the_path(self, tmp_path):
        blob = self.small_checkpoint(tmp_path / "good.lmck")
        p = tmp_path / "cut.lmck"
        for end in range(len(blob)):
            p.write_bytes(blob[:end])
            with pytest.raises(ValueError, match="cut.lmck"):
                load_checkpoint(p)

    def test_corrupt_entries_name_the_path(self, tmp_path):
        blob = self.small_checkpoint(tmp_path / "good.lmck")
        # entry "a" starts at byte 12: name length u32, name, tag u8, rank u8, dim u32
        cases = {
            "unknown dtype tag": blob[:17] + b"\x09" + blob[18:],
            "not UTF-8": blob[:16] + b"\xff" + blob[17:],
            "truncated": blob[:19] + b"\xff\xff\xff\xff" + blob[23:],   # forged dim
            "trailing bytes": blob + b"\x00",
        }
        p = tmp_path / "bad.lmck"
        for message, data in cases.items():
            p.write_bytes(data)
            with pytest.raises(ValueError, match=f"bad.lmck.*{message}"):
                load_checkpoint(p)

    def test_failed_write_keeps_the_old_file(self, tmp_path, monkeypatch):
        p = tmp_path / "final.lmck"
        old = self.small_checkpoint(p)
        real_open = Path.open

        class FullDisk:
            """A file that takes half of the first write, then fails."""

            def __init__(self, f):
                self.f = f

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.f.close()

            def __getattr__(self, name):
                return getattr(self.f, name)

            def write(self, data):
                data = bytes(data)
                self.f.write(data[:len(data) // 2])
                raise OSError(errno.ENOSPC, "No space left on device")

        def open_on_full_disk(self, mode="r", *args, **kwargs):
            f = real_open(self, mode, *args, **kwargs)
            return FullDisk(f) if "w" in mode else f

        monkeypatch.setattr(Path, "open", open_on_full_disk)
        with pytest.raises(OSError, match="No space"):
            save_checkpoint(p, {"a": np.zeros(4)})
        monkeypatch.undo()
        assert p.read_bytes() == old
        assert [f.name for f in tmp_path.iterdir()] == ["final.lmck"]

    def test_model_checkpoint_restores_exactly(self, tmp_path):
        set_default_dtype("f32")
        src = SyntheticSource(seed=3, n_frames=4, size=(64, 32))
        res = train(toy_train_config(steps=2), TINY, src, out_dir=tmp_path)
        models = build_models(TINY, seed=99)     # different init
        opt = AdamW(dict(models.named_parameters()))
        restore_checkpoint(load_checkpoint(res.checkpoint_path), models, opt)
        trained = dict(res.models.named_parameters())
        for name, p in models.named_parameters():
            np.testing.assert_array_equal(p.data, trained[name].data)
        assert opt.step_count == 2

    def test_entries_are_named_after_the_model(self):
        set_default_dtype("f32")
        models = build_models(TINY, seed=0)
        entries = checkpoint_entries(models, AdamW(dict(models.named_parameters())), 3, "x = 1")
        params = [k for k, _ in models.named_parameters()]
        assert sorted(entries) == sorted(
            [f"param.{k}" for k in params] + [f"buf.{k}" for k, _ in models.named_buffers()]
            + [f"opt.m.{k}" for k in params] + [f"opt.v.{k}" for k in params]
            + ["opt.step", "meta.epoch", "meta.config"])
        assert entries["meta.epoch"].tolist() == [3]
        assert entries["meta.config"] == b"x = 1"

    def test_entries_are_block_level(self):
        # each layer is named by the block list that holds it, with no
        # wrapper-module level between; a checkpoint written with other
        # names is refused, so this format changes only on purpose
        models = build_models(TINY, seed=0)
        params = [k for k, _ in models.named_parameters()]
        buffers = [k for k, _ in models.named_buffers()]
        for name in ("encoder.stem.0.conv.weight", "encoder.down.2.conv.weight",
                     "pose.encoder.4.norm.shift", "decoder.pre.0.weight",
                     "decoder.heads.2.bias"):
            assert name in params
        for name in params + buffers:
            assert not any(level in name for level in (".block.", ".blocks.", ".conv1.conv."))
        assert (len(params), len(buffers)) == (179, 46)

    def test_restore_reproduces_model_and_optimizer_bit_for_bit(self, tmp_path, rng):
        set_default_dtype("f32")
        models = build_models(TINY, seed=0)
        opt = AdamW(dict(models.named_parameters()))
        for p in models.parameters():
            p.grad = rng.standard_normal(p.data.shape).astype(p.data.dtype)
        opt.step(1e-3)
        opt.step(1e-3)
        for _, b in models.named_buffers():
            b[...] = rng.standard_normal(b.shape)
        save_checkpoint(tmp_path / "a.lmck", checkpoint_entries(models, opt, 0, ""))

        other = build_models(TINY, seed=5)
        fresh = AdamW(dict(other.named_parameters()))
        restore_checkpoint(load_checkpoint(tmp_path / "a.lmck"), other, fresh)
        for (name, p), (_, q) in zip(models.named_parameters(), other.named_parameters()):
            np.testing.assert_array_equal(q.data, p.data)
            np.testing.assert_array_equal(fresh.m[name], opt.m[name])
            np.testing.assert_array_equal(fresh.v[name], opt.v[name])
        for (_, a), (_, b) in zip(models.named_buffers(), other.named_buffers()):
            np.testing.assert_array_equal(b, a)
        assert fresh.step_count == opt.step_count == 2

    def test_restore_rejects_shape_mismatch(self, tmp_path):
        set_default_dtype("f32")
        entries = checkpoint_entries(build_models(TINY, seed=0), None, 0, "")
        other = build_models(EncoderConfig.variant_preset("small"), seed=0)
        with pytest.raises(ValueError):
            restore_checkpoint(entries, other)

    def test_restore_rejects_missing_buffers(self):
        set_default_dtype("f32")
        entries = checkpoint_entries(build_models(TINY, seed=0), None, 0, "")
        entries = {k: v for k, v in entries.items() if not k.startswith("buf.")}
        with pytest.raises(ValueError, match="run.lmck: checkpoint is missing buf\\."):
            restore_checkpoint(entries, build_models(TINY, seed=1), path="run.lmck")

    def test_restore_rejects_wrong_shaped_buffer(self):
        set_default_dtype("f32")
        entries = checkpoint_entries(build_models(TINY, seed=0), None, 0, "")
        name = next(k for k in entries if k.startswith("buf."))
        # a length-1 array would broadcast into the buffer under b[...] = saved
        entries[name] = np.ones(1, dtype=np.float32)
        with pytest.raises(ValueError, match=f"{name}: checkpoint shape"):
            restore_checkpoint(entries, build_models(TINY, seed=1))

    def test_restore_rejects_dtype_mismatch(self, tmp_path):
        # an f64 checkpoint is refused by f32 models, not rounded into them
        with using_dtype("f64"):
            save_checkpoint(tmp_path / "f64.lmck",
                            checkpoint_entries(build_models(TINY, seed=0), None, 0, ""))
        with using_dtype("f32"):
            models = build_models(TINY, seed=1)
        before = [p.data.copy() for p in models.parameters()]
        with pytest.raises(ValueError, match=r"f64\.lmck: param\.\S+: checkpoint dtype "
                                             r"float64 vs model float32"):
            restore_checkpoint(load_checkpoint(tmp_path / "f64.lmck"), models,
                               path=tmp_path / "f64.lmck")
        for p, old in zip(models.parameters(), before):
            np.testing.assert_array_equal(p.data, old)


class TestTrainLoop:
    def test_fixed_seed_identical_curves(self, tmp_path):
        set_default_dtype("f32")
        src = SyntheticSource(seed=5, n_frames=5, size=(64, 32))
        a = train(toy_train_config(), TINY, src)
        b = train(toy_train_config(), TINY, src)
        assert [r["total"] for r in a.curve] == [r["total"] for r in b.curve]
        for (_, p), (_, q) in zip(a.models.named_parameters(), b.models.named_parameters()):
            np.testing.assert_array_equal(p.data, q.data)

    def test_augmented_runs_are_also_deterministic(self):
        set_default_dtype("f32")
        src = SyntheticSource(seed=5, n_frames=5, size=(64, 32))
        a = train(toy_train_config(augment=True), TINY, src)
        b = train(toy_train_config(augment=True), TINY, src)
        assert [r["total"] for r in a.curve] == [r["total"] for r in b.curve]

    def test_curve_csv_written(self, tmp_path):
        set_default_dtype("f32")
        src = SyntheticSource(seed=5, n_frames=4, size=(64, 32))
        res = train(toy_train_config(steps=2), TINY, src, out_dir=tmp_path)
        lines = res.curve_path.read_text().splitlines()
        assert lines[0] == "step,lr,total,scale0,scale1,scale2,smoothness"
        assert len(lines) == 3

    def test_periodic_checkpoints_restore(self, tmp_path):
        set_default_dtype("f32")
        src = SyntheticSource(seed=5, n_frames=4, size=(64, 32))
        train(toy_train_config(steps=3, checkpoint_every=2), TINY, src, out_dir=tmp_path)
        ckpt_dir = tmp_path / "checkpoints"
        assert sorted(f.name for f in ckpt_dir.iterdir()) == ["final.lmck", "step0000002.lmck"]
        mid = load_checkpoint(ckpt_dir / "step0000002.lmck")
        final = load_checkpoint(ckpt_dir / "final.lmck")
        params = [k for k in final if k.startswith("param.")]
        assert any(not np.array_equal(mid[k], final[k]) for k in params)
        for ck, steps in ((mid, 2), (final, 3)):
            models = build_models(TINY, seed=99)
            opt = AdamW(dict(models.named_parameters()))
            restore_checkpoint(ck, models, opt)
            for name, p in models.named_parameters():
                np.testing.assert_array_equal(p.data, ck[f"param.{name}"])
            assert opt.step_count == steps
            assert ck["meta.epoch"].tolist() == [steps]   # one step per epoch: 2 triplets, batch 2

    @pytest.mark.parametrize("kw,epoch", [
        (dict(steps=1), 0), (dict(steps=2), 1), (dict(steps=3), 1), (dict(steps=4), 2),
        (dict(steps=0, epochs=2), 2),
    ], ids=["steps1", "steps2", "steps3", "steps4", "epochs2"])
    def test_checkpoint_epoch_counts_completed_epochs(self, kw, epoch, tmp_path):
        set_default_dtype("f32")
        src = SyntheticSource(seed=5, n_frames=6, size=(64, 32))   # 4 triplets: 2 steps an epoch
        res = train(toy_train_config(**kw), TINY, src, out_dir=tmp_path)
        assert len(res.curve) == (kw["steps"] or 4)
        assert load_checkpoint(res.checkpoint_path)["meta.epoch"].tolist() == [epoch]

    def test_mixed_flip_batch_passes_each_sample_its_camera(self, monkeypatch):
        # off-centre cx: a flip moves it from 36 to 64 - 1 - 36 = 27
        set_default_dtype("f32")
        intr = CameraIntrinsics(fx=57.6, fy=57.6, cx=36.0, cy=15.5, width=64, height=32)
        src = SyntheticSource(seed=4, n_frames=4, size=(64, 32))
        src.sequence = generate_synthetic_sequence(4, 4, (64, 32), intrinsics=intr)
        seeds = iter([0, 2])    # augment's first draw flips at seed 2, not at seed 0
        monkeypatch.setattr(trainer, "augment", lambda t, seed: augment(t, next(seeds)))
        cameras, total_loss = [], trainer.total_loss

        def record(disps, target, sources, transforms, cams, config):
            cameras.append(cams)
            return total_loss(disps, target, sources, transforms, cams, config)

        monkeypatch.setattr(trainer, "total_loss", record)
        train(toy_train_config(steps=1, augment=True), TINY, src)
        (cams,) = cameras
        cams = [cams] * 2 if isinstance(cams, CameraIntrinsics) else list(cams)
        assert [c.cx for c in cams] == [36.0, 27.0]

    DUMPED = ["step0_scale0_disp.f32", "step0_scale1_disp.f32", "step0_scale2_disp.f32"]

    def test_nan_input_aborts_with_diagnostics(self, tmp_path):
        set_default_dtype("f32")
        src = SyntheticSource(seed=5, n_frames=4, size=(64, 32))
        src.sequence.frames[1][:] = np.nan
        with pytest.raises(TrainingDiverged, match="non-finite network output at step 0"):
            train(toy_train_config(steps=3), TINY, src, out_dir=tmp_path)
        assert sorted(f.name for f in (tmp_path / "diagnostics").iterdir()) == self.DUMPED

    def test_all_zero_disparity_aborts_with_diagnostics(self, tmp_path, monkeypatch):
        # the sigmoid of -1e4 rounds to exactly 0, so the disparity has no
        # mean for the smoothness term to normalize by
        set_default_dtype("f32")
        build = trainer.build_models

        def saturated(*args, **kwargs):
            models = build(*args, **kwargs)
            for head in models.decoder.heads:
                head.bias.data[...] = -1e4
            return models

        monkeypatch.setattr(trainer, "build_models", saturated)
        src = SyntheticSource(seed=5, n_frames=4, size=(64, 32))
        with pytest.raises(TrainingDiverged, match="all-zero disparity at step 0"):
            train(toy_train_config(steps=2), TINY, src, out_dir=tmp_path)
        assert sorted(f.name for f in (tmp_path / "diagnostics").iterdir()) == self.DUMPED
        disp = read_f32(tmp_path / "diagnostics" / "step0_scale0_disp.f32")
        assert disp.shape == (1, 32, 64) and not disp.any()

    def test_nan_loss_aborts_with_diagnostics(self, tmp_path, monkeypatch):
        set_default_dtype("f32")
        total_loss = trainer.total_loss

        def nan_loss(*args, **kwargs):
            loss, diag = total_loss(*args, **kwargs)
            return loss * float("nan"), diag

        monkeypatch.setattr(trainer, "total_loss", nan_loss)
        src = SyntheticSource(seed=5, n_frames=4, size=(64, 32))
        with pytest.raises(TrainingDiverged, match="non-finite loss at step 0"):
            train(toy_train_config(steps=2), TINY, src, out_dir=tmp_path)
        assert sorted(f.name for f in (tmp_path / "diagnostics").iterdir()) == self.DUMPED

    def test_curve_keeps_the_steps_before_a_divergence(self, tmp_path):
        set_default_dtype("f32")

        class Source(SyntheticSource):
            """Its second batch of two triplets is NaN."""
            served = 0

            def triplet(self, i):
                t = super().triplet(i)
                self.served += 1
                if self.served > 2:
                    t = Triplet(tuple(np.full_like(f, np.nan) for f in t.frames), t.intrinsics)
                return t

        with pytest.raises(TrainingDiverged, match="non-finite network output at step 1"):
            train(toy_train_config(steps=3), TINY, Source(seed=5, n_frames=6, size=(64, 32)),
                  out_dir=tmp_path)
        lines = (tmp_path / "curves.csv").read_text().splitlines()
        assert lines[0] == "step,lr,total,scale0,scale1,scale2,smoothness"
        assert len(lines) == 2 and lines[1].startswith("0,")

    def test_nothing_from_a_step_outlives_it(self, monkeypatch):
        # step 0's disparities, loss and whatever total_loss returned are
        # freed before step 1's encoder runs
        set_default_dtype("f32")
        refs, alive_at_encoder = [], []
        total_loss, encode = trainer.total_loss, DepthEncoder.__call__

        def arrays(obj):
            if isinstance(obj, np.ndarray):
                yield obj
            elif isinstance(obj, dict):
                for v in obj.values():
                    yield from arrays(v)
            elif isinstance(obj, (list, tuple)):
                for v in obj:
                    yield from arrays(v)

        def record_loss(disps, *args):
            loss, diag = total_loss(disps, *args)
            if not refs:
                refs.extend(weakref.ref(x) for x in
                            (*(d.data for d in disps), loss, *arrays(diag)))
            return loss, diag

        def record_encoder(self, image):
            alive_at_encoder.append(sum(r() is not None for r in refs))
            return encode(self, image)

        monkeypatch.setattr(trainer, "total_loss", record_loss)
        monkeypatch.setattr(DepthEncoder, "__call__", record_encoder)
        train(toy_train_config(steps=2), TINY, SyntheticSource(seed=5, n_frames=4, size=(64, 32)))
        assert alive_at_encoder == [0, 0]
        assert len(refs) == 4           # the disparities and the loss: no arrays in diag

    def test_grads_cleared_after_the_data_and_before_the_forward(self, monkeypatch):
        # the last step's gradients stay readable while the next batch loads,
        # but no parameter holds one while the next graph is built
        set_default_dtype("f32")
        built, has_grads = [], {"triplet": [], "total_loss": []}
        build, total_loss = trainer.build_models, trainer.total_loss

        def record(where):
            has_grads[where].append(any(p.grad is not None for p in built[0].parameters()))

        class Source(SyntheticSource):
            def triplet(self, i):
                record("triplet")
                return super().triplet(i)

        monkeypatch.setattr(trainer, "build_models",
                            lambda *a, **k: built.append(build(*a, **k)) or built[0])
        monkeypatch.setattr(trainer, "total_loss",
                            lambda *a, **k: record("total_loss") or total_loss(*a, **k))
        train(toy_train_config(steps=2), TINY, Source(seed=5, n_frames=6, size=(64, 32)))
        assert has_grads == {"triplet": [False, False, True, True],
                             "total_loss": [False, False]}

    def test_f32_step_gives_f32_grads(self, monkeypatch):
        set_default_dtype("f32")
        dtypes = {}
        adam_step = AdamW.step

        def record(opt, lr):
            dtypes.update({k: p.grad.dtype for k, p in opt.params.items()})
            adam_step(opt, lr)

        monkeypatch.setattr(AdamW, "step", record)
        train(toy_train_config(steps=1), TINY, SyntheticSource(seed=5, n_frames=4, size=(64, 32)))
        assert dtypes and set(dtypes.values()) == {np.dtype(np.float32)}

    @pytest.mark.parametrize("precision", ["f32", "f64"])
    def test_recompute_nodes_match_plain_graphs_bit_for_bit(self, precision, monkeypatch,
                                                            plain_graph, assert_same_bits):
        # each warped branch of the objective, each conv block of the encoders
        # and each attention block's two halves are recompute nodes; run as
        # plain graphs instead, whole steps give the same losses, parameter
        # gradients and batch-norm buffers, bit for bit
        runs = []
        adam_step, total_loss = AdamW.step, trainer.total_loss
        for plain in (False, True):
            seen = []

            def record_grads(opt, lr):
                seen.extend(p.grad.copy() for p in opt.params.values())
                adam_step(opt, lr)

            def record_loss(*args, **kwargs):
                loss, diag = total_loss(*args, **kwargs)
                seen.append(loss.data.copy())
                return loss, diag

            with monkeypatch.context() as patch:
                if plain:
                    plain_graph(patch)
                patch.setattr(AdamW, "step", record_grads)
                patch.setattr(trainer, "total_loss", record_loss)
                res = train(toy_train_config(steps=2, precision=precision), TINY,
                            SyntheticSource(seed=5, n_frames=4, size=(64, 32)))
            runs.append(seen + [b for _, b in res.models.named_buffers()])
        assert len(runs[0]) == len(runs[1]) > 4
        for node, direct in zip(*runs):
            assert_same_bits(node, direct)

    def test_loss_decreases_on_short_run(self):
        # a smoke check that optimization makes progress at all. No test holds
        # a convergence bar: criterion 9, that the toy run learns depth, is
        # run by hand (README), and the loss can fall while depth collapses
        set_default_dtype("f32")
        src = SyntheticSource(seed=5, n_frames=8, size=(64, 32))
        res = train(toy_train_config(steps=40, batch_size=4, lr0=1e-3), TINY, src)
        first = np.mean([r["total"] for r in res.curve[:5]])
        last = np.mean([r["total"] for r in res.curve[-5:]])
        assert last < first


class TestPrecision:
    """The models' parameter dtype is the precision of what runs with them,
    and no entry point changes the caller's default dtype."""

    @pytest.mark.parametrize("precision", ["f32", "f64"])
    def test_depth_does_not_depend_on_the_caller_default(self, precision):
        with using_dtype(precision):
            models = build_models(TINY, seed=0).eval()
        frame = SyntheticSource(seed=2, n_frames=3, size=(64, 32)).triplet(0).frames[1]
        depths = []
        for default in ("f32", "f64"):
            with using_dtype(default):
                before = default_dtype()
                depths.append(predict_depth(models, frame))
                assert default_dtype() == before
        assert depths[0].dtype == depths[1].dtype
        assert depths[0].tobytes() == depths[1].tobytes()

    @pytest.mark.parametrize("default", ["f32", "f64"])
    def test_train_leaves_the_caller_default(self, default):
        other = "f64" if default == "f32" else "f32"
        src = SyntheticSource(seed=5, n_frames=4, size=(64, 32))
        with using_dtype(default):
            before = default_dtype()
            res = train(toy_train_config(steps=1, precision=other), TINY, src)
            assert default_dtype() == before
        assert next(res.models.parameters()).dtype != before

    @pytest.mark.parametrize("default", ["f32", "f64"])
    def test_diverged_train_leaves_the_caller_default(self, default):
        other = "f64" if default == "f32" else "f32"
        src = SyntheticSource(seed=5, n_frames=4, size=(64, 32))
        src.sequence.frames[1][:] = np.nan
        with using_dtype(default):
            before = default_dtype()
            with pytest.raises(TrainingDiverged):
                train(toy_train_config(steps=1, precision=other), TINY, src)
            assert default_dtype() == before


def _modes(module):
    """The training flag of a module and of every module under it."""
    yield module.training
    for _, child in module._children():
        yield from _modes(child)


class TestEvaluate:
    def test_depth_is_the_eval_mode_depth_in_either_mode(self):
        # batch norm normalizes with the running statistics, not with the
        # one frame's batch statistics, updates none of them, and each
        # module is left in the mode it came in
        models = build_models(TINY, seed=0)
        rng = np.random.default_rng(1)
        for _, b in models.named_buffers():
            b[...] = rng.uniform(0.5, 1.5, b.shape)
        frame = SyntheticSource(seed=2, n_frames=3, size=(64, 32)).triplet(0).frames[1]
        depths = []
        for mode in (True, False):
            models.train(mode)
            before = [b.copy() for _, b in models.named_buffers()]
            depths.append(predict_depth(models, frame))
            assert set(_modes(models)) == {mode}
            for (name, b), old in zip(models.named_buffers(), before):
                assert b.tobytes() == old.tobytes(), name
        assert depths[0].tobytes() == depths[1].tobytes()

    def test_source_without_triplets_is_refused(self):
        # two frames make no (previous, target, next) triplet; train refuses
        # the same source with the same message
        src = SyntheticSource(seed=0, n_frames=2, size=(64, 32))
        assert len(src) == 0
        with pytest.raises(ValueError, match="data source has no triplets"):
            evaluate(build_models(TINY), src)

    def test_passthrough_stub_gives_perfect_row(self, monkeypatch):
        src = SyntheticSource(seed=2, n_frames=4, size=(64, 32))
        seq = src.sequence

        def gt_depth(models, frame, loss_config):
            (t,) = [t for t in range(len(seq)) if np.array_equal(seq.frames[t], frame)]
            return seq.depths[t].copy()

        monkeypatch.setattr(trainer, "predict_depth", gt_depth)
        mean, rows = evaluate(build_models(TINY), src)
        assert mean.abs_rel == 0.0 and mean.rmse == 0.0
        assert mean.delta1 == 1.0 and mean.delta3 == 1.0
        assert len(rows) == len(src)

    def test_checkpoint_roundtrip_evaluates_identically(self, tmp_path):
        set_default_dtype("f32")
        src = SyntheticSource(seed=2, n_frames=4, size=(64, 32))
        res = train(toy_train_config(steps=2), TINY, src, out_dir=tmp_path)
        direct, _ = evaluate(res.models, src)

        models2 = build_models(TINY, seed=77)
        restore_checkpoint(load_checkpoint(res.checkpoint_path), models2)
        reloaded, _ = evaluate(models2, src)
        assert direct == reloaded

    def test_metrics_compare_at_the_ground_truth_resolution(self, tmp_path, monkeypatch):
        # ground truth stored at 128x64, frames read at 64x32: the predicted
        # inverse depth is resized up to the ground truth and inverted back
        save_dataset(generate_synthetic_sequence(3, 3, (128, 64)), tmp_path)
        src = DirectorySource(tmp_path, size=(64, 32))
        models = build_models(TINY, seed=0)
        seen = []
        monkeypatch.setattr(trainer, "depth_metrics",
                            lambda pred, gt, **kw: seen.append((pred, gt))
                            or depth_metrics(pred, gt, **kw))
        evaluate(models, src)
        ((pred, gt),) = seen
        assert pred.shape == gt.shape == (64, 128)
        small = predict_depth(models, src.triplet(0).frames[1])
        np.testing.assert_array_equal(pred, resize_depth(small, (64, 128)))

    def test_only_the_scored_frame_is_held_through_the_forward(self, monkeypatch):
        # each triplet is fresh arrays that nothing else holds: when the
        # forward runs, the two neighbours are already freed and the frame
        # it gets is the target; the rows are those of scoring the targets
        seq = generate_synthetic_sequence(4, 5, (64, 32))
        refs = []

        class Fresh:
            def __len__(self):
                return len(seq) - 2

            def triplet(self, i):
                frames = tuple(seq.frames[t].copy() for t in (i, i + 1, i + 2))
                refs.append([weakref.ref(f) for f in frames])
                return Triplet(frames, seq.intrinsics, gt_depth=seq.depths[i + 1].copy())

        def checked(models, frame, loss_config=None):
            previous, target, following = refs[-1]
            assert previous() is None and following() is None
            assert target() is frame
            return predict_depth(models, frame, loss_config)

        models = build_models(TINY, seed=0)
        monkeypatch.setattr(trainer, "predict_depth", checked)
        _, rows = evaluate(models, Fresh())
        assert len(refs) == len(rows) == 3
        assert rows == [depth_metrics(predict_depth(models, seq.frames[t]), seq.depths[t])
                        for t in (1, 2, 3)]

    def test_missing_gt_rejected(self):
        src = SyntheticSource(seed=2, n_frames=4, size=(64, 32))

        class NoGt:
            def __len__(self):
                return 1

            def triplet(self, i):
                t = src.triplet(i)
                t.gt_depth = None
                return t

        models = build_models(TINY, seed=0)
        with pytest.raises(ValueError, match="ground-truth"):
            evaluate(models, NoGt())
