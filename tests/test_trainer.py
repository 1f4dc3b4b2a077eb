import errno
from pathlib import Path

import numpy as np
import pytest

from litedepth.config import TrainConfig
from litedepth.data import SyntheticSource
from litedepth.encoder import EncoderConfig
from litedepth.engine import Tensor, set_default_dtype
from litedepth.losses import LossConfig
from litedepth.trainer import (
    AdamW, Checkpoint, TrainingDiverged, build_models, cosine_lr, evaluate,
    load_checkpoint, save_checkpoint, train,
)


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
        loaded = Checkpoint.load(res.checkpoint_path)
        loaded.restore_into(models, opt)
        for name, p in models.named_parameters():
            np.testing.assert_array_equal(p.data, res.checkpoint.params[name])
        assert opt.step_count == 2

    def test_restore_rejects_shape_mismatch(self, tmp_path):
        set_default_dtype("f32")
        ck = Checkpoint.from_models(build_models(TINY, seed=0), None, 0, "")
        other = build_models(EncoderConfig.variant_preset("small"), seed=0)
        with pytest.raises(ValueError):
            ck.restore_into(other)


class TestTrainLoop:
    def test_fixed_seed_identical_curves(self, tmp_path):
        set_default_dtype("f32")
        src = SyntheticSource(seed=5, n_frames=5, size=(64, 32))
        a = train(toy_train_config(), TINY, src)
        b = train(toy_train_config(), TINY, src)
        assert [r["total"] for r in a.curve] == [r["total"] for r in b.curve]
        for name in a.checkpoint.params:
            np.testing.assert_array_equal(a.checkpoint.params[name],
                                          b.checkpoint.params[name])

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

    def test_nan_input_aborts_with_diagnostics(self, tmp_path):
        set_default_dtype("f32")
        src = SyntheticSource(seed=5, n_frames=4, size=(64, 32))
        src.sequence.frames[1][:] = np.nan
        with pytest.raises(TrainingDiverged, match="non-finite"):
            train(toy_train_config(steps=3), TINY, src, out_dir=tmp_path)
        assert any((tmp_path / "diagnostics").iterdir())

    def test_loss_decreases_on_short_run(self):
        # a smoke check that optimization makes progress at all; the real
        # convergence bar lives in the acceptance suite
        set_default_dtype("f32")
        src = SyntheticSource(seed=5, n_frames=8, size=(64, 32))
        res = train(toy_train_config(steps=40, batch_size=4, lr0=1e-3), TINY, src)
        first = np.mean([r["total"] for r in res.curve[:5]])
        last = np.mean([r["total"] for r in res.curve[-5:]])
        assert last < first


class TestEvaluate:
    def test_passthrough_stub_gives_perfect_row(self):
        src = SyntheticSource(seed=2, n_frames=4, size=(64, 32))
        mean, rows = evaluate(None, src, predict=lambda trip: trip.gt_depth.copy())
        assert mean.abs_rel == 0.0 and mean.rmse == 0.0
        assert mean.delta1 == 1.0 and mean.delta3 == 1.0
        assert len(rows) == len(src)

    def test_checkpoint_roundtrip_evaluates_identically(self, tmp_path):
        set_default_dtype("f32")
        src = SyntheticSource(seed=2, n_frames=4, size=(64, 32))
        res = train(toy_train_config(steps=2), TINY, src, out_dir=tmp_path)
        models = build_models(TINY, seed=0)
        res.checkpoint.restore_into(models)
        direct, _ = evaluate(models, src)

        models2 = build_models(TINY, seed=77)
        Checkpoint.load(res.checkpoint_path).restore_into(models2)
        reloaded, _ = evaluate(models2, src)
        assert direct == reloaded

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
