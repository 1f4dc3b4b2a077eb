import argparse
import ast
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from litedepth.cli import _build_config, _build_parser, _models_from_checkpoint, main
from litedepth.config import RunConfig
from litedepth.data import resize_depth, resize_frame
from litedepth.encoder import EncoderConfig
from litedepth.pngio import load_image, read_f32, read_png, write_png
from litedepth.engine import set_default_dtype
from litedepth.metrics import DEPTH_CAP, DEPTH_FLOOR
from litedepth.trainer import (build_models, checkpoint_entries, load_checkpoint,
                               predict_depth, save_checkpoint)


@pytest.fixture(autouse=True)
def _f32(request):
    set_default_dtype("f32")
    yield


def run_cli(*argv):
    return main(list(argv))


class TestConfig:
    def test_every_section_addressable(self):
        cfg = RunConfig()
        assert "encoder.variant" in cfg.keys()
        assert "train.lr0" in cfg.keys()
        assert "loss.alpha" in cfg.keys()
        assert "data.width" in cfg.keys()

    def test_keys_are_pinned(self):
        # a new knob has to be added here, where a reviewer sees it
        assert RunConfig().keys() == [
            "encoder.variant", "encoder.channels",
            "encoder.dilation_schedule", "encoder.heads", "encoder.expansion",
            "encoder.use_lgfi", "encoder.use_pooled_concat", "encoder.use_cross_stage",
            "train.batch_size", "train.epochs", "train.steps", "train.lr0",
            "train.lr_min", "train.weight_decay", "train.precision", "train.seed",
            "train.augment", "train.checkpoint_every",
            "loss.alpha", "loss.lambda_smooth", "loss.min_depth", "loss.max_depth",
            "data.width", "data.height", "data.frames", "data.scene_seed",
            "data.mover",
        ]

    def test_unknown_key_rejected(self):
        cfg = RunConfig()
        with pytest.raises(KeyError, match="unknown config key"):
            cfg.set("train.nonsense", "1")
        with pytest.raises(KeyError, match="section"):
            cfg.set("bogus.lr0", "1")

    def test_file_roundtrip(self, tmp_path):
        cfg = RunConfig()
        cfg.set("encoder.variant", "tiny")
        cfg.set("train.lr0", "0.001")
        cfg.set("loss.alpha", "0.5")
        text = cfg.to_text()
        p = tmp_path / "run.cfg"
        p.write_text(text)
        other = RunConfig()
        other.apply_file(p)
        assert other.to_text() == text

    def test_comments_and_blanks_ignored(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("# a comment\n\ntrain.lr0 = 0.002  # trailing\n")
        cfg = RunConfig()
        cfg.apply_file(p)
        assert cfg.train.lr0 == 0.002

    def test_variant_switch_rederives_schedule(self):
        cfg = RunConfig()
        cfg.set("encoder.variant", "tiny")
        assert cfg.encoder.channels == (32, 32, 64, 128)
        assert cfg.encoder.dilation_schedule[2] == [1, 2, 3, 2, 4, 6]

    def test_variant_keeps_keys_set_by_name(self):
        # in either order: the preset fills only what was not set explicitly
        ones = "1,1,1;1,1,1;1,1,1,1,1,1"
        for keys in (("encoder.dilation_schedule", "encoder.variant"),
                     ("encoder.variant", "encoder.dilation_schedule")):
            cfg = RunConfig()
            for key in keys:
                cfg.set(key, ones if key.endswith("schedule") else "tiny")
            assert cfg.encoder.dilation_schedule == ([1, 1, 1], [1, 1, 1], [1] * 6)
            assert cfg.encoder.channels == (32, 32, 64, 128)

    def test_dilation_schedule_parse(self):
        cfg = RunConfig()
        cfg.set("encoder.dilation_schedule", "1,2;1,2;1,2,5")
        cfg.encoder.validate()
        assert cfg.encoder.dilation_schedule == ([1, 2], [1, 2], [1, 2, 5])

    def test_bad_bool_rejected(self):
        cfg = RunConfig()
        with pytest.raises(ValueError, match="boolean"):
            cfg.set("encoder.use_lgfi", "maybe")


def subcommand_flags():
    """{subcommand: its long flags in declaration order}, --help left out."""
    sub = next(a for a in _build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return {name: [o for a in p._actions for o in a.option_strings
                   if o.startswith("--") and o != "--help"]
            for name, p in sub.choices.items()}


CONFIG_FLAGS = ["--config", "--set", "--seed", "--variant", "--size"]

ROOT = Path(__file__).resolve().parents[1]
WORKFLOW = ROOT / ".github" / "workflows" / "tier1.yml"


def workflow_commands():
    """{CI workflow step name: the argv of each `litedepth` shell command
    in its script}, each command joined across `\\` and cut at `||`."""
    steps = {}
    for line in map(str.strip, WORKFLOW.read_text().replace("\\\n", " ").splitlines()):
        if line.startswith("- name: "):
            name = line[len("- name: "):]
            steps[name] = []
        elif line.startswith("litedepth "):
            steps[name].append(shlex.split(line.split("||")[0]))
    return steps


class TestCliSurface:
    def test_flags_are_pinned(self):
        # each subcommand declares only the flags it reads; a new flag has
        # to be added here, where a reviewer sees it
        flags = subcommand_flags()
        assert flags == {
            "synth": ["--config", "--set", "--seed", "--size",
                      "--frames", "--mover", "--out"],
            "train": CONFIG_FLAGS + ["--data", "--steps", "--batch", "--epochs",
                                     "--frames", "--out"],
            "infer": ["--checkpoint", "--image", "--depth-cap", "--out"],
            "eval": ["--checkpoint", "--data", "--depth-cap", "--no-median-scale"],
            "bench": ["--variant", "--size"],
            "gradcheck": ["--seed"],
            "ablate": CONFIG_FLAGS + ["--data", "--steps", "--batch", "--frames", "--out"],
        }
        assert sum(map(len, flags.values())) == 39

    def test_readme_commands_parse(self):
        readme = (ROOT / "README.md").read_text()
        block = re.search(r"^## CLI\n.*?^```bash\n(.*?)^```", readme, re.S | re.M).group(1)
        commands = [shlex.split(line) for line in block.replace("\\\n", " ").splitlines()
                    if line.startswith("litedepth ")]
        assert len(commands) >= 8
        # the CI workflow's shell commands and the paper-scale step's argv list
        ci = [argv for step in workflow_commands().values() for argv in step]
        ci += [ast.literal_eval(m)
               for m in re.findall(r'\["litedepth",.*?\]', WORKFLOW.read_text(), re.S)]
        assert len(ci) == 12
        parser = _build_parser()
        for argv in commands + ci:
            args = parser.parse_args(argv[1:])     # a usage error exits 1
            assert args.command == argv[1]

    def test_workflow_runtime_steps_run(self, tmp_path, monkeypatch):
        # two steps of the CI runtime job as written, run through the console
        # script's entry point in a fresh directory, asserting what the
        # shell asserts: each exit code, and what is written
        steps = workflow_commands()
        monkeypatch.chdir(tmp_path)
        flow = steps["Console-script flow, synth to infer"]
        assert [argv[1] for argv in flow] == ["synth", "train", "eval", "infer", "ablate"]
        for argv in flow:
            assert main(argv[1:]) == 0, argv
        assert (tmp_path / "run" / "curves.csv").read_text().count("\n") == 3
        bad = steps["A bad config value is a usage error that writes nothing"]
        assert len(bad) == 2
        for argv in bad:
            assert main(argv[1:]) == 1, argv
            assert not (tmp_path / argv[argv.index("--out") + 1]).exists()


@pytest.fixture
def tiny_checkpoint(tmp_path):
    """A random-init tiny model saved with a 64x32, 3-frame config."""
    cfg = RunConfig()
    for key, value in (("encoder.variant", "tiny"), ("data.width", "64"),
                       ("data.height", "32"), ("data.frames", "3")):
        cfg.set(key, value)
    path = tmp_path / "tiny.lmck"
    save_checkpoint(path, checkpoint_entries(build_models(cfg.encoder), None, 0,
                                             cfg.to_text()))
    return path


class TestCliCommands:
    def test_usage_error_exits_one(self, capsys):
        assert run_cli("train") == 1          # missing --out
        assert "error" in capsys.readouterr().err

    def test_unknown_command_exits_one(self):
        assert run_cli("explode") == 1

    def test_help_lists_config_keys(self, capsys):
        assert run_cli("--help") == 0
        out = capsys.readouterr().out
        assert "encoder.use_lgfi" in out
        assert "train.lr0" in out
        assert "loss.alpha" in out

    def test_bench_reports_budgets(self, capsys):
        assert run_cli("bench", "--variant", "base") == 0
        out = capsys.readouterr().out
        assert "encoder params 2.84M" in out
        assert "reference 2.9M" in out
        assert "GMACs" in out

    def test_synth_writes_dataset_and_config(self, tmp_path, capsys):
        out = tmp_path / "scene"
        assert run_cli("synth", "--size", "64x32", "--frames", "3",
                       "--seed", "4", "--out", str(out)) == 0
        assert (out / "intrinsics.txt").exists()
        assert (out / "config.txt").exists()
        assert len(list((out / "frames").glob("*.png"))) == 3
        assert len(list((out / "depth").glob("*.f32"))) == 3
        cfg_text = (out / "config.txt").read_text()
        assert "data.scene_seed = 4" in cfg_text

    @pytest.mark.parametrize("argv", [["synth", "--size", "64", "--out", "d"],
                                      ["bench", "--size", "64by32"],
                                      ["train", "--size", "0x32", "--out", "d"]])
    def test_malformed_size_is_a_usage_error(self, argv, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert run_cli(*argv) == 1
        err = capsys.readouterr().err
        assert "argument --size: expected WxH" in err
        assert not (tmp_path / "d").exists()

    def test_config_file_keys_survive_variant(self, tmp_path):
        # the file's explicit schedule survives the --variant preset
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("encoder.dilation_schedule = 1,1,1;1,1,1;1,1,1,1,1,1\n"
                            "loss.alpha = 0.5\n")
        argv = ["train", "--config", str(cfg_file), "--variant", "tiny", "--out", "d"]
        cfg = _build_config(_build_parser().parse_args(argv))
        assert cfg.encoder.variant == "tiny"
        assert cfg.encoder.channels == (32, 32, 64, 128)
        assert cfg.encoder.dilation_schedule == ([1, 1, 1], [1, 1, 1], [1] * 6)
        assert cfg.loss.alpha == 0.5
        # --set still wins over both
        cfg = _build_config(_build_parser().parse_args(
            argv + ["--set", "encoder.dilation_schedule=1,2,3;1,2,3;1,1,1,2,2,2"]))
        assert cfg.encoder.dilation_schedule == ([1, 2, 3], [1, 2, 3], [1, 1, 1, 2, 2, 2])

    def test_synth_rejects_bad_size(self, tmp_path, capsys):
        assert run_cli("synth", "--size", "60x30", "--out",
                       str(tmp_path / "x")) == 1
        assert "divisible" in capsys.readouterr().err

    def test_bench_rejects_bad_size(self, capsys):
        # the frame rule is checked at parse time for every command
        assert run_cli("bench", "--size", "96x40") == 1
        err = capsys.readouterr().err
        assert "argument --size: expected WxH with both sides positive and divisible by 32" in err

    @pytest.mark.parametrize("argv", [
        ["synth", "--seed", "-2", "--out", "d"],
        ["train", "--variant", "tiny", "--size", "64x32", "--steps", "1", "--seed", "-1",
         "--out", "d"],
        ["ablate", "--size", "64x32", "--steps", "1", "--seed", "-1", "--out", "d"],
        ["gradcheck", "--seed", "-1"],
    ], ids=["synth", "train", "ablate", "gradcheck"])
    def test_negative_seed_is_a_usage_error(self, argv, tmp_path, monkeypatch, capsys):
        # synth used to name train.seed, a key it never reads
        monkeypatch.chdir(tmp_path)
        assert run_cli(*argv) == 1
        assert "argument --seed: expected a non-negative integer, got '-" in (
            capsys.readouterr().err)
        assert not (tmp_path / "d").exists()

    @pytest.mark.parametrize("extra,key", [
        (["--steps", "1", "--set", "loss.alpha=2"], "loss.alpha"),
        (["--steps", "1", "--set", "train.lr0=-1"], "train.lr0"),
        (["--steps", "1", "--set", "loss.lambda_smooth=-5"], "loss.lambda_smooth"),
        (["--epochs", "0"], "train.epochs"),
        (["--steps", "1", "--set", "train.batch_size=0"], "train.batch_size"),
        (["--steps", "1", "--set", "train.steps=abc"], "train.steps"),
        (["--steps", "1", "--set", "encoder.heads=3,3,3"], "encoder.heads"),
        (["--steps", "1", "--set", "loss.min_depth=-1"], "loss.min_depth"),
        (["--steps", "1", "--set", "loss.min_depth=0"], "loss.min_depth"),
        (["--steps", "1", "--set", "loss.min_depth=200"], "loss.min_depth"),
        (["--steps", "1", "--set", "train.weight_decay=-1"], "train.weight_decay"),
        (["--steps", "1", "--set", "train.lr_min=-1"], "train.lr_min"),
        (["--steps", "1", "--set", "data.width=0"], "data.width"),
        (["--steps", "1", "--frames", "2"], "data.frames"),
        (["--steps", "1", "--set", "train.seed=-1"], "train.seed"),
        (["--steps", "1", "--set", "data.scene_seed=-1"], "data.scene_seed"),
        (["--steps", "1", "--set", "train.checkpoint_every=-3"], "train.checkpoint_every"),
        (["--steps", "1", "--set", "encoder.channels=32,32,64"], "encoder.channels"),
        (["--steps", "1", "--set", "encoder.channels=0,32,64,128"], "encoder.channels"),
        (["--steps", "1", "--set", "encoder.heads=4,4"], "encoder.heads"),
        (["--steps", "1", "--set", "encoder.heads=0,4,8"], "encoder.heads"),
        (["--steps", "1", "--set", "encoder.expansion=0"], "encoder.expansion"),
        # the engine's names are the only precisions
        (["--steps", "1", "--set", "train.precision=f16"], "train.precision must be f32 or f64"),
    ] + [
        # NaN fails every comparison, so a range check must be written to catch it
        (["--steps", "1", "--set", f"{key}={value}"], key)
        for key in ("train.lr0", "train.lr_min", "train.weight_decay", "loss.lambda_smooth")
        for value in ("nan", "inf")
    ] + [
        (["--steps", "1", "--set", "loss.max_depth=inf"], "loss.max_depth"),
    ], ids=["alpha", "lr0", "lambda-smooth", "zero-epochs", "zero-batch",
            "steps-not-a-number", "heads", "negative-min-depth", "zero-min-depth",
            "min-depth-above-max", "negative-weight-decay", "negative-lr-min",
            "zero-width", "two-frames", "negative-seed", "negative-scene-seed",
            "negative-checkpoint-every", "three-channels", "zero-channels", "two-heads",
            "zero-heads", "zero-expansion", "f16-precision",
            "nan-lr0", "inf-lr0", "nan-lr-min", "inf-lr-min", "nan-weight-decay",
            "inf-weight-decay", "nan-lambda-smooth", "inf-lambda-smooth", "inf-max-depth"])
    def test_bad_config_value_is_a_usage_error(self, extra, key, tmp_path, capsys):
        # values from --set and flags pass the same checks as the dataclasses'
        out = tmp_path / "run"
        assert run_cli("train", "--variant", "tiny", "--size", "64x32", "--frames", "4",
                       "--batch", "2", "--out", str(out), *extra) == 1
        assert key in capsys.readouterr().err
        assert not out.exists()

    def test_train_infer_eval_roundtrip(self, tmp_path, capsys):
        run_dir = tmp_path / "run"
        rc = run_cli("train", "--variant", "tiny", "--size", "64x32",
                     "--frames", "4", "--steps", "2", "--batch", "2",
                     "--seed", "1", "--out", str(run_dir))
        assert rc == 0
        ckpt = run_dir / "checkpoints" / "final.lmck"
        assert ckpt.exists()
        assert (run_dir / "curves.csv").exists()
        assert (run_dir / "config.txt").exists()

        scene = tmp_path / "scene"
        assert run_cli("synth", "--size", "64x32", "--frames", "3",
                       "--seed", "9", "--out", str(scene)) == 0
        image = next((scene / "frames").glob("*.png"))
        out_dir = tmp_path / "infer"
        assert run_cli("infer", "--checkpoint", str(ckpt), "--image",
                       str(image), "--out", str(out_dir)) == 0
        stem = image.stem
        depth = read_f32(out_dir / f"{stem}_depth.f32")[0]
        assert depth.shape == (32, 64)
        assert depth.min() >= 0.1 - 1e-6 and depth.max() <= 80.0 + 1e-6
        mm = read_png(out_dir / f"{stem}_depth_mm.png")
        assert mm.dtype == np.uint16
        vis = read_png(out_dir / f"{stem}_depth_vis.png")
        assert vis.shape == (32, 128, 3)    # input and colorized depth side by side

        capsys.readouterr()
        assert run_cli("eval", "--checkpoint", str(ckpt), "--data",
                       str(scene)) == 0
        out = capsys.readouterr().out
        lines = [l for l in out.splitlines() if l.strip()]
        assert lines[0].split() == ["abs_rel", "sq_rel", "rmse", "rmse_log",
                                    "delta1", "delta2", "delta3"]
        assert len(lines[1].split()) == 7
        assert any(l.startswith("abs_rel=") for l in lines)

    def test_eval_without_depth_fails_cleanly(self, tmp_path, capsys):
        run_dir = tmp_path / "run"
        assert run_cli("train", "--variant", "tiny", "--size", "64x32",
                       "--frames", "4", "--steps", "1", "--batch", "2",
                       "--seed", "1", "--out", str(run_dir)) == 0
        scene = tmp_path / "scene"
        assert run_cli("synth", "--size", "64x32", "--frames", "3",
                       "--seed", "9", "--out", str(scene)) == 0
        for f in (scene / "depth").glob("*.f32"):
            f.unlink()
        rc = run_cli("eval", "--checkpoint",
                     str(run_dir / "checkpoints" / "final.lmck"),
                     "--data", str(scene))
        assert rc == 2
        assert "ground-truth" in capsys.readouterr().err

    def test_set_overrides_apply(self, tmp_path):
        run_dir = tmp_path / "run"
        assert run_cli("train", "--variant", "tiny", "--size", "64x32",
                       "--frames", "4", "--steps", "1", "--batch", "2",
                       "--out", str(run_dir),
                       "--set", "loss.alpha=0.5",
                       "--set", "encoder.use_lgfi=false") == 0
        text = (run_dir / "config.txt").read_text()
        assert "loss.alpha = 0.5" in text
        assert "encoder.use_lgfi = false" in text

    @pytest.mark.parametrize("how", ["set", "config"])
    def test_unknown_config_key_is_a_usage_error(self, how, tmp_path, capsys):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("loss.nope = 1\n")
        extra = (["--set", "loss.nope=1"] if how == "set"
                 else ["--config", str(cfg_file)])
        assert run_cli("synth", "--size", "64x32", "--frames", "3",
                       "--out", str(tmp_path / "scene"), *extra) == 1
        assert capsys.readouterr().err == "litedepth: unknown config key 'loss.nope'\n"
        assert not (tmp_path / "scene").exists()

    def test_checkpoint_with_unknown_config_key_fails_cleanly(self, tmp_path, capsys):
        models = build_models(EncoderConfig.variant_preset("tiny"))
        ckpt = tmp_path / "bad.lmck"
        text = RunConfig().to_text() + "loss.nope = 1\n"
        save_checkpoint(ckpt, checkpoint_entries(models, None, 0, text))
        assert run_cli("eval", "--checkpoint", str(ckpt)) == 2
        err = capsys.readouterr().err
        assert err == f"litedepth: {ckpt} (saved config): unknown config key 'loss.nope'\n"

    def test_eval_rejects_a_config_override(self, tiny_checkpoint, capsys):
        # eval reads the checkpoint's saved config; --set used to be ignored
        assert run_cli("eval", "--checkpoint", str(tiny_checkpoint)) == 0
        capsys.readouterr()
        assert run_cli("eval", "--checkpoint", str(tiny_checkpoint),
                       "--set", "loss.nope=1") == 1
        assert "unrecognized arguments: --set loss.nope=1" in capsys.readouterr().err

    def test_infer_runs_the_network_at_its_trained_size(self, tiny_checkpoint, tmp_path,
                                                       monkeypatch):
        from litedepth import cli
        sizes = []
        predict = cli.predict_depth
        monkeypatch.setattr(cli, "predict_depth", lambda models, frame, loss_config:
                            sizes.append(frame.shape) or predict(models, frame, loss_config))
        image = tmp_path / "frame.png"
        write_png(image, np.full((50, 100, 3), 128, dtype=np.uint8))
        out = tmp_path / "depth"
        assert run_cli("infer", "--checkpoint", str(tiny_checkpoint), "--image", str(image),
                       "--out", str(out)) == 0
        assert sizes == [(3, 32, 64)]
        assert read_f32(out / "frame_depth.f32").shape == (1, 50, 100)
        assert read_png(out / "frame_depth_mm.png").shape[:2] == (50, 100)
        assert read_png(out / "frame_depth_vis.png").shape == (50, 200, 3)

    def test_infer_writes_the_eval_mode_depth(self, tiny_checkpoint, tmp_path):
        # the network normalizes with the checkpoint's running statistics,
        # not with the one image's batch statistics
        image = tmp_path / "frame.png"
        write_png(image, (np.random.default_rng(0).random((50, 100, 3)) * 255).astype(np.uint8))
        out = tmp_path / "depth"
        assert run_cli("infer", "--checkpoint", str(tiny_checkpoint), "--image", str(image),
                       "--out", str(out)) == 0
        models, cfg = _models_from_checkpoint(str(tiny_checkpoint))
        depth = predict_depth(models.eval(), resize_frame(load_image(image), (64, 32)),
                              cfg.loss)
        want = np.clip(resize_depth(depth, (50, 100)), cfg.loss.min_depth, DEPTH_CAP)
        assert read_f32(out / "frame_depth.f32")[0].tobytes() == \
            want.astype(np.float32).tobytes()

    @pytest.mark.parametrize("cap", ["-5", "0", "nan", "abc", "0.0005", "0.001"])
    def test_eval_rejects_a_nonpositive_depth_cap(self, tiny_checkpoint, cap, capsys):
        # -5 printed a perfect score, 0 printed nan, 0.0005 exited 2 from
        # inside depth_metrics
        assert run_cli("eval", "--checkpoint", str(tiny_checkpoint), "--depth-cap", cap) == 1
        assert ("argument --depth-cap: expected a positive number above the "
                f"{DEPTH_FLOOR} m metrics floor, got '{cap}'") in capsys.readouterr().err

    @pytest.mark.parametrize("cap, named", [
        ("-1", "argument --depth-cap"), ("0", "argument --depth-cap"),
        ("0.0005", "argument --depth-cap"),
        ("0.1", "loss.min_depth 0.1"), ("0.05", "loss.min_depth 0.1"),
    ])
    def test_infer_rejects_a_depth_cap_at_or_below_min_depth(self, tiny_checkpoint, cap, named,
                                                             tmp_path, capsys):
        # -1 wrote a -1 m depth map, 0 failed on an index out of bounds
        image = tmp_path / "frame.png"
        write_png(image, np.full((32, 64, 3), 128, dtype=np.uint8))
        out = tmp_path / "depth"
        assert run_cli("infer", "--checkpoint", str(tiny_checkpoint), "--image", str(image),
                       "--depth-cap", cap, "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert named in err and "--depth-cap" in err
        assert not out.exists()

    def test_checkpoint_with_an_invalid_saved_value_fails_cleanly(self, tmp_path, capsys):
        models = build_models(EncoderConfig.variant_preset("tiny"))
        ckpt = tmp_path / "bad.lmck"
        text = RunConfig().to_text().replace("loss.alpha = 0.85", "loss.alpha = 2.0")
        save_checkpoint(ckpt, checkpoint_entries(models, None, 0, text))
        assert run_cli("eval", "--checkpoint", str(ckpt)) == 2
        assert capsys.readouterr().err.startswith(
            f"litedepth: {ckpt} (saved config): loss.alpha must lie in [0, 1]")

    @pytest.mark.parametrize("command", ["eval", "infer"])
    @pytest.mark.parametrize("damage, named", [
        (lambda e: {k: v for k, v in e.items() if not k.startswith("param.")},
         "checkpoint is missing param."),
        (lambda e: {k: v for k, v in e.items() if k != "meta.config"},
         "checkpoint is missing meta.config"),
        (lambda e: {**e, "meta.config": b"\xff" + e["meta.config"].tobytes()},
         "meta.config is not UTF-8"),
        # nothing reads meta.epoch, so loading does not require it
        (lambda e: {k: v for k, v in e.items() if k != "meta.epoch"}, None),
    ], ids=["no-params", "no-config", "config-not-utf8", "no-epoch"])
    def test_incomplete_checkpoint_names_the_file_and_entry(
            self, tiny_checkpoint, command, damage, named, tmp_path, capsys):
        ckpt = tmp_path / "damaged.lmck"
        save_checkpoint(ckpt, damage(load_checkpoint(tiny_checkpoint)))
        image = tmp_path / "frame.png"
        write_png(image, np.full((32, 64, 3), 128, dtype=np.uint8))
        extra = ["--image", str(image), "--out", str(tmp_path / "depth")] * (command == "infer")
        if named is None:
            assert run_cli(command, "--checkpoint", str(ckpt), *extra) == 0
            return
        assert run_cli(command, "--checkpoint", str(ckpt), *extra) == 2
        assert capsys.readouterr().err.startswith(f"litedepth: {ckpt}: {named}")
        assert not (tmp_path / "depth").exists()

    def test_infer_rejects_a_seed(self, tiny_checkpoint, tmp_path, capsys):
        image = tmp_path / "frame.png"
        write_png(image, np.full((32, 64, 3), 128, dtype=np.uint8))
        argv = ["infer", "--checkpoint", str(tiny_checkpoint), "--image", str(image),
                "--out", str(tmp_path / "depth")]
        assert run_cli(*argv) == 0
        capsys.readouterr()
        assert run_cli(*argv, "--seed", "3") == 1
        assert "unrecognized arguments: --seed 3" in capsys.readouterr().err

    def test_checkpoint_echoing_a_removed_key_names_it(self, tmp_path, capsys):
        # a checkpoint saved before encoder.use_dilation and the AdamW keys
        # were deleted is refused, not silently reinterpreted
        models = build_models(EncoderConfig.variant_preset("tiny"))
        text = RunConfig().to_text().replace(
            "encoder.use_lgfi = true\n", "encoder.use_lgfi = true\nencoder.use_dilation = true\n")
        ckpt = tmp_path / "old.lmck"
        save_checkpoint(ckpt, checkpoint_entries(models, None, 0, text))
        assert run_cli("eval", "--checkpoint", str(ckpt)) == 2
        assert "unknown config key 'encoder.use_dilation'" in capsys.readouterr().err
        # nor one saved before the dilation schedule alone set the stage depths
        text = RunConfig().to_text().replace(
            "encoder.dilation_schedule", "encoder.cdc_repeats = 3,3,9\nencoder.dilation_schedule")
        save_checkpoint(ckpt, checkpoint_entries(models, None, 0, text))
        assert run_cli("eval", "--checkpoint", str(ckpt)) == 2
        assert "unknown config key 'encoder.cdc_repeats'" in capsys.readouterr().err
        # nor one saved while the objective had an unmasked form
        text = RunConfig().to_text().replace(
            "loss.min_depth", "loss.automask = true\nloss.min_depth")
        save_checkpoint(ckpt, checkpoint_entries(models, None, 0, text))
        for command in (["eval", "--checkpoint", str(ckpt)],
                        ["infer", "--checkpoint", str(ckpt), "--image", str(tmp_path / "x.png"),
                         "--out", str(tmp_path / "depth")]):
            assert run_cli(*command) == 2
            assert "unknown config key 'loss.automask'" in capsys.readouterr().err
        assert not (tmp_path / "depth").exists()

    @pytest.mark.parametrize("errors,code", [((1e-6, 1e-6), 0), ((1e-6, 0.5), 2)],
                             ids=["all-pass", "one-fails"])
    def test_gradcheck_reports_each_check(self, errors, code, monkeypatch, capsys):
        # the suite itself runs in criterion 4; this pins the command around it
        from litedepth import gradsuite
        seeds = []
        monkeypatch.setattr(gradsuite, "run_suite", lambda seed: seeds.append(seed) or [
            gradsuite.CheckResult(name, err, 1e-4) for name, err in zip(("add", "mul"), errors)])
        assert run_cli("gradcheck", "--seed", "7") == code
        assert seeds == [7]
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("add") and lines[0].endswith("PASS")
        assert lines[1].startswith("mul") and lines[1].endswith("PASS" if code == 0 else "FAIL")
        assert lines[2] == f"{2 if code == 0 else 1}/2 checks passed"

    def test_ablate_echoes_the_steps_it_runs(self, monkeypatch, tmp_path):
        from litedepth import cli
        steps = []
        monkeypatch.setattr(cli, "_ablate_run", lambda cfg, enc_cfg, source:
                            steps.append(cfg.train.steps) or (1, 0.0, 0.0))
        out = tmp_path / "ablate"
        assert run_cli("ablate", "--variant", "tiny", "--size", "64x32", "--frames", "4",
                       "--out", str(out)) == 0
        assert set(steps) == {120}
        assert "train.steps = 120\n" in (out / "config.txt").read_text()
