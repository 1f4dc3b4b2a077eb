"""Command-line entry point.

Subcommands: synth (generate a synthetic dataset), train, infer, eval, bench
(parameter/FLOP budgets per variant), gradcheck (finite-difference suite) and
ablate (architecture/dilation grid on the toy task).

Exit codes: 0 success, 1 usage error, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path
from typing import List, Optional

import numpy as np

from .colormap import colorize
from .config import RunConfig
from .data import (DirectorySource, SyntheticSource, generate_synthetic_sequence,
                   resize_depth, resize_frame, save_dataset)
from .decoder import DepthDecoder
from .encoder import FRAME_MULTIPLE, EncoderConfig, check_frame_size, count_flops, count_params
from .engine import using_dtype
from .metrics import DEPTH_CAP, DEPTH_FLOOR, DepthMetrics
from .pngio import load_image, write_f32, write_png
from .trainer import (build_models, evaluate, load_checkpoint, predict_depth,
                      restore_checkpoint, saved_config_text, train)

__all__ = ["main"]

_REFERENCE_BUDGETS = {
    # variant: (encoder M params, full M params, encoder GMacs at 640x192)
    "tiny": (2.0, 2.2, 2.4),
    "small": (2.3, 2.5, 4.1),
    "base": (2.9, 3.1, 4.4),
}


class _UsageError(Exception):
    """A usage error found after parsing, such as an unknown config key."""


class _Parser(argparse.ArgumentParser):
    """argparse that exits 1 on usage errors instead of 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _size(text: str):
    """--size WxH, e.g. 640x192, as (width, height)."""
    try:
        w, h = (int(v) for v in text.lower().split("x"))
        check_frame_size(w, h, "size")
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected WxH with both sides positive and divisible by {FRAME_MULTIPLE}, "
            f"e.g. 640x192, got {text!r}") from None
    return w, h


def _checked(kind, ok, expected: str):
    """An argparse type: the text read by `kind`, refused unless ok(value)."""
    def parse(text: str):
        try:
            if ok(value := kind(text)):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")
    return parse


_seed = _checked(int, lambda v: v >= 0, "a non-negative integer")


def _add_config_flags(p: argparse.ArgumentParser, variant: bool = True) -> None:
    """The flags that build a run configuration, for the commands that read one."""
    p.add_argument("--config", help="key = value configuration file")
    p.add_argument("--set", action="append", metavar="KEY=VALUE", dest="overrides",
                   help="override any config key (repeatable)")
    p.add_argument("--seed", type=_seed, help="seed for training and scene generation")
    if variant:
        p.add_argument("--variant", choices=("tiny", "small", "base"),
                       help="encoder size preset")
    p.add_argument("--size", type=_size, metavar="WxH", help="training/render size, e.g. 640x192")


def _build_config(args) -> RunConfig:
    cfg = RunConfig()
    try:
        if args.config:
            cfg.apply_file(args.config)
        if getattr(args, "variant", None):    # synth has no --variant
            cfg.set("encoder.variant", args.variant)
        if args.size:
            w, h = args.size
            cfg.set("data.width", str(w))
            cfg.set("data.height", str(h))
        if args.seed is not None:
            cfg.set("train.seed", str(args.seed))
            cfg.set("data.scene_seed", str(args.seed))
        for extra in ("steps", "batch", "epochs", "frames"):
            value = getattr(args, extra, None)
            if value is not None:
                key = {"steps": "train.steps", "batch": "train.batch_size",
                       "epochs": "train.epochs", "frames": "data.frames"}[extra]
                cfg.set(key, str(value))
        if getattr(args, "mover", False):
            cfg.set("data.mover", "true")
        cfg.apply_overrides(args.overrides)
        cfg.validate()
    except (KeyError, ValueError) as exc:   # an unknown key or a bad value
        raise _UsageError(exc.args[0]) from None
    return cfg


def _echo_config(cfg: RunConfig, out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "config.txt").write_text(cfg.to_text())


def _source_from(cfg: RunConfig, data: Optional[str]):
    size = (cfg.data.width, cfg.data.height)
    if data:
        return DirectorySource(data, size=size)
    return SyntheticSource(seed=cfg.data.scene_seed, n_frames=cfg.data.frames,
                           size=size, mover=cfg.data.mover)


def _models_from_checkpoint(path: str):
    entries = load_checkpoint(path)
    text = saved_config_text(entries, path)
    cfg = RunConfig()
    try:
        cfg.apply_text(text)
        cfg.validate()
    except (KeyError, ValueError) as exc:
        raise ValueError(f"{path} (saved config): {exc.args[0]}") from None
    with using_dtype(cfg.train.precision):
        models = build_models(cfg.encoder, seed=cfg.train.seed)
    restore_checkpoint(entries, models, path=path)
    return models, cfg


# ----------------------------------------------------------------- commands


def _cmd_synth(args) -> int:
    cfg = _build_config(args)
    out = Path(args.out)
    seq = generate_synthetic_sequence(cfg.data.scene_seed, cfg.data.frames,
                                      (cfg.data.width, cfg.data.height),
                                      mover=cfg.data.mover)
    save_dataset(seq, out)
    _echo_config(cfg, out)
    print(f"wrote {len(seq)} frames to {out}")
    return 0


def _cmd_train(args) -> int:
    cfg = _build_config(args)
    out = Path(args.out)
    _echo_config(cfg, out)
    source = _source_from(cfg, args.data)
    result = train(cfg.train, cfg.encoder, source, loss_config=cfg.loss,
                   out_dir=out, config_text=cfg.to_text())
    final = np.mean([r["total"] for r in result.curve[-10:]])
    print(f"finished {len(result.curve)} steps; final loss (10-step mean) {final:.5f}")
    print(f"checkpoint: {result.checkpoint_path}")
    print(f"curve: {result.curve_path}")
    return 0


def _cmd_infer(args) -> int:
    models, cfg = _models_from_checkpoint(args.checkpoint)
    if args.depth_cap <= cfg.loss.min_depth:
        raise _UsageError(f"--depth-cap {args.depth_cap} must be above the checkpoint's "
                          f"loss.min_depth {cfg.loss.min_depth}")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    image = load_image(args.image)
    # the network runs at the size it was trained at
    depth = predict_depth(models, resize_frame(image, (cfg.data.width, cfg.data.height)),
                          cfg.loss)
    depth = np.clip(resize_depth(depth, image.shape[1:]), cfg.loss.min_depth,
                    args.depth_cap)

    stem = Path(args.image).stem
    write_f32(out / f"{stem}_depth.f32", depth.astype(np.float32))
    write_png(out / f"{stem}_depth_mm.png",
              np.clip(depth * 1000.0, 0, 65535).astype(np.uint16))
    vis = colorize(1.0 / depth)
    side = np.concatenate(
        [(np.clip(image, 0, 1).transpose(1, 2, 0) * 255).astype(np.uint8), vis],
        axis=1)
    write_png(out / f"{stem}_depth_vis.png", side)
    print(f"depth range [{depth.min():.3f}, {depth.max():.3f}] m")
    print(f"wrote {out / f'{stem}_depth.f32'}, 16-bit mm png and visualization")
    return 0


def _cmd_eval(args) -> int:
    models, cfg = _models_from_checkpoint(args.checkpoint)
    mean, rows = evaluate(models, _source_from(cfg, args.data), cfg.loss,
                          cap=args.depth_cap, median_scale=not args.no_median_scale)
    print(DepthMetrics.header())
    print(mean.as_row())
    print()
    print(mean.as_key_values())
    return 0


def _cmd_bench(args) -> int:
    variants = ("tiny", "small", "base") if args.variant == "all" else (args.variant,)
    w, h = args.size
    for name in variants:
        cfg = EncoderConfig.variant_preset(name)
        enc = count_params(cfg)
        dec = DepthDecoder(cfg.channels[1:], seed=0).num_params()
        macs = count_flops(cfg, (w, h))
        ref_enc, ref_full, ref_macs = _REFERENCE_BUDGETS[name]
        print(f"variant {name}")
        print(f"  encoder params {enc / 1e6:.2f}M (reference {ref_enc}M, "
              f"{(enc / 1e6 - ref_enc) / ref_enc:+.1%})")
        print(f"  decoder params {dec / 1e6:.2f}M (reference 0.2M)")
        print(f"  full depth net {(enc + dec) / 1e6:.2f}M (reference {ref_full}M, "
              f"{((enc + dec) / 1e6 - ref_full) / ref_full:+.1%})")
        print(f"  encoder compute at {w}x{h}: {macs / 1e9:.2f} GMACs "
              f"(reference {ref_macs}G; doubled if counting multiply and add "
              f"separately: {2 * macs / 1e9:.2f}G)")
    return 0


def _cmd_gradcheck(args) -> int:
    from .gradsuite import run_suite
    results = run_suite(seed=args.seed)
    failed = 0
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{r.name:28s} max_rel_err {r.max_rel_err:.3e}  tol {r.tol:.0e}  {status}")
        failed += 0 if r.passed else 1
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return 0 if failed == 0 else 2


def _cmd_ablate(args) -> int:
    cfg = _build_config(args)
    if cfg.train.steps <= 0:
        cfg.train.steps = 120
    out = Path(args.out) if args.out else None
    if out is not None:
        _echo_config(cfg, out)

    architecture_grid = [
        ("full", {}),
        ("no_lgfi", {"use_lgfi": False}),
        ("no_dilation", {"dilation_schedule": tuple(
            [1] * len(rates) for rates in cfg.encoder.dilation_schedule)}),
        ("no_pooled_concat", {"use_pooled_concat": False}),
        ("no_cross_stage", {"use_cross_stage": False}),
    ]
    deep_default = list(cfg.encoder.dilation_schedule[2])
    groups = len(deep_default) // 3
    # the four dilation-rate settings: the default grouped schedule, the last
    # group flattened back to 1-2-3, a 1-2-5 grouping everywhere, and very
    # large rates in the last two groups
    dilation_grid = [
        ("rates_default", [1, 2, 3], deep_default),
        ("rates_last_123", [1, 2, 3], [1, 2, 3] * groups),
        ("rates_125_groups", [1, 2, 5], [1, 2, 5] * groups),
        ("rates_246_4812", [1, 2, 3],
         [1, 2, 3] * max(groups - 2, 0) + [2, 4, 6, 4, 8, 12]
         if groups >= 2 else deep_default),
    ]

    rows = []
    source = _source_from(cfg, args.data)
    for label, toggles in architecture_grid:
        enc_cfg = replace(cfg.encoder, **toggles)
        rows.append((f"arch/{label}", *_ablate_run(cfg, enc_cfg, source)))
    for label, stage12, deep in dilation_grid:
        enc_cfg = replace(cfg.encoder,
                          dilation_schedule=(list(stage12), list(stage12),
                                             list(deep)))
        rows.append((f"dilation/{label}", *_ablate_run(cfg, enc_cfg, source)))

    print(f"{'configuration':26s} {'params(M)':>10s} {'final loss':>11s} {'abs_rel':>9s}")
    for label, params, loss, abs_rel in rows:
        print(f"{label:26s} {params / 1e6:10.3f} {loss:11.5f} {abs_rel:9.4f}")
    if out is not None:
        lines = ["configuration,params,final_loss,abs_rel"]
        lines += [f"{l},{p},{lo},{a}" for l, p, lo, a in rows]
        (out / "ablation.csv").write_text("\n".join(lines) + "\n")
        print(f"table written to {out / 'ablation.csv'}")
    return 0


def _ablate_run(cfg: RunConfig, enc_cfg: EncoderConfig, source):
    enc_cfg.validate()
    result = train(cfg.train, enc_cfg, source, loss_config=cfg.loss)
    mean, _ = evaluate(result.models, source, cfg.loss)
    final = float(np.mean([r["total"] for r in result.curve[-10:]]))
    return result.models.num_params(), final, mean.abs_rel


def _build_parser() -> _Parser:
    epilog = ("configuration keys (addressable via --set and config files):\n"
              + RunConfig().describe())
    parser = _Parser(prog="litedepth",
                     description=__doc__,
                     epilog=epilog,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="render a synthetic dataset with ground truth")
    _add_config_flags(p, variant=False)
    p.add_argument("--frames", type=int, help="sequence length")
    p.add_argument("--mover", action="store_true",
                   help="add a rectangle moving at camera velocity")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("train", help="train depth and pose networks")
    _add_config_flags(p)
    p.add_argument("--data", help="dataset directory (default: synthetic scene)")
    p.add_argument("--steps", type=int, help="cap the number of optimizer steps")
    p.add_argument("--batch", type=int, help="batch size")
    p.add_argument("--epochs", type=int)
    p.add_argument("--frames", type=int, help="synthetic sequence length")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_train)

    # infer and eval read the configuration saved in the checkpoint
    depth_cap = _checked(float, lambda v: v > DEPTH_FLOOR,
                         f"a positive number above the {DEPTH_FLOOR} m metrics floor")
    p = sub.add_parser("infer", help="depth map for one image from a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--image", required=True)
    p.add_argument("--depth-cap", type=depth_cap, default=DEPTH_CAP)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_infer)

    p = sub.add_parser("eval", help="metric table against ground-truth depth")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", help="dataset directory with depth/ (default: synthetic)")
    p.add_argument("--depth-cap", type=depth_cap, default=DEPTH_CAP)
    p.add_argument("--no-median-scale", action="store_true")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("bench", help="parameter and FLOP budgets per variant")
    p.add_argument("--variant", choices=("tiny", "small", "base", "all"),
                   default="all")
    p.add_argument("--size", type=_size, metavar="WxH", default="640x192",
                   help="image size for the FLOP count")
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("gradcheck", help="finite-difference gradient suite")
    p.add_argument("--seed", type=_seed, default=0, help="seed for the test inputs")
    p.set_defaults(func=_cmd_gradcheck)

    p = sub.add_parser("ablate", help="architecture/dilation grid on the toy task")
    _add_config_flags(p)
    p.add_argument("--data", help="dataset directory (default: synthetic scene)")
    p.add_argument("--steps", type=int, help="training steps per configuration")
    p.add_argument("--batch", type=int)
    p.add_argument("--frames", type=int)
    p.add_argument("--out", help="directory for the csv table")
    p.set_defaults(func=_cmd_ablate)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"litedepth: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        print(f"litedepth: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
