"""Command-line interface.

Subcommands: render, bench, train-proposal, compare-samplers, info.
Global flags: --config, --seed, --workers, --out-dir, --deterministic.
Exit codes: 0 success, 2 config error, 3 missing or malformed checkpoint,
4 I/O error.
VOLSAMPLER_THREADS overrides --workers when set.
"""
from __future__ import annotations

import argparse
import os
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .bench import (METHODS, MissingCheckpointError, Pipeline,
                    adaptive_pipeline_render, method_samples, prepare_proposals,
                    run_bench)
from .config import Config, ConfigError
from .proposal import ProposalNet, save_checkpoint, train
from .render import render_full, render_uniform
from .scenes import SCENE_NAMES

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CHECKPOINT = 3
EXIT_IO = 4


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="volsampler",
                                description="Low-sample volume rendering toolkit")
    p.add_argument("--version", action="version", version=f"volsampler {__version__}")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", type=str, default=None, help="config file path")
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--workers", type=int, default=1)
    common.add_argument("--out-dir", type=str, default="out")
    common.add_argument("--deterministic", action="store_true",
                        help="zero the ms column of bench.csv, so its bytes "
                             "depend only on the config and seed")

    sub = p.add_subparsers(dest="command", required=True)

    pr = sub.add_parser("render", parents=[common], help="render one image")
    pr.add_argument("--method", choices=METHODS + ("adaptive",), default="adaptive")
    pr.add_argument("--spp", type=int, default=16)

    sub.add_parser("bench", parents=[common],
                   help="benchmark sampling methods against the reference")

    tp = sub.add_parser("train-proposal", parents=[common],
                        help="train the proposal network on the configured scene")
    tp.add_argument("--steps", type=int, default=None)

    cs = sub.add_parser("compare-samplers", parents=[common],
                        help="preset bench: unstratified vs stratified vs robust")
    cs.add_argument("--spp", type=str, default="2,4,8,16,32",
                    help="comma list of sample counts")

    sub.add_parser("info", parents=[common], help="print scenes and configuration")
    return p


def _workers(args) -> int:
    env = os.environ.get("VOLSAMPLER_THREADS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise ConfigError(f"VOLSAMPLER_THREADS must be an integer, got {env!r}")
    return max(1, args.workers)


def _out_dir(args) -> Path:
    out = Path(args.out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as e:
        raise IOError(f"cannot create output directory {out}: {e}") from e
    return out


def _pipeline(args, overrides: dict[str, str] | None = None) -> Pipeline:
    return Pipeline.from_config(Config.load(args.config, overrides),
                                seed=args.seed, workers=_workers(args),
                                deterministic=args.deterministic)


def cmd_render(args) -> int:
    from .imageio import write_pfm, write_ppm

    if args.spp < 1:
        raise ConfigError("render --spp must be >= 1")
    pipe = _pipeline(args)
    scene, camera = pipe.scene, pipe.camera
    out = _out_dir(args)

    if args.method == "uniform-dense":
        result = render_uniform(scene, camera, args.spp, seed=args.seed,
                                workers=pipe.workers)
        spp_note = f"{args.spp}"
    else:
        prop = prepare_proposals(pipe)
        if args.method == "adaptive":
            result, spp_map = adaptive_pipeline_render(pipe, prop)
            spp_note = f"mean {spp_map.mean():.1f}"
        else:
            samples = method_samples(args.method, prop, args.spp, args.seed,
                                     pipe.tau, camera.height, camera.width,
                                     merge_probe=pipe.merge_probe)
            result = render_full(scene, camera, samples, workers=pipe.workers)
            spp_note = f"{args.spp}"

    stem = f"{scene.name}_{args.method}"
    write_pfm(out / f"{stem}.pfm", result.radiance)
    write_ppm(out / f"{stem}.ppm", result.radiance)
    write_pfm(out / f"{stem}_B.pfm", result.beta_image)
    write_pfm(out / f"{stem}_depth.pfm", result.expected_depth)
    print(f"rendered {scene.name} [{args.method}, spp {spp_note}] -> {out / stem}.pfm/.ppm")
    return EXIT_OK


def cmd_bench(args, overrides: dict[str, str] | None = None) -> int:
    pipe = _pipeline(args, overrides)
    out = _out_dir(args)
    rows, _ = run_bench(pipe, out_dir=out)
    best = {}
    for r in rows:
        key = (r.method, r.spp)
        best.setdefault(key, []).append(r.psnr)
    print(f"{'method':>14s} {'spp':>5s} {'mean PSNR':>10s}")
    for (method, spp), vals in best.items():
        print(f"{method:>14s} {spp:>5d} {np.mean(vals):>10.2f}")
    print(f"wrote {out / 'bench.csv'}")
    return EXIT_OK


def cmd_train(args) -> int:
    if args.steps is not None and args.steps < 1:
        raise ConfigError("train-proposal --steps must be >= 1")
    pipe = _pipeline(args)
    tc = (pipe.training if args.steps is None
          else replace(pipe.training, steps=args.steps))
    if tc.patch > min(pipe.camera.height, pipe.camera.width):
        raise ConfigError("train.patch must not exceed camera.height or camera.width")
    out = _out_dir(args)
    net = ProposalNet(z_bins=pipe.z_bins, hidden=pipe.hidden_channels, seed=args.seed)
    t0 = time.perf_counter()
    losses = train(net, pipe.scene, pipe.camera, tc, seed=args.seed,
                   workers=pipe.workers, log_every=max(1, tc.steps // 10))
    dt = time.perf_counter() - t0
    ckpt = out / "proposal.vsmp"
    save_checkpoint(net, ckpt)
    loss_csv = out / "train_loss.csv"
    with open(loss_csv, "w", encoding="ascii") as f:
        f.write("step,loss\n")
        for i, v in enumerate(losses):
            f.write(f"{i},{v:.6f}\n")
    print(f"trained {tc.steps} steps in {dt:.1f}s; checkpoint {ckpt}, losses {loss_csv}")
    return EXIT_OK


def cmd_compare(args) -> int:
    return cmd_bench(args, {"bench.methods": "unstratified,stratified,robust",
                            "bench.spp": args.spp})


def cmd_info(args) -> int:
    cfg = Config.load(args.config)
    print(f"volsampler {__version__}")
    print(f"scenes: {', '.join(SCENE_NAMES)} (+ 'wall' for diagnostics)")
    print(f"methods: {', '.join(METHODS)} (+ 'adaptive' pipeline in render)")
    print("configuration:")
    for line in cfg.dump().splitlines():
        print(f"  {line}")
    return EXIT_OK


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {"render": cmd_render, "bench": cmd_bench,
                "train-proposal": cmd_train, "compare-samplers": cmd_compare,
                "info": cmd_info}
    try:
        return handlers[args.command](args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except MissingCheckpointError as e:
        print(f"checkpoint error: {e}", file=sys.stderr)
        return EXIT_CHECKPOINT
    except OSError as e:
        print(f"i/o error: {e}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
