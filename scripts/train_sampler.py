#!/usr/bin/env python3
"""Train the proposal upsampler on the configured scene, then render it three
ways for a side-by-side in foreground PSNR: the adaptive pipeline with the
trained net, uniform sampling at the pipeline's mean budget, and the dense
reference. Every setting comes from the config (`volsampler info` lists them).

Example:
    python scripts/train_sampler.py --config scene.cfg --out-dir out/ts
"""
import argparse
import sys
import time
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np

from volsampler.bench import Pipeline, adaptive_pipeline_render, prepare_proposals
from volsampler.config import Config
from volsampler.imageio import write_pfm, write_ppm
from volsampler.metrics import foreground_psnr
from volsampler.proposal import ProposalNet, save_checkpoint, train
from volsampler.render import render_reference, render_uniform
from volsampler.sampling import derive_seed


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--config", default=None, help="config file path")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--workers", type=int, default=1)
    ap.add_argument("--out-dir", default="out/train")
    args = ap.parse_args()

    pipe = Pipeline.from_config(Config.load(args.config), seed=args.seed,
                                workers=args.workers)
    pipe = replace(pipe, proposal_source="checkpoint")
    scene, camera = pipe.scene, pipe.camera
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    net = ProposalNet(z_bins=pipe.z_bins, hidden=pipe.hidden_channels, seed=args.seed)
    steps = pipe.training.steps
    t0 = time.perf_counter()
    losses = train(net, scene, camera, pipe.training, seed=args.seed,
                   workers=pipe.workers, log_every=max(1, steps // 10))
    window = max(1, steps // 10)
    print(f"trained {steps} steps in {time.perf_counter() - t0:.0f}s; loss window "
          f"{np.mean(losses[:window]):.3f} -> {np.mean(losses[-window:]):.3f}")
    save_checkpoint(net, out / "proposal.vsmp")

    reference = render_reference(scene, camera, pipe.reference_spp,
                                 seed=derive_seed(pipe.seed, 999), workers=pipe.workers)
    fg = reference.accumulated_opacity > 0.5
    adaptive, spp_map = adaptive_pipeline_render(pipe, prepare_proposals(pipe, net=net))
    matched = render_uniform(scene, camera, int(round(spp_map.mean())),
                             seed=pipe.seed, workers=pipe.workers)
    print(f"fg-PSNR: pipeline {foreground_psnr(adaptive.radiance, reference.radiance, fg):.2f} dB"
          f" (mean spp {spp_map.mean():.1f}) vs uniform "
          f"{foreground_psnr(matched.radiance, reference.radiance, fg):.2f} dB")

    for name, img in (("pipeline", adaptive.radiance),
                      ("uniform", matched.radiance),
                      ("reference", reference.radiance)):
        write_pfm(out / f"{name}.pfm", img)
        write_ppm(out / f"{name}.ppm", img)
    print(f"outputs in {out}/")


if __name__ == "__main__":
    main()
