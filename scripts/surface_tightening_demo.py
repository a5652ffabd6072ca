#!/usr/bin/env python3
"""Drive a scene's variance field towards a target by gradient-descending the
surface-tightness loss on the rendered B image (finite-difference gradient on
the field parameter), with the linear annealing schedule.

Example:
    python scripts/surface_tightening_demo.py --steps 200
"""
import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from volsampler.geometry import default_camera
from volsampler.regularizers import RegularizerConfig, surface_loss
from volsampler.render import render_uniform
from volsampler.scenes import beta_activation, make_scene


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--steps", type=int, default=200)
    ap.add_argument("--lr", type=float, default=1.0)
    ap.add_argument("--theta0", type=float, default=0.5)
    ap.add_argument("--resolution", type=int, default=32)
    args = ap.parse_args()

    cam = default_camera(args.resolution, args.resolution)
    cfg = RegularizerConfig(b_target_start=0.01, b_target_end=0.001,
                            b_target_steps=args.steps)

    def loss_at(theta, target):
        scene = make_scene("sphere", beta=float(beta_activation(theta)))
        out = render_uniform(scene, cam, 128, mode="midpoint")
        return surface_loss(out.beta_image, target)

    theta = args.theta0
    h = 0.05
    start = loss_at(theta, cfg.b_target_at(0))
    for step in range(args.steps):
        target = cfg.b_target_at(step)
        g = (loss_at(theta + h, target) - loss_at(theta - h, target)) / (2 * h)
        theta -= args.lr * g
        if (step + 1) % max(1, args.steps // 10) == 0:
            print(f"step {step + 1:4d}  B_target {target:.4f}  "
                  f"beta {float(beta_activation(theta)):.5f}  "
                  f"loss {loss_at(theta, target):.6f}")
    final = loss_at(theta, cfg.b_target_at(args.steps))
    print(f"\nloss {start:.4f} -> {final:.6f} "
          f"({(1 - final / start) * 100:.1f}% reduction)")


if __name__ == "__main__":
    main()
