"""The learned-sampler path under the benchmark's layer hooks, as
`perfbench/run.py --trace 1` runs it: training, a checkpoint round trip and
a checkpoint-source frame, each a root span. A signature change to a
function the hooks wrap (the convs, the loss, the net's forward, the
checkpoint functions) fails here, not first in a traced benchmark run."""
import contextlib
import io
import os
import sys
from pathlib import Path

import numpy as np

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
if str(PERFBENCH) not in sys.path:
    sys.path.insert(0, str(PERFBENCH))

from layers import (PER_LAYER, LayerStats, Taps, install_layers,  # noqa: E402
                    install_taps, per_layer_metrics)
from spans import Instruments, Tracer  # noqa: E402

from conftest import volsampler_bindings  # noqa: E402
from volsampler import cli, proposal  # noqa: E402
from volsampler.bench import Pipeline  # noqa: E402
from volsampler.config import Config  # noqa: E402
from volsampler.proposal import ProposalNet  # noqa: E402


def test_traced_training_checkpoint_and_frame(tmp_path):
    ckpt = tmp_path / "proposal.vsmp"
    config = tmp_path / "learned.cfg"
    # a 16-pixel patch covers the 16x16 camera, so every step supervises
    config.write_text("scene.name = two-spheres\ncamera.height = 16\ncamera.width = 16\n"
                      "render.z_bins = 16\nsampler.base_spp = 8\n"
                      "proposal.hidden_channels = 4\nproposal.source = checkpoint\n"
                      f"proposal.checkpoint = {ckpt}\n"
                      "train.steps = 2\ntrain.patch = 16\n", encoding="ascii")
    pipe = Pipeline.from_config(Config.load(config))
    net = ProposalNet(z_bins=pipe.z_bins, hidden=pipe.hidden_channels)

    before = volsampler_bindings()
    tracer = Tracer(enabled=True)
    ins = Instruments(tracer)
    taps, stats = Taps(), LayerStats()
    install_taps(ins, taps)
    install_layers(ins, tracer, stats)
    try:
        root = tracer.begin("op.train")
        losses = proposal.train(net, pipe.scene, pipe.camera, pipe.training)
        tracer.end(root)

        root = tracer.begin("op.checkpoint")
        proposal.save_checkpoint(net, ckpt)
        proposal.load_checkpoint(ProposalNet(z_bins=pipe.z_bins, hidden=pipe.hidden_channels,
                                             seed=1), ckpt)
        tracer.end(root)

        root = tracer.begin("op.frame")
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["render", "--method", "adaptive", "--config", str(config),
                             "--out-dir", str(tmp_path / "frame")])
        tracer.end(root)
    finally:
        ins.restore()
    assert all(owner[key] is value for owner, key, value in before)
    assert code == 0
    assert len(losses) == 2 and min(losses) > 0.0

    metrics = per_layer_metrics(tracer, stats)
    timings = {"trace.frame.ms", "trace.train_step.ms", "trace.reference_frame.ms"}
    assert set(metrics) == {name for name, _, _ in PER_LAYER} - timings
    assert np.isfinite(list(metrics.values())).all()
    for name in ("nn.conv2d_forward.calls", "nn.conv2d_backward.calls",
                 "proposal.forward.calls", "proposal.backward.calls", "nn.softmax_ce.calls"):
        assert metrics[name] > 0, name
    assert metrics["proposal.predict.calls"] == 1
    assert metrics["proposal.checkpoint_bytes"] == os.path.getsize(ckpt)
