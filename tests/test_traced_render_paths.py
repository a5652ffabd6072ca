"""The render paths under the benchmark's hooks, as `perfbench/run.py`
runs them: a reference-384, a uniform-96 frame and a probe-lift adaptive
frame made through `cli.main`, each a root span. The always-on tap counts
the points passed to `SceneOracle.fields` (the benchmark's
`field_evals_per_pixel`), and the layer hooks time `SceneOracle.radiance`
(`scenes.radiance.ms`), so a signature change to either fails here, not
first in a benchmark run."""
import contextlib
import io
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
if str(PERFBENCH) not in sys.path:
    sys.path.insert(0, str(PERFBENCH))

from layers import (LayerStats, Taps, install_layers, install_taps,  # noqa: E402
                    per_layer_metrics)
from spans import Instruments, Tracer  # noqa: E402

from conftest import volsampler_bindings  # noqa: E402
from volsampler import cli, render  # noqa: E402
from volsampler.bench import Pipeline  # noqa: E402
from volsampler.config import Config  # noqa: E402
from volsampler.scenes import SceneOracle  # noqa: E402


def test_traced_reference_uniform_and_adaptive_frame(tmp_path, monkeypatch):
    config = tmp_path / "frame.cfg"
    config.write_text("scene.name = textured-sphere\ncamera.height = 16\n"
                      "camera.width = 16\nrender.z_bins = 16\nsampler.base_spp = 8\n",
                      encoding="ascii")
    pipe = Pipeline.from_config(Config.load(config))

    # an independent count of the points that reach the fields
    counted = []
    fields = SceneOracle.fields

    def counting_fields(self, p, v):
        counted.append(len(p))
        return fields(self, p, v)

    monkeypatch.setattr(SceneOracle, "fields", counting_fields)

    before = volsampler_bindings()
    tracer = Tracer(enabled=True)
    ins = Instruments(tracer)
    taps, stats = Taps(), LayerStats()
    install_taps(ins, taps)
    install_layers(ins, tracer, stats)
    try:
        root = tracer.begin("op.reference")
        render.render_reference(pipe.scene, pipe.camera, 384, seed=5)
        tracer.end(root)

        root = tracer.begin("op.uniform96")
        render.render_uniform(pipe.scene, pipe.camera, 96, seed=7)
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
    assert taps.render is not None and taps.samples is not None

    assert taps.points == sum(counted) > 0
    metrics = per_layer_metrics(tracer, stats)
    assert metrics["scenes.radiance.calls"] > 0
    assert metrics["scenes.sdf.calls"] > 0 and metrics["scenes.beta.calls"] > 0
    assert metrics["render.reference.calls"] == 1
    assert metrics["render.probe.calls"] == 1
    assert metrics["render.full.calls"] == 2  # the uniform and the adaptive frame
    assert 0 < metrics["render.points_weighted"] <= metrics["render.points_evaluated"]
