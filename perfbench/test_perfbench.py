"""Self-checks of the benchmark's own machinery.

    python3 -m pytest -q perfbench/test_perfbench.py
"""
from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
for path in (str(HERE.parent / "src"), str(HERE)):
    if path not in sys.path:
        sys.path.insert(0, path)

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from layers import (PER_LAYER, LayerStats, Taps, install_layers,  # noqa: E402
                    install_taps, per_layer_metrics)
from spans import ROOT, Instruments, Tracer  # noqa: E402


def _children(tracer: Tracer) -> dict[int, list[int]]:
    kids: dict[int, list[int]] = {i: [] for i in range(len(tracer.names))}
    for idx, parent in enumerate(tracer.parents):
        if parent != ROOT:
            kids[parent].append(idx)
    return kids


def _assert_self_times_add_up(tracer: Tracer) -> None:
    dur = tracer.durations()
    own = tracer.self_times()
    kids = _children(tracer)
    for idx in range(len(dur)):
        assert own[idx] >= -1e-9, tracer.names[idx]
        assert own[idx] + sum(dur[k] for k in kids[idx]) == pytest.approx(dur[idx], abs=1e-12)
    # a whole tree: the self times of every span under a root add up to it
    roots = tracer.roots_of()
    for root in (i for i, p in enumerate(tracer.parents) if p == ROOT):
        tree = sum(own[i] for i in range(len(dur)) if roots[i] == root)
        assert tree == pytest.approx(dur[root], abs=1e-9)


def test_self_times_add_back_up_to_parent_span():
    tracer = Tracer(enabled=True)
    root = tracer.begin("op.root")
    for _ in range(3):
        child = tracer.begin("child")
        grand = tracer.begin("grandchild")
        sum(range(20000))
        tracer.end(grand)
        sum(range(20000))
        tracer.end(child)
    tracer.end(root)
    _assert_self_times_add_up(tracer)
    assert tracer.roots_of() == [0] * 7


def test_out_of_order_close_is_rejected():
    tracer = Tracer(enabled=True)
    outer = tracer.begin("outer")
    tracer.begin("inner")
    with pytest.raises(RuntimeError):
        tracer.end(outer)


def test_traced_frame_accounts_for_its_wall_time(tmp_path):
    """A traced 16x16 adaptive frame through the CLI: every span's self time
    plus its children's durations is its own duration, the root's spans add
    up to the frame, and restoring the instruments leaves the program as it
    was."""
    from volsampler import bench, cli, render, scenes

    originals = (bench.robust_samples, cli.prepare_proposals, render.integrate_batch,
                 scenes.SceneOracle.fields)
    tracer = Tracer(enabled=True)
    ins = Instruments(tracer)
    taps, stats = Taps(), LayerStats()
    install_taps(ins, taps)
    install_layers(ins, tracer, stats)
    try:
        config = tmp_path / "frame.cfg"
        config.write_text("scene.name = two-spheres\ncamera.height = 16\n"
                          "camera.width = 16\n", encoding="ascii")
        root = tracer.begin("op.frame")
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["render", "--method", "adaptive", "--config", str(config),
                             "--seed", "3", "--out-dir", str(tmp_path)])
        tracer.end(root)
        assert code == 0
    finally:
        ins.restore()
    assert (bench.robust_samples, cli.prepare_proposals, render.integrate_batch,
            scenes.SceneOracle.fields) == originals

    _assert_self_times_add_up(tracer)
    names = set(tracer.names)
    for span in ("cli.render", "bench.prepare_proposals", "render.probe", "render.full",
                 "render.integrate_batch", "scenes.sdf", "scenes.radiance",
                 "sampling.nucleus_support_grid", "bench.robust_samples", "imageio.write"):
        assert span in names, span
    # the probe (4x4 pixels, 192 bins) and the frame's samples all reach the fields
    assert taps.points == stats.points > 4 * 4 * 192
    assert taps.render.radiance.shape == (16, 16, 3)

    metrics = per_layer_metrics(tracer, stats)
    timings = {"trace.frame.ms", "trace.train_step.ms", "trace.reference_frame.ms"}
    assert set(metrics) == {name for name, _, _ in PER_LAYER} - timings
    assert metrics["render.camera_geometry.calls"] == 3.0
    assert metrics["bench.budget_spp_mean"] == pytest.approx(16 + 16 * 26 / 256)
    assert metrics["trace.unattributed_share"] < 0.5


def test_benchmark_json_matches_the_metrics_reported():
    from workloads import END_TO_END, WORKLOADS

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert spec["paths"] == ["perfbench"]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200 for w in spec["workloads"])
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]] \
        == END_TO_END
    assert max(m["bound"] for m in spec["end_to_end"]) == \
        next(m["bound"] for m in spec["end_to_end"] if m["name"] == "setup_s") <= 0.25
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == PER_LAYER
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))


def test_per_layer_metrics_read_zero_for_layers_never_reached():
    tracer = Tracer(enabled=True)
    idx = tracer.begin("op.frame")
    tracer.end(idx)
    metrics = per_layer_metrics(tracer, LayerStats())
    assert metrics["proposal.forward.ms"] == 0.0
    assert metrics["render.camera_geometry.calls"] == 0.0
    assert np.isfinite(list(metrics.values())).all()
