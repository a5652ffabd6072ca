"""Smoke runs of the experiment scripts at toy sizes: each must exit 0 and
write what it promises."""
import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(name: str, *args: str, cwd: Path) -> subprocess.CompletedProcess:
    # the suite's own warning policy: a RuntimeWarning is an error
    return subprocess.run([sys.executable, "-W", "error::RuntimeWarning",
                           str(SCRIPTS / name), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=120)


def test_train_sampler_runs(tmp_path):
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text("camera.height = 16\ncamera.width = 16\nrender.z_bins = 16\n"
                   "sampler.score_bins = 8\nproposal.hidden_channels = 4\n"
                   "train.steps = 2\ntrain.patch = 8\nrender.reference_spp = 32\n")
    out = tmp_path / "out"
    done = run_script("train_sampler.py", "--config", str(cfg), "--out-dir",
                      str(out), cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    assert "fg-PSNR" in done.stdout
    for name in ("proposal.vsmp", "pipeline.pfm", "uniform.pfm", "reference.pfm"):
        assert (out / name).is_file(), name


def test_surface_tightening_demo_runs(tmp_path):
    done = run_script("surface_tightening_demo.py", "--steps", "2",
                      "--resolution", "8", cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    assert "reduction" in done.stdout
