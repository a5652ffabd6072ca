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


def test_surface_tightening_demo_runs(tmp_path):
    done = run_script("surface_tightening_demo.py", "--steps", "2",
                      "--resolution", "8", cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    assert "reduction" in done.stdout
