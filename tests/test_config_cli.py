import contextlib
import io
import os
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from volsampler.bench import Pipeline
from volsampler.cli import main
from volsampler.config import DEFAULTS, Config, ConfigError, parse_config_text
from volsampler.proposal import ProposalNet, save_checkpoint


class TestParser:
    def test_basic_lines_and_comments(self):
        text = """
        # full-line comment
        scene.name = torus
        camera.fov = 0.5   # trailing comment
        bench.spp = 2, 4, 8
        """
        parsed = parse_config_text(text)
        assert parsed == {"scene.name": "torus", "camera.fov": "0.5",
                          "bench.spp": "2, 4, 8"}

    def test_missing_equals(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config_text("scene.name torus")

    def test_empty_key(self):
        with pytest.raises(ConfigError):
            parse_config_text("= value")

    def test_unknown_key_rejected_on_load(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("scene.wobble = 3\n")
        with pytest.raises(ConfigError, match="unknown config key"):
            Config.load(p)

    def test_defaults_present(self):
        cfg = Config.load(None)
        assert cfg.get("scene.name") == "two-spheres"
        assert cfg.get_int("render.z_bins") == 192
        assert cfg.get_float("sampler.tau") == 0.98
        assert cfg.get_int("sampler.base_spp") == 16
        assert cfg.get_int("sampler.boosted_spp") == 32
        assert cfg.get_float("sampler.boosted_fraction") == 0.10

    def test_typed_getters(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("camera.position = 1, 2, 3\nbench.trials = 4\n"
                     "sampler.merge_probe_samples = false\n")
        cfg = Config.load(p)
        assert cfg.get_vec3("camera.position") == (1.0, 2.0, 3.0)
        assert cfg.get_int("bench.trials") == 4
        assert cfg.get_bool("sampler.merge_probe_samples") is False
        assert cfg.get_int_list("bench.spp") == [2, 4, 8, 16, 32, 64]

    def test_type_errors(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("bench.trials = many\n")
        with pytest.raises(ConfigError, match="integer"):
            Config.load(p).get_int("bench.trials")
        p.write_text("camera.position = 1, 2\n")
        with pytest.raises(ConfigError, match="3 components"):
            Config.load(p).get_vec3("camera.position")

    def test_empty_optional_float(self):
        cfg = Config.load(None)
        assert cfg.get_opt_float("scene.beta") is None

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            Config.load(tmp_path / "nope.cfg")


TINY = """
scene.name = two-spheres
camera.height = 16
camera.width = 16
render.z_bins = 48
bench.methods = stratified
bench.spp = 2
bench.trials = 1
"""


class TestCliExitCodes:
    def run_cli(self, *argv):
        return main(list(argv))

    def test_info_ok(self, capsys):
        assert self.run_cli("info") == 0
        out = capsys.readouterr().out
        assert "two-spheres" in out and "scene.name" in out

    def test_bad_config_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("nonsense.key = 1\n")
        assert self.run_cli("info", "--config", str(bad)) == 2

    def test_missing_config_file_exits_2(self, tmp_path):
        assert self.run_cli("info", "--config", str(tmp_path / "nope.cfg")) == 2

    def test_missing_checkpoint_exits_3(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(TINY + "proposal.source = checkpoint\n")
        code = self.run_cli("bench", "--config", str(cfg), "--out-dir",
                            str(tmp_path / "out"))
        assert code == 3
        assert "probe-lift" in capsys.readouterr().err

    def test_nonexistent_checkpoint_path_exits_3(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(TINY + "proposal.source = checkpoint\n"
                       "proposal.checkpoint = /nonexistent/net.vsmp\n")
        assert self.run_cli("bench", "--config", str(cfg), "--out-dir",
                            str(tmp_path / "out")) == 3

    @pytest.mark.parametrize("damage", ["truncated", "wrong-magic"])
    def test_malformed_checkpoint_exits_3(self, tmp_path, capsys, damage):
        ckpt = tmp_path / "net.vsmp"
        save_checkpoint(ProposalNet(z_bins=48, hidden=4), ckpt)
        raw = ckpt.read_bytes()
        ckpt.write_bytes(raw[:len(raw) // 2] if damage == "truncated"
                         else b"XXXX" + raw[4:])
        cfg = tmp_path / "c.cfg"
        cfg.write_text(TINY + "proposal.source = checkpoint\n"
                       "proposal.hidden_channels = 4\n"
                       f"proposal.checkpoint = {ckpt}\n")
        assert self.run_cli("render", "--config", str(cfg), "--out-dir",
                            str(tmp_path / "out")) == 3
        assert ("truncated" if damage == "truncated" else "magic") in capsys.readouterr().err

    def test_unwritable_out_dir_exits_4(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("x")
        assert self.run_cli("info", "--out-dir", str(blocker / "sub")) in (0, 4)
        cfg = tmp_path / "c.cfg"
        cfg.write_text(TINY)
        assert self.run_cli("bench", "--config", str(cfg), "--out-dir",
                            str(blocker / "sub")) == 4

    def test_env_var_overrides_workers(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("VOLSAMPLER_THREADS", "not-a-number")
        cfg = tmp_path / "c.cfg"
        cfg.write_text(TINY)
        assert self.run_cli("bench", "--config", str(cfg), "--out-dir",
                            str(tmp_path / "o")) == 2

    def test_render_writes_images(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(TINY)
        out = tmp_path / "render_out"
        assert self.run_cli("render", "--config", str(cfg), "--method",
                            "uniform-dense", "--spp", "4",
                            "--out-dir", str(out)) == 0
        assert (out / "two-spheres_uniform-dense.pfm").exists()
        assert (out / "two-spheres_uniform-dense.ppm").exists()

    def test_module_entry_point(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(os.path.dirname(__file__), "..", "src"),
             env.get("PYTHONPATH", "")])
        res = subprocess.run([sys.executable, "-m", "volsampler", "info"],
                             capture_output=True, text=True, env=env)
        assert res.returncode == 0
        assert "volsampler" in res.stdout


class TestTrainAndCompareCli:
    def test_train_proposal_writes_checkpoint_and_losses(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("""
scene.name = wall
camera.height = 16
camera.width = 16
render.z_bins = 16
proposal.hidden_channels = 4
train.steps = 2
train.patch = 8
""")
        out = tmp_path / "train_out"
        assert main(["train-proposal", "--config", str(cfg),
                     "--out-dir", str(out)]) == 0
        assert (out / "proposal.vsmp").exists()
        text = (out / "train_loss.csv").read_text()
        assert text.startswith("step,loss\n") and len(text.splitlines()) == 3

    def test_compare_samplers_runs_preset(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(TINY)
        out = tmp_path / "cmp_out"
        assert main(["compare-samplers", "--config", str(cfg), "--spp", "2",
                     "--out-dir", str(out)]) == 0
        assert (out / "bench.csv").exists()
        body = (out / "bench.csv").read_text()
        assert "robust" in body and "unstratified" in body

    def test_bench_reads_probe_keys(self, tmp_path):
        base = ("camera.height = 32\ncamera.width = 32\nrender.z_bins = 48\n"
                "bench.methods = robust\nbench.spp = 4\n")
        csv = {}
        for name, extra in [("default", ""),
                            ("no-merge", "sampler.merge_probe_samples = false\n"),
                            ("stratified-probe", "render.probe_mode = stratified\n")]:
            cfg = tmp_path / f"{name}.cfg"
            cfg.write_text(base + extra)
            out = tmp_path / name
            assert main(["bench", "--deterministic", "--seed", "3", "--config",
                         str(cfg), "--out-dir", str(out)]) == 0
            csv[name] = (out / "bench.csv").read_text()
        assert csv["no-merge"] != csv["default"]
        assert csv["stratified-probe"] != csv["default"]

    def test_bad_fallback_key_exits_2(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(TINY + "sampler.fallback = resample\n")
        assert main(["bench", "--config", str(cfg),
                     "--out-dir", str(tmp_path / "o")]) == 2


# (subcommand with its flags, config lines added to TINY); each is refused
# before anything larger than TINY's 16x16 camera is rendered
BAD_INPUTS = [
    ("render", "camera.height = 0"),
    ("render", "sampler.tau = 0"),
    ("render", "sampler.score_bins = 48"),  # = render.z_bins
    ("render", "sampler.base_spp = 0"),
    ("render", "render.probe_factor = 0"),
    ("render", "render.probe_mode = foo"),
    ("render", "scene.name = cube"),
    ("render", "camera.fov = 4"),
    ("bench", "render.reference_spp = 0"),
    ("train-proposal", "train.steps = 1\ntrain.patch = 100"),
    ("train-proposal", "train.steps = 1\ncamera.height = 18"),
    ("render", "camera.up = 0,0,1"),  # parallel to the view direction
    ("render", "scene.beta = -1"),
    ("render", "proposal.lift_blur_sigma = nan"),
    ("render --method robust --spp 0", ""),
    ("render --method uniform-dense --spp 0", ""),
    ("train-proposal --steps -3", ""),
    ("train-proposal --steps 0", ""),
]


@pytest.mark.parametrize("command,extra", BAD_INPUTS,
                         ids=[(extra or command).splitlines()[-1]
                              for command, extra in BAD_INPUTS])
def test_invalid_value_exits_2(tmp_path, capsys, command, extra):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(TINY + extra + "\n")
    argv = command.split() + ["--config", str(cfg), "--out-dir", str(tmp_path / "o")]
    assert main(argv) == 2
    assert "config error:" in capsys.readouterr().err


def test_main_leaves_numpy_error_state_unchanged(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(TINY)
    with np.errstate(all="warn"):
        before = np.geterr()
        assert main(["info"]) == 0
        assert main(["render", "--config", str(cfg), "--out-dir", str(tmp_path / "o")]) == 0
        assert main(["render", "--config", str(tmp_path / "missing.cfg")]) == 2
        assert np.geterr() == before


@dataclass
class RecordingConfig(Config):
    read: set = field(default_factory=set)

    def get(self, key: str) -> str:
        self.read.add(key)
        return super().get(key)


def test_pipeline_reads_every_config_key():
    cfg = RecordingConfig(dict(DEFAULTS))
    Pipeline.from_config(cfg)
    assert cfg.read == set(DEFAULTS)


_TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=12)
_VALUES = st.one_of(
    st.sampled_from(["", "0", "1", "-1", "3", "4", "16", "48", "nan", "inf",
                     "1e308", "0,0,1", "0,1,0", "0,0,2.8", "true", "no", "foo",
                     "two-spheres", "wall", "checkpoint", "oracle-full",
                     "stratified", "robust", "robust,sorcery", "2,0"]),
    st.integers(-10**4, 10**4).map(str),
    st.floats().map(str),
    st.lists(st.floats(), min_size=1, max_size=4).map(lambda v: ",".join(map(str, v))),
    _TEXT)
_LINES = st.one_of(st.tuples(st.sampled_from(sorted(DEFAULTS)), _VALUES)
                   .map(lambda kv: f"{kv[0]} = {kv[1]}"), _TEXT)


@settings(max_examples=300, deadline=None)
@given(lines=st.lists(_LINES, max_size=8))
def test_any_config_text_gives_a_pipeline_or_config_error(lines):
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "fuzz.cfg"
        path.write_text("\n".join(lines), encoding="utf-8")
        try:
            pipe = Pipeline.from_config(Config.load(path))
        except ConfigError:
            return
    assert isinstance(pipe, Pipeline)


def _header_offsets(net: ProposalNet) -> list[int]:
    """Byte offsets of a checkpoint's file header and of every tensor's
    rank and shape fields: changing any of them makes the file malformed."""
    offsets, pos = list(range(12)), 12
    for p in net.params:
        size = 4 + 4 * p.value.ndim
        offsets += range(pos, pos + size)
        pos += size + 4 * p.value.size
    return offsets


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_damaged_checkpoint_exits_3(data):
    net = ProposalNet(z_bins=16, hidden=4)
    with tempfile.TemporaryDirectory() as d:
        ckpt = Path(d) / "net.vsmp"
        save_checkpoint(net, ckpt)
        raw = ckpt.read_bytes()
        kind = data.draw(st.sampled_from(["truncate", "append", "header"]))
        if kind == "truncate":
            raw = raw[:data.draw(st.integers(0, len(raw) - 1))]
        elif kind == "append":
            raw += data.draw(st.binary(min_size=1, max_size=16))
        else:
            at = data.draw(st.sampled_from(_header_offsets(net)))
            raw = raw[:at] + bytes([raw[at] ^ data.draw(st.integers(1, 255))]) + raw[at + 1:]
        ckpt.write_bytes(raw)
        cfg = Path(d) / "c.cfg"
        cfg.write_text("scene.name = wall\ncamera.height = 16\ncamera.width = 16\n"
                       "render.z_bins = 16\nsampler.score_bins = 8\n"
                       "proposal.hidden_channels = 4\nproposal.source = checkpoint\n"
                       f"proposal.checkpoint = {ckpt}\n")
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(["render", "--config", str(cfg), "--out-dir", str(Path(d) / "o")])
    assert code == 3, err.getvalue()
    assert "checkpoint error:" in err.getvalue()
