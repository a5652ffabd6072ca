import contextlib
import io
import os
import struct
import subprocess
import sys
import tempfile
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from volsampler import proposal
from volsampler.bench import Pipeline
from volsampler.cli import main
from volsampler.config import DEFAULTS, Config, ConfigError, parse_config_text
from volsampler.proposal import ProposalNet, TrainConfig, save_checkpoint
from volsampler.sampling import SampleBudget


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
        # 192 bins, so the 16x16 truth render spans two chunks and two
        # workers split it; the outputs must not depend on the worker count
        cfg = tmp_path / "c.cfg"
        cfg.write_text("""
scene.name = wall
camera.height = 16
camera.width = 16
render.z_bins = 192
proposal.hidden_channels = 4
train.steps = 2
train.patch = 8
""")
        outputs = []
        for workers in ("1", "2"):
            out = tmp_path / f"train_out_{workers}"
            assert main(["train-proposal", "--config", str(cfg), "--workers", workers,
                         "--out-dir", str(out)]) == 0
            assert (out / "proposal.vsmp").exists()
            text = (out / "train_loss.csv").read_text()
            assert text.startswith("step,loss\n") and len(text.splitlines()) == 3
            outputs.append([(out / name).read_bytes()
                            for name in ("proposal.vsmp", "train_loss.csv")])
        assert outputs[0] == outputs[1]

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
                            ("no-merge", "sampler.merge_probe_samples = false\n")]:
            cfg = tmp_path / f"{name}.cfg"
            cfg.write_text(base + extra)
            out = tmp_path / name
            assert main(["bench", "--deterministic", "--seed", "3", "--config",
                         str(cfg), "--out-dir", str(out)]) == 0
            csv[name] = (out / "bench.csv").read_text()
        assert csv["no-merge"] != csv["default"]

    def test_bad_fallback_key_exits_2(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(TINY + "sampler.fallback = resample\n")
        assert main(["bench", "--config", str(cfg),
                     "--out-dir", str(tmp_path / "o")]) == 2


# keys deleted from the config, each at its last default
REMOVED_KEYS = [
    "scene.beta_band = 0.04",
    "scene.radius = 1.0",
    "scene.wall_z = 0.0",
    "proposal.lift_blur_sigma = 1.0",
    "train.lr_end_factor = 0.1",
    "train.adam_beta1 = 0.9",
    "train.adam_beta2 = 0.999",
    "train.blur_sigma = 1.0",
    "train.blur_radius = 3",
    "train.suppress_eps = 5e-3",
    "sampler.score_bins = 16",  # the boost score drops sampler.base_spp bins
]

SUBCOMMANDS = ("render", "bench", "train-proposal", "compare-samplers", "info")

# (subcommand with its flags, config lines added to TINY); each is refused
# before anything larger than TINY's 16x16 camera is rendered
BAD_INPUTS = [
    ("render", "camera.height = 0"),
    ("render", "sampler.tau = 0"),
    ("render", "sampler.boosted_spp = 48\nsampler.base_spp = 48"),  # = render.z_bins
    ("render", "sampler.base_spp = 0"),
    ("render", "render.probe_factor = 0"),
    ("render", "render.probe_mode = foo"),  # removed: the probe samples bin midpoints only
    ("render", "scene.name = cube"),
    ("render", "camera.fov = 4"),
    ("bench", "render.reference_spp = 0"),
    ("bench", "bench.spp = ,"),  # an empty list
    ("bench", "bench.methods = ,"),
    ("compare-samplers --spp ,", ""),
    ("train-proposal", "train.steps = 1\ntrain.patch = 100"),
    ("train-proposal", "train.steps = 1\ncamera.height = 18"),
    ("render", "camera.up = 0,0,1"),  # parallel to the view direction
    ("render", "scene.beta = -1"),
    ("render", "proposal.lift_blur_sigma = nan"),
    ("render --method robust --spp 0", ""),
    ("render --method uniform-dense --spp 0", ""),
    ("train-proposal --steps -3", ""),
    ("train-proposal --steps 0", ""),
    ("train-proposal", "train.lr = 1e39"),  # beyond float32, the net's dtype
    ("render", "train.lr = 3.5e38"),
    ("info", "sampler.tau = 0"),
    ("info", "camera.height = 18"),
    ("render --workers -3", ""),
] + [(f"{command} --seed -1", "") for command in SUBCOMMANDS
     ] + [(f"{command} --seed {2**64}", "") for command in SUBCOMMANDS
          ] + [(f"{command} --workers 0", "") for command in SUBCOMMANDS
               ] + [("render", line) for line in REMOVED_KEYS]


@pytest.mark.parametrize("command,extra", BAD_INPUTS,
                         ids=[("info: " if command == "info" else "")
                              + (extra or command).splitlines()[-1]
                              for command, extra in BAD_INPUTS])
def test_invalid_value_exits_2(tmp_path, capsys, command, extra):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(TINY + extra + "\n")
    argv = command.split() + ["--config", str(cfg), "--out-dir", str(tmp_path / "o")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "config error:" in err
    if extra in REMOVED_KEYS:
        assert "unknown config key" in err


def test_seeds_that_differ_give_different_bench_csv(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(TINY)
    csv = []
    for seed in (0, 2**32):
        out = tmp_path / str(seed)
        assert main(["bench", "--deterministic", "--seed", str(seed), "--config", str(cfg),
                     "--out-dir", str(out)]) == 0
        csv.append((out / "bench.csv").read_bytes())
    assert csv[0] != csv[1]


def test_render_spp_sets_flat_methods_only(tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(TINY)
    argv = ["render", "--config", str(cfg), "--out-dir"]
    assert main(argv + [str(tmp_path / "a"), "--spp", "64"]) == 2
    err = capsys.readouterr().err
    for key in ("sampler.base_spp", "sampler.boosted_spp", "sampler.boosted_fraction"):
        assert key in err
    frames = []
    for name, flag in [("default", []), ("given", ["--spp", "16"])]:
        out = tmp_path / name
        assert main(argv + [str(out), "--method", "robust"] + flag) == 0
        assert "[robust, spp 16]" in capsys.readouterr().out
        frames.append((out / "two-spheres_robust.pfm").read_bytes())
    assert frames[0] == frames[1]


def test_non_finite_training_writes_no_checkpoint(tmp_path):
    # an lr of 3e38 fits float32, but the first Adam step moves every weight
    # by about that much, and the second step's forward overflows, so its
    # loss is NaN; run as a process, as a user runs it, so the overflow
    # warning stays a warning
    cfg = tmp_path / "c.cfg"
    cfg.write_text("scene.name = wall\ncamera.height = 16\ncamera.width = 16\n"
                   "render.z_bins = 16\nsampler.base_spp = 8\nproposal.hidden_channels = 4\n"
                   "train.steps = 2\ntrain.patch = 8\ntrain.lr = 3e38\n")
    out = tmp_path / "o"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(os.path.dirname(__file__), "..", "src"), env.get("PYTHONPATH", "")])
    res = subprocess.run([sys.executable, "-m", "volsampler", "train-proposal", "--config",
                          str(cfg), "--out-dir", str(out)],
                         capture_output=True, text=True, env=env)
    assert res.returncode == 3, res.stderr
    assert "checkpoint error: training loss is nan at step 2" in res.stderr
    assert not (out / "proposal.vsmp").exists()


def test_training_stops_at_the_first_non_finite_loss(tmp_path, monkeypatch):
    # 20 steps are configured; the loss is NaN from step 2 on
    ckpt = tmp_path / "o" / "proposal.vsmp"
    cfg = tmp_path / "c.cfg"
    cfg.write_text("scene.name = two-spheres\ncamera.height = 16\ncamera.width = 16\n"
                   "render.z_bins = 16\nsampler.base_spp = 8\nproposal.hidden_channels = 4\n"
                   "train.steps = 20\ntrain.patch = 16\ntrain.lr = 3e38\n")
    steps = []
    train_step = proposal.train_step

    def counting_step(*args, **kwargs):
        steps.append(train_step(*args, **kwargs))
        return steps[-1]

    monkeypatch.setattr(proposal, "train_step", counting_step)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # the overflow itself
        code = main(["train-proposal", "--config", str(cfg), "--out-dir", str(ckpt.parent)])
    assert code == 3
    assert len(steps) <= 2 and not np.isfinite(steps[-1])
    assert not ckpt.exists() and not (ckpt.parent / "train_loss.csv").exists()


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


def test_library_defaults_match_config():
    pipe = Pipeline.from_config(Config.load(None))
    assert pipe.training == TrainConfig()
    assert pipe.budget == SampleBudget()


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


def _value_offset(net: ProposalNet, name: str) -> int:
    """Byte offset of the first value of tensor `name` in a checkpoint of net."""
    pos = 12
    for p in net.params:
        pos += 4 + 4 * p.value.ndim
        if p.name == name:
            return pos
        pos += 4 * p.value.size
    raise KeyError(name)


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
                       "render.z_bins = 16\nsampler.base_spp = 8\n"
                       "proposal.hidden_channels = 4\nproposal.source = checkpoint\n"
                       f"proposal.checkpoint = {ckpt}\n")
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(["render", "--config", str(cfg), "--out-dir", str(Path(d) / "o")])
    assert code == 3, err.getvalue()
    assert "checkpoint error:" in err.getvalue()


@pytest.mark.parametrize("command", SUBCOMMANDS)
def test_non_utf8_config_exits_2(tmp_path, capsys, command):
    cfg = tmp_path / "c.cfg"
    cfg.write_bytes(b"\xff\xfe" + TINY.encode("utf-16-le"))
    assert main([command, "--config", str(cfg), "--out-dir", str(tmp_path / "o")]) == 2
    assert "config error: cannot read config" in capsys.readouterr().err


@settings(max_examples=200, deadline=None)
@given(raw=st.binary(max_size=64))
def test_any_config_bytes_exit_0_or_2(raw):
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "fuzz.cfg"
        path.write_bytes(raw)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["info", "--config", str(path), "--out-dir", str(Path(d) / "o")])
    assert code in (0, 2), err.getvalue()
    assert code == 0 or "config error:" in err.getvalue()


@pytest.mark.parametrize("command", ["render", "bench"])
@pytest.mark.parametrize("tensor,value", [("conv1.w", np.nan), ("conv6.b", np.inf)])
def test_non_finite_checkpoint_exits_3(tmp_path, capsys, command, tensor, value):
    net = ProposalNet(z_bins=48, hidden=4)
    ckpt = tmp_path / "net.vsmp"
    save_checkpoint(net, ckpt)
    raw = bytearray(ckpt.read_bytes())
    at = _value_offset(net, tensor)
    raw[at:at + 4] = struct.pack("<f", value)
    ckpt.write_bytes(bytes(raw))
    cfg = tmp_path / "c.cfg"
    cfg.write_text(TINY + "proposal.source = checkpoint\nproposal.hidden_channels = 4\n"
                   f"proposal.checkpoint = {ckpt}\n")
    assert main([command, "--config", str(cfg), "--out-dir", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert "checkpoint error:" in err and tensor in err


def _readme_config_keys() -> set[str]:
    """The keys README's configuration table names, a row such as
    `train.steps/lr/patch` expanded to its three keys."""
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    table = readme.split("## Configuration", 1)[1].split("\n## ", 1)[0]
    keys = set()
    for line in table.splitlines():
        if line.startswith("| `"):
            names = [n.strip(" `") for n in line.split("|")[1].split("/")]
            section = names[0].split(".")[0]
            keys.update(n if "." in n else f"{section}.{n}" for n in names)
    return keys


def test_readme_config_table_names_every_key():
    assert _readme_config_keys() == set(DEFAULTS)
