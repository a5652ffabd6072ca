import os
import subprocess
import sys

import pytest

from volsampler.cli import main
from volsampler.config import Config, ConfigError, parse_config_text
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
render.probe_factor = 4
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
