"""Flat key-value configuration: `section.key = value` lines, `#` comments.

One parser, typed getters, and the default table the CLI and benchmarks run
from. Unknown keys are rejected so typos fail loudly (exit code 2 at the CLI).
"""
from __future__ import annotations

from dataclasses import dataclass, field


class ConfigError(ValueError):
    """Malformed configuration file or invalid value."""


DEFAULTS: dict[str, str] = {
    # scene
    "scene.name": "two-spheres",
    "scene.beta": "",            # empty -> catalog default
    # target (full-resolution) camera; the probe renders at 1/4 of it
    # (proposal.UPSCALE), so height and width are multiples of 4
    "camera.position": "0,0,2.8",
    "camera.look_at": "0,0,0",
    "camera.up": "0,1,0",
    "camera.fov": "0.69",
    "camera.height": "128",
    "camera.width": "128",
    # render
    "render.z_bins": "192",
    "render.reference_spp": "384",
    # sampler
    "sampler.tau": "0.98",
    "sampler.base_spp": "16",
    "sampler.boosted_spp": "32",
    "sampler.boosted_fraction": "0.10",
    "sampler.merge_probe_samples": "true",
    # proposal source: probe-lift | checkpoint | oracle-full
    "proposal.source": "probe-lift",
    "proposal.checkpoint": "",
    "proposal.hidden_channels": "64",
    # training
    "train.steps": "500",
    "train.lr": "2e-3",
    "train.patch": "16",
    # bench
    "bench.methods": "unstratified,stratified,robust",
    "bench.spp": "2,4,8,16,32,64",
    "bench.trials": "1",
}


def parse_config_text(text: str) -> dict[str, str]:
    """Parse `key = value` lines; `#` starts a comment, blank lines ignored."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        out[key] = value.strip()
    return out


@dataclass
class Config:
    values: dict[str, str] = field(default_factory=dict)

    @classmethod
    def load(cls, path=None, overrides: dict[str, str] | None = None) -> "Config":
        merged = dict(DEFAULTS)
        if path is not None:
            try:
                with open(path, "r", encoding="utf-8") as f:
                    text = f.read()
            except (OSError, UnicodeDecodeError) as e:
                raise ConfigError(f"cannot read config {path}: {e}") from e
            parsed = parse_config_text(text)
            for key in parsed:
                if key not in DEFAULTS:
                    raise ConfigError(f"unknown config key {key!r}")
            merged.update(parsed)
        if overrides:
            merged.update({k: v for k, v in overrides.items() if v is not None})
        return cls(merged)

    def get(self, key: str) -> str:
        try:
            return self.values[key]
        except KeyError:
            raise ConfigError(f"unknown config key {key!r}") from None

    def get_int(self, key: str) -> int:
        try:
            return int(self.get(key))
        except ValueError:
            raise ConfigError(f"{key} must be an integer, got {self.get(key)!r}") from None

    def get_float(self, key: str) -> float:
        try:
            return float(self.get(key))
        except ValueError:
            raise ConfigError(f"{key} must be a number, got {self.get(key)!r}") from None

    def get_opt_float(self, key: str):
        v = self.get(key)
        return None if v == "" else self.get_float(key)

    def get_bool(self, key: str) -> bool:
        v = self.get(key).lower()
        if v in ("true", "1", "yes", "on"):
            return True
        if v in ("false", "0", "no", "off"):
            return False
        raise ConfigError(f"{key} must be a boolean, got {v!r}")

    def get_vec3(self, key: str) -> tuple[float, float, float]:
        parts = [p for p in self.get(key).replace(",", " ").split() if p]
        if len(parts) != 3:
            raise ConfigError(f"{key} must have 3 components, got {self.get(key)!r}")
        try:
            x, y, z = (float(p) for p in parts)
        except ValueError:
            raise ConfigError(f"{key} has non-numeric components: {self.get(key)!r}") from None
        return (x, y, z)

    def get_list(self, key: str) -> list[str]:
        return [p.strip() for p in self.get(key).split(",") if p.strip()]

    def get_int_list(self, key: str) -> list[int]:
        try:
            return [int(p) for p in self.get_list(key)]
        except ValueError:
            raise ConfigError(f"{key} must be a comma list of integers") from None

    def dump(self) -> str:
        return "\n".join(f"{k} = {v}" for k, v in sorted(self.values.items()))
