"""Plain-text configuration files and command-line overrides.

Format: one ``key = value`` pair per line; ``#`` starts a comment; blank
lines are ignored.  Values are coerced by the target dataclass field:
integer tuples are comma-separated (``channels = 4,8,16,32``), optional
floats accept ``none``, booleans accept true/false/1/0/yes/no.  Unknown
keys are rejected.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path

from .datasynth import SynthConfig
from .errors import ConfigError
from .model import ModelConfig

_TUPLE_FIELDS = {"channels", "kernel", "stride", "padding"}
_OPTIONAL_FLOAT_FIELDS = {"snr_db", "psd_smoothing_alpha"}


def parse_kv_text(text, origin="<config>"):
    """``key = value`` lines -> dict; raises ConfigError on malformed lines."""
    out = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{origin}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        if not key:
            raise ConfigError(f"{origin}:{lineno}: empty key")
        if key in out:
            raise ConfigError(f"{origin}:{lineno}: duplicate key {key!r}")
        out[key] = value.strip()
    return out


def _coerce(name, text, default):
    if name in _TUPLE_FIELDS:
        try:
            return tuple(int(part) for part in text.split(","))
        except ValueError as exc:
            raise ConfigError(f"{name}: expected comma-separated ints, got {text!r}") from exc
    if name in _OPTIONAL_FLOAT_FIELDS:
        if text.lower() in ("none", ""):
            return None
        try:
            return float(text)
        except ValueError as exc:
            raise ConfigError(f"{name}: expected a float or 'none', got {text!r}") from exc
    if isinstance(default, bool):
        low = text.lower()
        if low in ("1", "true", "yes", "on"):
            return True
        if low in ("0", "false", "no", "off"):
            return False
        raise ConfigError(f"{name}: expected a boolean, got {text!r}")
    if isinstance(default, int):
        try:
            return int(text)
        except ValueError as exc:
            raise ConfigError(f"{name}: expected an int, got {text!r}") from exc
    if isinstance(default, float):
        try:
            return float(text)
        except ValueError as exc:
            raise ConfigError(f"{name}: expected a float, got {text!r}") from exc
    return text


def _build(cls, raw):
    fields = {f.name: f for f in dataclasses.fields(cls)}
    unknown = set(raw) - set(fields)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    defaults = cls()
    kwargs = {}
    for name, text in raw.items():
        kwargs[name] = _coerce(name, text, getattr(defaults, name))
    cfg = dataclasses.replace(defaults, **kwargs)
    return cfg.validate()


def _gather(path, overrides):
    raw = {}
    if path is not None:
        p = Path(path)
        if not p.exists():
            raise ConfigError(f"config file not found: {p}")
        try:
            text = p.read_bytes().decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{p}: config file is not UTF-8 text: {exc}") from exc
        raw.update(parse_kv_text(text, origin=str(p)))
    for item in overrides or ():
        if "=" not in item:
            raise ConfigError(f"override must look like key=value, got {item!r}")
        key, value = item.split("=", 1)
        raw[key.strip()] = value.strip()
    return raw


def load_model_config(path=None, overrides=()) -> ModelConfig:
    return _build(ModelConfig, _gather(path, overrides))


def load_synth_config(path=None, overrides=()) -> SynthConfig:
    return _build(SynthConfig, _gather(path, overrides))


def config_to_text(cfg) -> str:
    """Serialize a config dataclass back to the key = value format."""
    lines = []
    for f in dataclasses.fields(cfg):
        value = getattr(cfg, f.name)
        if isinstance(value, tuple):
            value = ",".join(str(v) for v in value)
        elif value is None:
            value = "none"
        lines.append(f"{f.name} = {value}")
    return "\n".join(lines) + "\n"
