"""Config files, ``--set`` overrides and checkpoint metadata, typed by one rule.

Format: one ``key = value`` pair per line; ``#`` starts a comment; blank
lines are ignored; unknown keys are rejected.  The type of a field's default
decides what its value may be: a list of ints for a tuple, true or false for
a bool, an int for an int, a number for a float, a number or null for a
``None`` default and a string for a str.  Config text is first read as the
JSON value it spells (``4,8`` is ``[4, 8]``, ``none`` or nothing is null; a
str field takes the text as it stands), then checked as checkpoint metadata is.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path

from .datasynth import SynthConfig
from .errors import ConfigError

_WORDS = {"": None, "none": None, "true": True, "false": False}


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


def _spelled(text, default):
    """The JSON value that config text spells for a field with this default."""
    if isinstance(default, str):
        return text
    if isinstance(default, tuple):
        return [_spelled(part.strip(), None) for part in text.split(",")]
    if text.lower() in _WORDS:
        return _WORDS[text.lower()]
    for number in (int, float):
        try:
            return number(text)
        except ValueError:
            pass
    return text


def _field_value(name, value, default):
    """``value`` (decoded JSON) checked against the type of the field's ``default``;
    tuples come back as tuples and numbers for float fields as floats."""

    def is_int(v):
        return isinstance(v, int) and not isinstance(v, bool)

    if isinstance(default, tuple):
        ok, kind = isinstance(value, (list, tuple)) and all(map(is_int, value)), "list of ints"
    elif isinstance(default, (bool, str)):
        ok, kind = isinstance(value, type(default)), type(default).__name__
    elif isinstance(default, int):
        ok, kind = is_int(value), "int"
    else:
        ok = (value is None and default is None) or is_int(value) or isinstance(value, float)
        kind = "number" if default is not None else "number or null"
    if not ok:
        raise ConfigError(f"config field {name!r} must be a {kind}, got {value!r}")
    if isinstance(default, tuple):
        return tuple(value)
    if (default is None or isinstance(default, float)) and value is not None:
        try:
            return float(value)
        except OverflowError:
            raise ConfigError(f"config field {name!r} is out of range: {value!r}") from None
    return value


def build_config(cls, values):
    """The validated ``cls`` whose fields take ``values``, a dict of decoded JSON
    values; an unknown key or a value not of its field's type is a ConfigError."""
    if not isinstance(values, dict):
        raise ConfigError(f"config must be a JSON object, got {type(values).__name__}")
    unknown = set(values) - {f.name for f in dataclasses.fields(cls)}
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    defaults = cls()
    kwargs = {k: _field_value(k, v, getattr(defaults, k)) for k, v in values.items()}
    return dataclasses.replace(defaults, **kwargs).validate()


def _load(cls, path, overrides):
    raw = {}
    if path is not None:
        p = Path(path)
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
    defaults = cls()
    values = {key: _spelled(text, getattr(defaults, key, None)) for key, text in raw.items()}
    return build_config(cls, values)


def load_model_config(path=None, overrides=()):
    from .model import ModelConfig  # model imports this module

    return _load(ModelConfig, path, overrides)


def load_synth_config(path=None, overrides=()) -> SynthConfig:
    return _load(SynthConfig, path, overrides)

