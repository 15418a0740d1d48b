"""Flat key = value configuration shared by the command-line tools."""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from pathlib import Path

from .errors import ParameterError


@dataclass(frozen=True)
class Config:
    genus: int = 1
    boundary: int = 1
    strands: int = 2
    max_chords: int = 2
    max_beads: int = 4
    window: int = 6
    node_budget: int = 10**6


_INT_KEYS = {f.name for f in fields(Config)}


def load_config(path) -> Config:
    """Read a flat ``key = value`` file; '#' starts a comment."""
    values: dict = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParameterError(f"{path}:{lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _INT_KEYS:
            raise ParameterError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            values[key] = int(value)
        except ValueError as exc:
            raise ParameterError(f"{path}:{lineno}: {key} needs an integer") from exc
    return Config(**values)


def override(cfg: Config, **kwargs) -> Config:
    """Apply non-None keyword overrides."""
    updates = {k: v for k, v in kwargs.items() if v is not None}
    return replace(cfg, **updates) if updates else cfg
