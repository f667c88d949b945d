"""Run configuration: a line-oriented ``key = value`` UTF-8 file.

Understood keys and defaults:

    dst.port          4747
    gmt.port          4748
    lease.ms          5000
    heartbeat.ms      1000
    pipeline.windows  8
    log.path          (none)

``log.path`` names the file a DST tier appends its store log to and
replays on restart; without it the store keeps no log.

All keys are optional; unknown keys are rejected rather than ignored so a
typo cannot silently fall back to a default.  Blank lines and ``#``
comments pass.  The file is named either by the ``EDUCTION_CONFIG``
environment variable or by ``--config``, which wins.
"""
from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Optional

from .errors import EductionError

ENV_VAR = "EDUCTION_CONFIG"


class UnknownKey(EductionError):
    def __init__(self, line: int, key: str):
        super().__init__(f"line {line}: unknown key {key!r}")
        self.line = line


class MalformedLine(EductionError):
    def __init__(self, line: int, text: str):
        super().__init__(f"line {line}: expected 'key = value', got {text!r}")
        self.line = line


@dataclass(frozen=True)
class Config:
    dst_port: int = 4747
    gmt_port: int = 4748
    lease_ms: int = 5000
    heartbeat_ms: int = 1000
    pipeline_windows: int = 8
    log_path: Optional[str] = None


_KEYS = {
    "dst.port": ("dst_port", int),
    "gmt.port": ("gmt_port", int),
    "lease.ms": ("lease_ms", int),
    "heartbeat.ms": ("heartbeat_ms", int),
    "pipeline.windows": ("pipeline_windows", int),
    "log.path": ("log_path", str),
}


def load_config(path: str) -> Config:
    fields = {}
    with open(path, "r", encoding="utf-8") as f:
        for lineno, raw in enumerate(f, start=1):
            text = raw.split("#", 1)[0].strip()
            if not text:
                continue
            key, eq, value = (part.strip() for part in text.partition("="))
            if not eq or not key or not value:
                raise MalformedLine(lineno, text)
            if key not in _KEYS:
                raise UnknownKey(lineno, key)
            attr, cast = _KEYS[key]
            try:
                fields[attr] = cast(value)
            except ValueError:
                raise MalformedLine(lineno, text) from None
    return Config(**fields)


def resolve_config(explicit_path: Optional[str] = None) -> Config:
    """--config beats EDUCTION_CONFIG beats built-in defaults."""
    path = explicit_path or os.environ.get(ENV_VAR)
    return load_config(path) if path else Config()
