"""Experiment configuration: flat sectioned key = value text, fully validated.

The format is deliberately minimal so fixtures diff cleanly: blank lines and
'#' comments are ignored, '[section]' headers are allowed for grouping but
carry no meaning, and every other line must read 'key = value'.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

KINDS = ("entropy", "theta", "twirl_check", "decouple", "protocol", "sweep")
DTYPES = ("old", "sandwiched", "both")
MC_KINDS = ("decouple", "sweep")


class ConfigError(ValueError):
    """Carries every violation found, not just the first."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


@dataclass
class ExperimentConfig:
    kind: str
    seed: int
    fixture: str = "default"
    alphas: tuple = (1.5,)
    ns: tuple = (1,)
    dims: tuple = ()  # empty: each kind's own default
    ms: tuple = (4,)
    samples: int = 200
    dtype: str = "old"
    out: str = "run"
    protocol: str = "schumacher"
    delta1: float = 0.1
    delta2: float = 0.1


_LIST_INT = {"ns", "dims", "ms"}
_LIST_FLOAT = {"alphas"}
_SCALAR_INT = {"seed", "samples"}
_SCALAR_FLOAT = {"delta1", "delta2"}
_KNOWN = {f.name for f in fields(ExperimentConfig)}


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate; raises ConfigError listing every problem found."""
    raw = {}
    violations = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        s = line.split("#", 1)[0].strip()
        if not s:
            continue
        if s.startswith("[") and s.endswith("]"):
            continue
        if "=" not in s:
            violations.append(f"line {lineno}: expected 'key = value', got {s!r}")
            continue
        key, _, val = s.partition("=")
        key = key.strip()
        val = val.strip()
        if key not in _KNOWN:
            violations.append(f"line {lineno}: unknown key {key!r}")
            continue
        if key in raw:
            violations.append(f"line {lineno}: duplicate key {key!r}")
            continue
        raw[key] = (lineno, val)
    vals = {}
    for key, (lineno, val) in raw.items():
        try:
            vals[key] = _coerce(key, val)
        except ValueError as e:
            violations.append(f"line {lineno}: {key}: {e}")
    if "kind" not in raw:
        violations.append("missing required key 'kind'")
    if "seed" not in raw:
        violations.append("missing required key 'seed' (no wall-clock seeding)")
    if violations:
        raise ConfigError(violations)
    cfg = ExperimentConfig(**vals)
    violations = validate(cfg)
    if violations:
        raise ConfigError(violations)
    return cfg


def _coerce(key: str, val: str):
    if key in _LIST_INT:
        return tuple(int(x) for x in val.split(",") if x.strip())
    if key in _LIST_FLOAT:
        return tuple(float(x) for x in val.split(",") if x.strip())
    if key in _SCALAR_INT:
        return int(val)
    if key in _SCALAR_FLOAT:
        return float(val)
    return val


def validate(cfg: ExperimentConfig) -> list[str]:
    """All constraint violations, empty when the config is usable."""
    v = []
    if cfg.kind not in KINDS:
        v.append(f"kind: {cfg.kind!r} is not one of {KINDS}")
    if cfg.dtype not in DTYPES:
        v.append(f"dtype: {cfg.dtype!r} is not one of {DTYPES}")
    for name in ("alphas", "ns", "ms"):
        if len(getattr(cfg, name)) == 0:
            v.append(f"{name}: grid must be non-empty")
    for a in cfg.alphas:
        if not (0.0 < a <= 2.0):
            v.append(f"alphas: {a} outside the (0, 2] constraint")
    for n in cfg.ns:
        if n < 1:
            v.append(f"ns: {n} must be >= 1")
    for d in cfg.dims:
        if d < 1:
            v.append(f"dims: {d} must be >= 1")
    for m in cfg.ms:
        if m < 1:
            v.append(f"ms: {m} must be >= 1")
    if cfg.kind in MC_KINDS and cfg.samples < 2:
        v.append(f"samples: {cfg.samples} < 2 for Monte Carlo kind {cfg.kind!r}")
    if cfg.seed < 0 or cfg.seed >= 2 ** 64:
        v.append(f"seed: {cfg.seed} does not fit in 64 bits")
    return v


def serialize_config(cfg: ExperimentConfig) -> str:
    """Round-trip inverse of parse_config (parse(serialize(c)) == c)."""
    lines = ["[experiment]"]
    for f in fields(ExperimentConfig):
        val = getattr(cfg, f.name)
        if isinstance(val, tuple):
            val = ",".join(repr(x) for x in val)
        lines.append(f"{f.name} = {val}")
    return "\n".join(lines) + "\n"
