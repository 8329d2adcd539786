"""Workload definitions: the points each run sends and the checks on its rows.

Every point is one single-point config in decoupkit's `key = value` format.
A run's point list depends only on the workload name and the workload seed:
point i gets its own config seed derived from (workload seed, i), so no two
points of a run repeat a Monte Carlo draw that a result cache could skip.
Nothing here imports numpy, so the runner can use it before the thread
variables of its child processes are fixed.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from dataclasses import dataclass

SWEEP_SAMPLES = 6
SWEEP_CYCLES = 12      # 12 x 9 grid points = 108 points, equal thirds per n
PROTOCOL_CYCLES = 8    # 8 x 13 grid points = 104 points


@dataclass(frozen=True)
class Point:
    index: int
    family: str   # which grid entry; names the point in reports and dim_b records
    config: str   # full config text handed to decoupkit.config.parse_config


# the cheapest grid entry of each workload, run once untimed during set-up
WARMUP = {"sweep": "sweep n=2 alpha=2.0",
          "protocol": "schumacher n=3"}


def point_seed(workload_seed: int, index: int) -> int:
    """A 64-bit config seed for point `index`, fixed by the workload seed."""
    digest = hashlib.sha256(f"decoupkit-bench:{workload_seed}:{index}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


def _sweep_grid():
    for n in (2, 3, 4):
        for alpha in (1.25, 1.5, 2.0):
            yield (f"sweep n={n} alpha={alpha}",
                   f"kind = sweep\ndtype = old\nfixture = default\ndims = 2\n"
                   f"samples = {SWEEP_SAMPLES}\nalphas = {alpha}\nns = {n}\n")


def _protocol_grid():
    # Schumacher points leave `dims` unset, so dim_b always comes from the
    # rate-based default and an explicit `dims = 2` meaning cannot move them.
    for n in range(2, 7):
        yield (f"schumacher n={n}",
               f"kind = protocol\nprotocol = schumacher\nfixture = skewed\n"
               f"alphas = 1.5\nns = {n}\n")
    for n in range(2, 5):
        yield (f"fqsw n={n}",
               f"kind = protocol\nprotocol = fqsw\nfixture = random\n"
               f"alphas = 1.5\nns = {n}\ndims = 2,2\n")
    for n in range(1, 3):
        yield (f"merge n={n}",
               f"kind = protocol\nprotocol = merge\nfixture = random\n"
               f"alphas = 1.5\nns = {n}\ndims = 2,2,2\n")
    for n in range(2, 5):
        yield (f"destroy n={n}",
               f"kind = protocol\nprotocol = destroy\nfixture = classical\n"
               f"alphas = 1.5\nns = {n}\nms = 16\n")


_GRIDS = {"sweep": (_sweep_grid, SWEEP_CYCLES),
          "protocol": (_protocol_grid, PROTOCOL_CYCLES)}


def points(workload: str, seed: int) -> list[Point]:
    grid_fn, cycles = _GRIDS[workload]
    grid = list(grid_fn())
    out = []
    for i in range(cycles * len(grid)):
        family, body = grid[i % len(grid)]
        text = f"[experiment]\nseed = {point_seed(seed, i)}\n{body}"
        out.append(Point(i, family, text))
    return out


def warmup_config(workload: str) -> str:
    """The workload's cheapest grid entry with config seed 0, so every
    process of every run does the same untimed warm-up."""
    grid_fn, _ = _GRIDS[workload]
    return f"[experiment]\nseed = 0\n{dict(grid_fn())[WARMUP[workload]]}"


def part(pts: list[Point], k: int, parts: int) -> list[Point]:
    """Part k of `parts`, made of whole grid cycles so each part has every entry."""
    size = len({p.family for p in pts})
    cycles = len(pts) // size
    return pts[k * cycles // parts * size:(k + 1) * cycles // parts * size]


# ---------------------------------------------------------------------------
# per-row correctness checks, applied to the CSV bytes a user would read


def parse_csv(data: bytes) -> list[dict]:
    return list(csv.DictReader(io.StringIO(data.decode("utf-8"))))


def _finite(row: dict, key: str) -> float:
    x = float(row[key])
    if not math.isfinite(x):
        raise ValueError(f"{key} = {row[key]} is not finite")
    return x


def _check_sweep(row: dict) -> str:
    lhs, rhs, se = (_finite(row, k) for k in ("lhs_mean", "rhs", "lhs_stderr"))
    if not 0.0 <= lhs <= rhs + 3.0 * se:
        return f"lhs_mean {lhs!r} outside [0, rhs + 3 stderr = {rhs + 3.0 * se!r}]"
    return ""


def _check_protocol(row: dict) -> str:
    err, bound = _finite(row, "measured_error"), _finite(row, "bound")
    if not 0.0 <= err <= bound:
        return f"measured_error {err!r} outside [0, bound = {bound!r}]"
    if row["anomaly"] != "False":
        return f"witness search anomaly = {row['anomaly']!r}"
    return ""


_CHECKS = {"sweep": _check_sweep, "protocol": _check_protocol}


def check_rows(workload: str, rows: list[dict]) -> list[str]:
    """One message per row: empty when the row passes."""
    out = []
    for row in rows:
        if row.get("error"):
            out.append(f"error cell: {row['error']}")
            continue
        try:
            out.append(_CHECKS[workload](row))
        except (KeyError, ValueError) as e:
            out.append(f"unreadable row: {e}")
    return out


def schumacher_dim_b(family: str, rows: list[dict]) -> int | None:
    """dim_b = 2^(n * compression_rate) of a Schumacher row, else None."""
    if not family.startswith("schumacher") or not rows or rows[0].get("error"):
        return None
    n = int(rows[0]["n"])
    rate = float(json.loads(rows[0]["rates"])["compression_rate"])
    return round(2.0 ** (n * rate))
