"""Time the protocol error checks and the Choi construction.

    python bench/bench_protocol_error.py --label new [--out BENCH_protocol_error.json]

Imports decoupkit from the src/ directory of the checkout this file sits in,
with BLAS pinned to one thread.  Every case runs once untimed, then REPEATS
times under time.perf_counter; its median, min and the value it returned go
under --label in the --out JSON file, with the seed and the machine.
Entries of other labels are kept, so running this script in two checkouts
(say, a parent commit and a change) collects both sides in one file.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np

from decoupkit import channels, cli, protocols
from decoupkit.qmat import PartialIsom, space, truncation_isometry
from decoupkit.twirl import RngSeed, haar_unitary

SEED = 11
REPEATS = 7


def _schumacher_case(n: int):
    """_schumacher_error at the CLI's rate-default code size (skewed, alpha 1.5)."""
    psi = cli.fixture_pure_ar("skewed", RngSeed(SEED))
    dan = 2 ** n
    dim_b = cli._schumacher_default_dim_b(psi, n, 1.5, 0.1)
    psin = protocols.iid_pure(psi, n)
    w = truncation_isometry(space(A=dan), space(B=dim_b))
    u = haar_unitary(dan, RngSeed(SEED).stream(n).generator())
    w2 = PartialIsom(w.domain_space, w.codomain_space, w.entries @ u)
    dims = {"n": n, "dim_b": dim_b, "dense_dim": dim_b * dan + 1}
    return dims, lambda: protocols._schumacher_error(psin, w2, dim_b)


def _fqsw_case(n: int):
    psi = cli.fixture_pure_abr("random", RngSeed(SEED))
    return ({"n": n, "dim_a1": 2, "dim_a2": 2},
            lambda: protocols.fqsw_run(psi, n, 2, 2, RngSeed(SEED)).measured_error)


def _merge_case(n: int):
    psi = cli.fixture_pure_abr("random", RngSeed(SEED))
    cfg = protocols.MergeConfig(2, 2, 2)
    return ({"n": n, "dim_a0": 2, "dim_a1": 2, "dim_e": 2},
            lambda: protocols.merge_run(psi, n, cfg, RngSeed(SEED)).measured_error)


def _choi_case(d: int):
    t = channels.compressive_map(truncation_isometry(space(A=d), space(B=d // 2)))
    return ({"d_in": d, "d_out": d // 2, "kraus": len(t.kraus)},
            lambda: np.linalg.norm(channels.choi(t).op.entries))


CASES = {
    **{f"schumacher_error n={n}": (_schumacher_case, n) for n in (4, 5, 6)},
    "fqsw_run n=4": (_fqsw_case, 4),
    "merge_run n=2": (_merge_case, 2),
    **{f"choi d_in={d}": (_choi_case, d) for d in (8, 16, 32)},
}


def machine() -> dict:
    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    blas = deps.get("blas", {})
    return {"nproc": os.cpu_count(), "platform": platform.platform(),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
            "threads": {v: os.environ[v] for v in
                        ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}}


def run_case(make, arg) -> dict:
    dims, fn = make(arg)
    value = float(fn())
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return {**dims, "value": value, "repeats": REPEATS,
            "median_s": statistics.median(times), "min_s": min(times)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label", required=True, help="key for this checkout's results")
    ap.add_argument("--out", default=str(ROOT / "BENCH_protocol_error.json"))
    args = ap.parse_args(argv)
    out = Path(args.out)
    doc = json.loads(out.read_text()) if out.exists() else {}
    results = {}
    for name, (make, arg) in CASES.items():
        results[name] = run_case(make, arg)
        print(f"{name:24s} median {results[name]['median_s'] * 1e3:10.2f} ms",
              flush=True)
    doc.setdefault("results", {})[args.label] = {
        "seed": SEED, "machine": machine(), "cases": results}
    out.write_text(json.dumps(doc, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
