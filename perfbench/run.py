"""decoupkit benchmark: one workload, one seed, one JSON line of metrics.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 45 --trace 0

Run it from anywhere inside a checkout that holds `src/decoupkit`.  Every
measurement happens in a fresh interpreter (worker.py) whose BLAS/OpenMP
thread variables and DECOUPKIT_WORKERS are 1; a caller environment that sets
any of them otherwise is rejected.

--trace 0 reports the end-to-end metrics.  A round splits the run's point
list, in whole grid cycles, over PROCESSES fresh interpreters run one after
another, so no layout or allocator state of a single process sets the
figures.  Set-up is timed from spawning an interpreter until it prints
READY, and the median over the run's interpreters is reported.  Rounds are
repeated while another one is expected to end less than half a round past
--seconds of point time, at least once; wall_s is the median round.  The
host's speed drifts over tens of seconds, so a run spans several rounds.

--trace 1 runs the point list once in one interpreter with every decoupkit
layer wrapped by tracer.py, runs the points of every other grid cycle also
untraced, and reports the per-layer metrics listed in BENCHMARK.json and the
tracing overhead on those pairs.

The last stdout line is {"correct", "attempted", "failed", "metrics"}.  A row
fails on an `error` cell, a failed correctness check, or CSV bytes that
differ from another run of the same point config.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WARMUP  # noqa: E402

# pinned to 1 in every worker; DECOUPKIT_WORKERS=1 keeps each point on one thread
PINNED = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
          "DECOUPKIT_WORKERS")
PROCESSES = 5  # fresh interpreters per round; each gives one set-up sample
DEADLINE_S = 170.0  # the whole run, set-up included


def fail(msg: str) -> int:
    print(f"benchmark: {msg}", file=sys.stderr)
    return 2


def spawn(cmd: list[str], env: dict, deadline: float):
    """Start a worker; returns (process, seconds until it printed READY)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, text=True,
                            cwd=ROOT)
    line = proc.stdout.readline()
    setup = time.perf_counter() - t0
    if line.strip() != "READY" or time.perf_counter() > deadline:
        proc.kill()
        proc.wait()
        raise RuntimeError(f"worker set-up failed (exit {proc.returncode})")
    return proc, setup


def finish(proc, deadline: float) -> dict:
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.perf_counter(), 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError("worker ran past the run's deadline")
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def more_rounds(rounds: list, seconds: float) -> bool:
    """Whether another round would end less than half a round past `seconds`."""
    spent = sum(map(sum, rounds))
    return spent + spent / len(rounds) / 2 < seconds


def end_to_end(rounds: list, setups: list, results: list, failed_frac: float) -> dict:
    times = [t for rnd in rounds for t in rnd]
    return {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(sum(r) for r in rounds), "s"),
        "point_s.p50": (statistics.median(times), "s"),
        "point_s.p90": (statistics.quantiles(times, n=10)[-1], "s"),
        "peak_rss_mb": (max(r["peak_rss_mb"] for r in results), "MB"),
        # ops_failed = failed / attempted is 0 when all is well, so the
        # bounded metric is its complement
        "ops_ok_frac": (1.0 - failed_frac, "ratio"),
    }


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def per_layer(res: dict, wanted: list[dict]) -> dict:
    table, cnt, pairs = res["table"], res["counters"], res["pairs"]
    computed = {
        "channels.choi.repeat_ratio":
            _ratio(table["channels.choi"][0], cnt["channels.choi.distinct_maps"]),
        "decouple.simultaneous_witness.success_frac":
            _ratio(cnt["decouple.simultaneous_witness.found"],
                   table["decouple.simultaneous_witness"][0]),
        "entropy.h_cond.converged_frac":
            _ratio(cnt["entropy.h_cond.converged"], table["entropy.h_cond"][0]),
        "trace.overhead_pct":
            100.0 * (sum(t for _, t in pairs) / sum(u for u, _ in pairs) - 1.0),
    }
    out = {}
    for m in wanted:
        name = m["name"]
        span, _, field = name.rpartition(".")
        if name in computed:
            value = computed[name]
        elif field in ("calls", "self_s") and span in table:
            value = table[span][field == "self_s"]
        elif name in cnt:
            value = cnt[name]
        else:
            raise ValueError(f"per-layer metric {name!r} is not measured by the tracer")
        out[name] = (value, m["unit"])
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WARMUP))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    deadline = time.perf_counter() + DEADLINE_S

    if not (ROOT / "src" / "decoupkit" / "__init__.py").is_file():
        return fail(f"no decoupkit sources under {ROOT / 'src'}")
    for var in PINNED:
        if os.environ.get(var, "1") != "1":
            return fail(f"{var}={os.environ[var]} set by the caller; the benchmark pins it to 1")

    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--trace", str(args.trace)]
    env = dict(os.environ, **{var: "1" for var in PINNED})
    parts = 1 if args.trace else PROCESSES
    setups, rounds, results = [], [], []
    try:
        while not rounds or (not args.trace and more_rounds(rounds, args.seconds)):
            times = []
            for k in range(parts):
                proc, setup = spawn(cmd + ["--part", str(k), "--parts", str(parts)],
                                    env, deadline)
                setups.append(setup)
                results.append(finish(proc, deadline))
                times += results[-1]["times"]
            rounds.append(times)
    except (RuntimeError, OSError, ValueError) as e:
        return fail(str(e))
    failures = [f for r in results for f in r["failures"]]
    attempted = sum(r["attempted"] for r in results)
    dim_b = {}
    for r in results:
        for family, values in r["dim_b"].items():
            dim_b[family] = sorted(set(dim_b.get(family, [])) | set(values))

    print("environment:", json.dumps(results[0]["environment"], sort_keys=True))
    if dim_b:
        print("schumacher dim_b:", json.dumps(dim_b, sort_keys=True))
    for msg in failures[:20]:
        print("FAILED", msg)
    if args.trace:
        traced = results[0]
        pairs = traced["pairs"]
        print(f"trace: spans in {traced['spans_file']}; traced points {sum(rounds[0]):.3f} s; "
              f"{len(pairs)} points run both ways: untraced {sum(u for u, _ in pairs):.3f} s, "
              f"traced {sum(t for _, t in pairs):.3f} s")
        try:
            spec = json.loads((ROOT / "BENCHMARK.json").read_text())
            metrics = per_layer(traced, spec["per_layer"])
        except (OSError, KeyError, ValueError) as e:
            return fail(f"per-layer metrics: {e}")
    else:
        metrics = end_to_end(rounds, setups, results, len(failures) / attempted)
    print(f"{len(rounds)} round(s) of {len(rounds[0])} points in {parts} process(es)")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
