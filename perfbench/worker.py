"""One benchmark process: set up, then run a workload's points one by one.

Started by run.py with the thread variables already fixed; it runs part
--part of --parts of the run's point list.  Set-up imports decoupkit, parses
the part's configs and runs the workload's cheapest point once untimed, then
prints READY.  Then it runs the closed loop: each point goes through the public
`cli.run` + `cli.emit`, and the next one starts only when the previous one
has returned.  Only those two calls are timed; reading the CSV back, the row
checks and the determinism checks happen outside the timed region.  The last
stdout line is a JSON document for run.py.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"


def _import_decoupkit():
    sys.path.insert(0, str(ROOT / "src"))
    import decoupkit
    from decoupkit import cli, config

    pkg = Path(decoupkit.__file__).resolve().parent
    if pkg != ROOT / "src" / "decoupkit":
        raise SystemExit(f"decoupkit imported from {pkg}, not from this checkout")
    return cli, config


def _source_digest() -> str:
    h = hashlib.sha256()
    for p in sorted((ROOT / "src" / "decoupkit").glob("*.py")):
        h.update(p.name.encode() + b"\0" + p.read_bytes() + b"\0")
    return h.hexdigest()[:16]


class CsvLedger:
    """CSV hashes per point config, kept across runs of one source tree.

    A config's CSV must be byte-identical every time it is run: under
    another worker count, with tracing on, or in an earlier run with the
    same seed.  A mismatch fails the point's rows.
    """

    def __init__(self, path: Path):
        self.path = path
        self.known = json.loads(path.read_text()) if path.exists() else {}

    def check(self, config_text: str, digest: str) -> str:
        key = hashlib.sha256(config_text.encode()).hexdigest()[:24]
        prev = self.known.setdefault(key, digest)
        return "" if prev == digest else "CSV bytes differ from an earlier run of this config"

    def save(self):
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_text(json.dumps(self.known, sort_keys=True))
        os.replace(tmp, self.path)


def environment() -> dict:
    import numpy
    import scipy

    deps = numpy.show_config(mode="dicts").get("Build Dependencies", {})
    blas = deps.get("blas", {})
    caches = {}
    cache_dir = Path("/sys/devices/system/cpu/cpu0/cache")
    for idx in sorted(cache_dir.glob("index*")):
        try:
            level = (idx / "level").read_text().strip()
            kind = (idx / "type").read_text().strip()
            caches[f"L{level}-{kind}"] = (idx / "size").read_text().strip()
        except OSError:
            continue
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
            "caches": caches,
            "threads": {k: os.environ.get(k) for k in
                        ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                         "MKL_NUM_THREADS", "DECOUPKIT_WORKERS")}}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--part", type=int, default=0)
    ap.add_argument("--parts", type=int, default=1)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    sys.path.insert(0, str(HERE))
    import workloads as wl

    # ---- set-up: import, parse this part's configs, one untimed warm-up point
    cli, config = _import_decoupkit()
    pts = wl.part(wl.points(args.workload, args.seed), args.part, args.parts)
    cfgs = [config.parse_config(p.config) for p in pts]
    work_dir = OUT / "out" / f"{args.workload}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    prefix = str(work_dir / "point")
    cli.emit(cli.run(config.parse_config(wl.warmup_config(args.workload))), prefix)
    print("READY", flush=True)

    done = []  # (point, CSV digest, one verdict per row)
    dim_b = {}

    def run_points(todo):
        """Run each (point, config) in turn; returns the point times."""
        times = []
        for p, cfg in todo:
            t0 = time.perf_counter()
            report = cli.run(cfg)
            cli.emit(report, prefix)
            times.append(time.perf_counter() - t0)
            data = Path(prefix + ".csv").read_bytes()
            rows = wl.parse_csv(data)
            done.append((p, hashlib.sha256(data).hexdigest(),
                           wl.check_rows(args.workload, rows)))
            b = wl.schumacher_dim_b(p.family, rows)
            if b is not None:
                dim_b.setdefault(p.family, set()).add(b)
        return times

    todo = list(zip(pts, cfgs))
    cycle = len({p.family for p in pts})  # points per grid cycle
    if not args.trace:
        result = {"times": run_points(todo),
                  "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
        if args.workload == "sweep" and args.part == 0:
            # The CSV must not depend on the worker count: run the first grid
            # cycle again, untimed, with both thread pools in use.
            os.environ["DECOUPKIT_WORKERS"] = "2"
            run_points(todo[:cycle])
            os.environ["DECOUPKIT_WORKERS"] = "1"
    else:
        import tracer as tr

        # Every point runs traced.  The points of every other grid cycle also
        # run untraced, in alternating order, so the overhead is measured on
        # pairs that share the machine's state; the ledger compares each
        # pair's CSVs.
        t = tr.Tracer()
        traced, pairs = [], []

        def run_traced(p, cfg):
            t.install()
            try:
                config.parse_config(p.config)
                traced.extend(run_points([(p, cfg)]))
            finally:
                t.uninstall()
            return traced[-1]

        for i, (p, cfg) in enumerate(todo):
            if i // cycle % 2:
                run_traced(p, cfg)
            elif i % 2:
                untraced = run_points([(p, cfg)])[0]
                pairs.append((untraced, run_traced(p, cfg)))
            else:
                with_trace = run_traced(p, cfg)
                pairs.append((run_points([(p, cfg)])[0], with_trace))
        trace_dir = OUT / "trace"
        trace_dir.mkdir(parents=True, exist_ok=True)
        spans_path = trace_dir / f"{args.workload}.npz"
        t.write(str(spans_path))
        result = {"times": traced, "pairs": pairs, "table": t.fold(),
                  "counters": t.counters(),
                  "spans_file": str(spans_path.relative_to(ROOT))}
    shutil.rmtree(work_dir)

    # loaded only now, so the ledger's size never shows in peak_rss_mb
    ledger = CsvLedger(OUT / "state" / f"csv-{args.workload}-{_source_digest()}.json")
    failures = []
    for p, digest, verdicts in done:
        same = ledger.check(p.config, digest)
        failures += [f"point {p.index} ({p.family}) row {r}: {why or same}"
                     for r, why in enumerate(verdicts) if why or same]
    ledger.save()
    result.update(
        attempted=sum(len(v) for _, _, v in done), failures=failures,
        dim_b={k: sorted(v) for k, v in dim_b.items()},
        environment=environment())
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
