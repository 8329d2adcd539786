"""Declarative experiment runner with reproducible CSV/JSON reports.

Subcommands mirror the library modules: entropy, theta, twirl-check,
decouple, protocol, sweep.  Given the same config and seed the CSV output
is byte-identical regardless of the worker count.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import channels, decouple, entropy, twirl
from .config import ConfigError, ExperimentConfig, parse_config, serialize_config
from .protocols import (
    MergeConfig,
    destroy_run,
    fqsw_run,
    marginal,
    merge_run,
    schumacher_run,
)
from .qmat import (
    DensityOp,
    LabeledOperator,
    PureState,
    mes,
    purify,
    space,
    tensor,
    tensor_states,
    truncation_isometry,
)
from .twirl import RngSeed, UnitaryEnsemble, ensemble_average_operator

TOOL_VERSION = "0.1.0"

_COLUMNS = {
    "entropy": ["alpha", "dtype", "arrow", "value", "iterations", "converged",
                "error"],
    "theta": ["dim", "channel", "theta", "error"],
    "twirl_check": ["check", "max_abs_dev", "error"],
    "decouple": ["alpha", "n", "dtype", "log_nu_or_dimlog", "d_alpha", "theta",
                 "rhs", "lhs_mean", "lhs_stderr", "slack", "error"],
    "sweep": ["alpha", "n", "dtype", "log_nu_or_dimlog", "d_alpha", "theta",
              "rhs", "lhs_mean", "lhs_stderr", "slack", "error"],
    "protocol": ["protocol", "n", "alpha", "measured_error", "bound",
                 "rates", "tries", "anomaly", "error"],
}


@dataclass
class RunReport:
    config_echo: str
    rows: list
    tool_version: str = TOOL_VERSION
    wall_time: float = 0.0
    columns: list = field(default_factory=list)


def _fmt(x) -> str:
    if isinstance(x, bool):
        return str(x)
    if isinstance(x, (float, np.floating)):
        return f"{float(x):.17g}"
    return str(x)


def _row_seed(master: int, index: int) -> RngSeed:
    """An independent master seed per grid point, derived deterministically."""
    derived = int(np.random.SeedSequence(master, spawn_key=(7, index))
                  .generate_state(1)[0])
    return RngSeed(derived)


# ---------------------------------------------------------------------------
# fixtures


def fixture_pure_ar(name: str, seed: RngSeed) -> PureState:
    if name in ("default", "skewed"):
        rho = DensityOp(LabeledOperator(space(A=2), np.diag([0.9, 0.1])), "unit")
        return purify(rho, "R")
    if name == "bell":
        return mes(2, "A", "R")
    if name == "random":
        g = seed.stream(990).generator()
        v = g.normal(size=4) + 1j * g.normal(size=4)
        return PureState(space(A=2, R=2), v / np.linalg.norm(v))
    raise ValueError(f"unknown bipartite pure fixture {name!r}")


def fixture_pure_abr(name: str, seed: RngSeed) -> PureState:
    if name in ("default", "ghz"):
        v = np.zeros(8)
        v[0] = v[7] = 1.0 / math.sqrt(2.0)
        return PureState(space(A=2, B=2, R=2), v)
    if name == "product3":
        v = np.zeros(8)
        v[0] = 1.0
        return PureState(space(A=2, B=2, R=2), v)
    if name == "mes_ar":
        return tensor_states(
            mes(2, "A", "R"),
            PureState(space(B=2), np.array([1.0, 0.0]))).permuted(("A", "B", "R"))
    if name == "random":
        g = seed.stream(991).generator()
        v = g.normal(size=8) + 1j * g.normal(size=8)
        return PureState(space(A=2, B=2, R=2), v / np.linalg.norm(v))
    raise ValueError(f"unknown tripartite pure fixture {name!r}")


def fixture_density_ar(name: str, seed: RngSeed) -> DensityOp:
    if name in ("default", "classical"):
        m = np.zeros((4, 4))
        m[0, 0] = m[3, 3] = 0.5
        return DensityOp(LabeledOperator(space(A=2, R=2), m), "unit")
    if name == "product":
        return DensityOp(LabeledOperator(space(A=2, R=2), np.eye(4) / 4), "unit")
    if name in ("bell", "skewed", "random"):
        return fixture_pure_ar(name, seed).projector()
    raise ValueError(f"unknown density fixture {name!r}")


def channel_fixture(keyword: str, d: int) -> channels.KrausMap:
    """Named channel constructions addressable from the CLI."""
    name, _, arg = keyword.partition(":")
    sp = space(A=d)
    if name == "identity":
        return channels.identity_map(sp)
    if name == "trace":
        return channels.trace_map(sp)
    if name == "t_w":
        db = int(arg) if arg else max(d // 2, 1)
        return channels.t_w_map(truncation_isometry(sp, space(B=db)))
    if name == "compressive":
        db = int(arg) if arg else max(d // 2, 1)
        return channels.compressive_map(truncation_isometry(sp, space(B=db)))
    if name == "measurement":
        dd = int(arg) if arg else max(d // 2, 1)
        return channels.measurement_map(d, dd, in_space=sp)[0]
    if name == "randomizing":
        m = int(arg) if arg else d * d
        return channels.randomizing_map(channels.heisenberg_weyl(d)[:m], sp)
    if name == "depolarizing":
        p = float(arg) if arg else 0.5
        return channels.depolarizing_map(sp, p)
    raise ValueError(f"unknown channel fixture {keyword!r}")


# ---------------------------------------------------------------------------
# per-kind grid execution


def _dtypes(cfg: ExperimentConfig) -> list[str]:
    return ["old", "sandwiched"] if cfg.dtype == "both" else [cfg.dtype]


def _grid(cfg: ExperimentConfig) -> list[dict]:
    dims = cfg.dims or (2,)
    if cfg.kind == "entropy":
        return [{"alpha": a, "dtype": t, "arrow": ar}
                for a in cfg.alphas for t in _dtypes(cfg)
                for ar in ("fixed_marginal", "optimized")]
    if cfg.kind == "theta":
        return [{"dim": d} for d in dims]
    if cfg.kind == "twirl_check":
        return [{"check": "moment1"}, {"check": "moment2"}]
    if cfg.kind == "decouple":
        return [{"alpha": a, "n": n, "dtype": t, "dim_b": dims[0]}
                for a in cfg.alphas for n in cfg.ns for t in _dtypes(cfg)]
    if cfg.kind == "sweep":
        return [{"alpha": a, "n": n, "dtype": t, "dim_b": d}
                for a in cfg.alphas for n in cfg.ns for t in _dtypes(cfg)
                for d in dims]
    if cfg.kind == "protocol":
        return [{"alpha": a, "n": n} for a in cfg.alphas for n in cfg.ns]
    raise ValueError(f"unknown kind {cfg.kind!r}")


def _entropy_row(cfg: ExperimentConfig, pt: dict, seed: RngSeed) -> dict:
    rho = fixture_density_ar(cfg.fixture, seed)
    p = entropy.RenyiParams(pt["alpha"], pt["dtype"], pt["arrow"])
    res = entropy.h_cond(rho, "R", p)
    return {"alpha": pt["alpha"], "dtype": pt["dtype"], "arrow": pt["arrow"],
            "value": res.value, "iterations": res.iterations,
            "converged": res.converged, "error": ""}


def _theta_row(cfg: ExperimentConfig, pt: dict, seed: RngSeed) -> dict:
    t = channel_fixture(cfg.fixture if cfg.fixture != "default" else "trace",
                        pt["dim"])
    rep = channels.theta(t)
    return {"dim": pt["dim"], "channel": cfg.fixture, "theta": rep.theta,
            "error": ""}


def _twirl_row(cfg: ExperimentConfig, pt: dict, seed: RngSeed) -> dict:
    ens = UnitaryEnsemble("clifford_qubit", 2)
    g = seed.stream(992).generator()
    dev = 0.0
    for _ in range(5):
        sig = LabeledOperator(space(A=2, R=2),
                              g.normal(size=(4, 4)) + 1j * g.normal(size=(4, 4)))
        if pt["check"] == "moment1":
            exact = twirl.twirl_moment1(sig)
            avg = ensemble_average_operator(
                lambda u: twirl._conjugate_on(sig, u, "A"), ens)
        else:
            x = LabeledOperator(space(A=2),
                                g.normal(size=(2, 2)) + 1j * g.normal(size=(2, 2)))
            w = LabeledOperator(space(R=2),
                                g.normal(size=(2, 2)) + 1j * g.normal(size=(2, 2)))
            exact = twirl.twirl_moment2(sig, x, w)
            x_w = tensor(x, w)

            def one(u):
                rot = twirl._conjugate_on(sig, u, "A")
                rot_d = twirl._conjugate_on(sig.dagger(), u, "A")
                return rot @ x_w @ rot_d

            avg = ensemble_average_operator(one, ens)
        dev = max(dev, float(np.abs(exact.entries - avg.entries).max()))
    return {"check": pt["check"], "max_abs_dev": dev, "error": ""}


def _decouple_row(cfg: ExperimentConfig, pt: dict, seed: RngSeed) -> dict:
    rho = fixture_density_ar(cfg.fixture, seed)
    da = rho.space.dim_of("A")
    n = pt["n"]
    dim_b = pt["dim_b"]
    if dim_b > da ** n:
        raise ValueError(f"dim_b = {dim_b} exceeds |A|^n = {da ** n}")
    w = truncation_isometry(space(A=da ** n), space(B=dim_b))
    t = channels.compose(channels.trace_map(space(B=dim_b)), channels.t_w_map(w))
    inst = decouple.DecouplingInstance(rho, t, pt["alpha"], "optimize", n,
                                       pt["dtype"])
    rep = decouple.thm1_rhs(inst) if n == 1 else decouple.thm1_rhs_iid(inst)
    est = decouple.mc_lhs(inst, cfg.samples, seed)
    terms = rep.exponent_terms
    size_term = terms.get("log_nu", terms.get("dim_log_term"))
    return {"alpha": pt["alpha"], "n": n, "dtype": pt["dtype"],
            "log_nu_or_dimlog": size_term, "d_alpha": terms["d_alpha_term"],
            "theta": terms["theta"], "rhs": rep.rhs, "lhs_mean": est.mean,
            "lhs_stderr": est.stderr, "slack": rep.rhs - est.mean, "error": ""}


def _schumacher_default_dim_b(psi, n: int, alpha: float, delta1: float) -> int:
    """Schumacher code size when `dims` is unset: delta1 bits per copy above the
    dual Renyi entropy H_{1/alpha} of the A marginal, clipped to [1, 2^n]."""
    h = entropy.renyi_entropy(marginal(psi.amplitudes, psi.space, ("A",)), 1.0 / alpha)
    return max(1, min(2 ** n, math.floor(2.0 ** (n * (h + delta1)))))


def _protocol_row(cfg: ExperimentConfig, pt: dict, seed: RngSeed) -> dict:
    n = pt["n"]
    alpha = pt["alpha"]
    which = cfg.protocol
    if which == "schumacher":
        psi = fixture_pure_ar(cfg.fixture, seed)
        if cfg.dims:
            dim_b = cfg.dims[0]
        else:
            dim_b = _schumacher_default_dim_b(psi, n, alpha, cfg.delta1)
        res = schumacher_run(psi, n, dim_b, seed, alpha)
    elif which == "fqsw":
        psi = fixture_pure_abr(cfg.fixture, seed)
        dim_a1 = cfg.dims[0] if len(cfg.dims) >= 1 else 2
        dim_a2 = cfg.dims[1] if len(cfg.dims) >= 2 else 2
        res = fqsw_run(psi, n, dim_a1, dim_a2, seed, alpha)
    elif which == "merge":
        psi = fixture_pure_abr(cfg.fixture, seed)
        d = list(cfg.dims) + [2, 2, 2]
        res = merge_run(psi, n, MergeConfig(d[0], d[1], d[2]), seed, alpha)
    elif which == "destroy":
        rho = fixture_density_ar(cfg.fixture, seed)
        res = destroy_run(rho, n, cfg.ms[0], seed, alpha=alpha)
    else:
        raise ValueError(f"unknown protocol {which!r}")
    rates = json.dumps({k: _fmt(v) for k, v in sorted(res.rates.items())})
    return {"protocol": which, "n": n, "alpha": alpha,
            "measured_error": res.measured_error, "bound": res.bound,
            "rates": rates, "tries": res.witnesses.get("tries", ""),
            "anomaly": res.witnesses.get("anomaly", ""), "error": ""}


_ROW_FNS = {
    "entropy": _entropy_row,
    "theta": _theta_row,
    "twirl_check": _twirl_row,
    "decouple": _decouple_row,
    "sweep": _decouple_row,
    "protocol": _protocol_row,
}


def run(cfg: ExperimentConfig) -> RunReport:
    """Execute the config's grid; one failing point never aborts the others."""
    t0 = time.monotonic()
    grid = _grid(cfg)
    cols = _COLUMNS[cfg.kind]
    fn = _ROW_FNS[cfg.kind]

    def one(item):
        idx, pt = item
        try:
            return fn(cfg, pt, _row_seed(cfg.seed, idx))
        except Exception as e:  # fail-soft: report the point, keep going
            row = {c: "" for c in cols}
            row.update({k: v for k, v in pt.items() if k in cols})
            row["error"] = f"{type(e).__name__}: {e}"
            return row

    workers = twirl._worker_count()
    items = list(enumerate(grid))
    if workers == 1:
        rows = [one(it) for it in items]
    else:
        with ThreadPoolExecutor(max_workers=workers) as ex:
            rows = list(ex.map(one, items))
    return RunReport(config_echo=serialize_config(cfg), rows=rows,
                     wall_time=time.monotonic() - t0, columns=cols)


def emit(report: RunReport, out_prefix: str, formats=("csv", "json")) -> list[str]:
    """Write <prefix>.csv and/or <prefix>.json; returns the paths written."""
    written = []
    cols = report.columns
    formatted = [{c: _fmt(r.get(c, "")) for c in cols} for r in report.rows]
    if "csv" in formats:
        path = out_prefix + ".csv"
        buf = io.StringIO()
        wr = csv.writer(buf, lineterminator="\n")
        wr.writerow(cols)
        for r in formatted:
            wr.writerow([r[c] for c in cols])
        _write_text(path, buf.getvalue())
        written.append(path)
    if "json" in formats:
        path = out_prefix + ".json"
        doc = {"tool_version": report.tool_version,
               "config": report.config_echo,
               "wall_time": report.wall_time,
               "rows": formatted}
        _write_text(path, json.dumps(doc, indent=2) + "\n")
        written.append(path)
    return written


def _write_text(path: str, text: str):
    try:
        with open(path, "w", encoding="utf-8") as f:
            f.write(text)
    except OSError as e:
        raise OSError(f"cannot write {path!r}: {e}") from e


# ---------------------------------------------------------------------------
# argument parsing


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="decoupkit",
        description="Decoupling-theorem toolkit experiment runner")
    sub = ap.add_subparsers(dest="command", required=True)
    names = [("entropy", "entropy"), ("theta", "theta"),
             ("twirl-check", "twirl_check"), ("decouple", "decouple"),
             ("protocol", "protocol"), ("sweep", "sweep")]
    for cmd, kind in names:
        p = sub.add_parser(cmd)
        p.set_defaults(kind=kind)
        p.add_argument("--config", help="config file path")
        p.add_argument("--seed", type=int, help="64-bit master seed")
        p.add_argument("--out", help="output path prefix")
        p.add_argument("--format", default=None,
                       help="comma-separated subset of csv,json")
        p.add_argument("--fixture", help="named builtin or fixture path")
        if cmd == "protocol":
            p.add_argument("which", nargs="?",
                           choices=["schumacher", "fqsw", "merge", "destroy"],
                           help="protocol to run")
    return ap


def _config_from_args(args) -> ExperimentConfig:
    if args.config:
        with open(args.config, encoding="utf-8") as f:
            cfg = parse_config(f.read())
        if cfg.kind != args.kind:
            raise ConfigError(
                [f"config kind {cfg.kind!r} does not match subcommand {args.kind!r}"])
    else:
        if args.seed is None:
            raise ConfigError(["missing required key 'seed' (no wall-clock seeding)"])
        cfg = ExperimentConfig(kind=args.kind, seed=args.seed)
    if args.seed is not None:
        cfg.seed = args.seed
    if args.out:
        cfg.out = args.out
    if args.fixture:
        cfg.fixture = args.fixture
    if getattr(args, "which", None):
        cfg.protocol = args.which
    return cfg


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _config_from_args(args)
    except ConfigError as e:
        for v in e.violations:
            print(f"config error: {v}", file=sys.stderr)
        return 2
    formats = tuple((args.format or "csv,json").split(","))
    for f in formats:
        if f not in ("csv", "json"):
            print(f"unknown format {f!r}", file=sys.stderr)
            return 2
    try:
        twirl._worker_count()
    except ValueError as e:
        print(f"environment error: {e}", file=sys.stderr)
        return 2
    report = run(cfg)
    paths = emit(report, cfg.out, formats)
    failures = sum(1 for r in report.rows if r.get("error"))
    print(f"{len(report.rows)} rows ({failures} failed) -> {', '.join(paths)}")
    return 0 if failures == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
