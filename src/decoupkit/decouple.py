"""Decoupling bounds: exact RHS exponents, Monte Carlo LHS, witness search.

The central inequality bounds the expected trace-norm distance between
T(U rho U^dag) and the decoupled product omega_T (x) rho^R, averaged over a
unitary 2-design on A, by 4 * 2^((alpha-1)/(2 alpha) * exponent).  The
exponent combines a distinct-eigenvalue count, a Renyi divergence term, and
the map functional Theta.  This module evaluates both sides, searches for
simultaneous witness unitaries, and implements the pinching-projector lemmas
the proof rests on, plus the classical-quantum generalization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channels import KrausMap, is_class1, output_marginal, theta
from .entropy import INF_DIVERGENCE, RenyiParams, d_alpha, h_cond
from .qmat import (
    DensityOp,
    LabeledOperator,
    SubsystemSpace,
    distinct_eigs,
    identity_on,
    mat_power,
    partial_trace,
    pinch,
    positive_part_projector,
    tensor,
    trace_norm,
)
from .twirl import McEstimate, RngSeed, UnitaryEnsemble, _conjugate_on, haar_unitary, mc_average

MAX_MC_DIM = 4096


@dataclass
class DecouplingInstance:
    """One decoupling problem: state, class-1 map, order, conditioner, copies."""

    rho_AR: DensityOp
    T: KrausMap
    alpha: float
    sigma_R: DensityOp | str = "optimize"
    n_copies: int = 1
    dtype: str = "old"
    label_a: str = "A"
    label_r: str = "R"

    def __post_init__(self):
        if not (1.0 < self.alpha <= 2.0):
            raise ValueError(f"alpha must lie in (1, 2], got {self.alpha}")
        if self.n_copies < 1:
            raise ValueError("n_copies must be >= 1")
        verdict = is_class1(self.T)
        if verdict == "unknown":
            raise ValueError("the map carries no class-1 certificate")
        self.class1_verdict = verdict

    def dim_a(self) -> int:
        return self.rho_AR.space.dim_of(self.label_a)

    def dim_r(self) -> int:
        return self.rho_AR.space.dim_of(self.label_r)


@dataclass
class BoundReport:
    rhs: float
    exponent_terms: dict
    lhs: McEstimate | None = None
    slack: float | None = None


def _resolve_sigma(inst: DecouplingInstance):
    """Return (sigma_R, divergence term, nu) honoring the optimize marker."""
    p = RenyiParams(inst.alpha, inst.dtype, "optimized")
    if isinstance(inst.sigma_R, str):
        if inst.sigma_R != "optimize":
            raise ValueError(f"unknown sigma_R marker {inst.sigma_R!r}")
        res = h_cond(inst.rho_AR, inst.label_r, p)
        return res.optimizer, -res.value, distinct_eigs(res.optimizer.op)
    sig = inst.sigma_R
    ident = identity_on(inst.rho_AR.space.subspace((inst.label_a,)))
    ref = tensor(ident, sig.op).permuted(inst.rho_AR.labels)
    d = d_alpha(inst.rho_AR, ref, RenyiParams(inst.alpha, inst.dtype))
    return sig, d, distinct_eigs(sig.op)


def _prefactor(alpha: float) -> float:
    return (alpha - 1.0) / (2.0 * alpha)


def thm1_rhs(inst: DecouplingInstance) -> BoundReport:
    """Single-shot bound 4 * 2^(prefactor * (log2 nu + D_alpha + Theta))."""
    if inst.n_copies != 1:
        raise ValueError("thm1_rhs is the single-shot form; use thm1_rhs_iid")
    _, d_term, nu = _resolve_sigma(inst)
    th = theta(inst.T).theta
    terms = {"log_nu": math.log2(nu), "d_alpha_term": d_term, "theta": th}
    if d_term == INF_DIVERGENCE:
        return BoundReport(rhs=math.inf, exponent_terms=terms)
    expo = terms["log_nu"] + d_term + th
    return BoundReport(rhs=4.0 * 2.0 ** (_prefactor(inst.alpha) * expo),
                       exponent_terms=terms)


def thm1_rhs_iid(inst: DecouplingInstance) -> BoundReport:
    """n-copy bound with the type-counting estimate nu <= (n+1)^dim(R).

    The conditional entropy uses the optimized arrow on the single-copy
    state; Theta is taken from the instance's map, which acts on A^n.
    """
    n = inst.n_copies
    p = RenyiParams(inst.alpha, inst.dtype, "optimized")
    h = h_cond(inst.rho_AR, inst.label_r, p).value
    th = theta(inst.T).theta
    dim_r = inst.dim_r()
    terms = {
        "dim_log_term": dim_r * math.log2(n + 1),
        "d_alpha_term": -n * h,
        "theta": th,
        "exponent_per_copy": (dim_r * math.log2(n + 1) - n * h + th) / n,
    }
    expo = terms["dim_log_term"] + terms["d_alpha_term"] + th
    return BoundReport(rhs=4.0 * 2.0 ** (_prefactor(inst.alpha) * expo),
                       exponent_terms=terms)


def iid_state(rho_AR: DensityOp, n: int, label_a: str = "A",
              label_r: str = "R") -> DensityOp:
    """rho^(x)n with the copies' A factors and R factors each merged into one."""
    base = rho_AR.op.permuted((label_a, label_r))
    da = base.space.dim_of(label_a)
    dr = base.space.dim_of(label_r)
    cur = base.relabeled({label_a: "a0", label_r: "r0"})
    for i in range(1, n):
        nxt = base.relabeled({label_a: f"a{i}", label_r: f"r{i}"})
        cur = tensor(cur, nxt)
    a_labels = tuple(f"a{i}" for i in range(n))
    r_labels = tuple(f"r{i}" for i in range(n))
    cur = cur.permuted(a_labels + r_labels)
    merged = SubsystemSpace((label_a, label_r), (da ** n, dr ** n))
    return DensityOp(LabeledOperator(merged, cur.entries), rho_AR.trace_class)


def decoupling_error(inst: DecouplingInstance, u: np.ndarray) -> float:
    """|| T(U rho U^dag) - omega_T (x) rho^R ||_1 for one unitary on A^n."""
    state = inst.rho_AR if inst.n_copies == 1 else iid_state(
        inst.rho_AR, inst.n_copies, inst.label_a, inst.label_r)
    op = state.op
    rotated = _conjugate_on(op, u, inst.label_a)
    out = inst.T.apply(rotated)
    om_e = output_marginal(inst.T)
    sig_r = partial_trace(op, {inst.label_a})
    ref = tensor(om_e, sig_r).permuted(out.labels)
    return trace_norm(out - ref)


def mc_lhs(inst: DecouplingInstance, n_samples: int, seed: RngSeed,
           ensemble_kind: str = "haar") -> McEstimate:
    """Monte Carlo estimate of the decoupling error over the 2-design."""
    # check the cap before materializing the n-copy state
    total = inst.rho_AR.space.total_dim ** inst.n_copies
    if total > MAX_MC_DIM:
        raise ValueError(f"total dimension {total} exceeds the MC cap {MAX_MC_DIM}")
    state = inst.rho_AR if inst.n_copies == 1 else iid_state(
        inst.rho_AR, inst.n_copies, inst.label_a, inst.label_r)
    dim_a = state.space.dim_of(inst.label_a)
    if inst.T.in_space.total_dim != dim_a:
        raise ValueError(
            f"map input dimension {inst.T.in_space.total_dim} does not match A^n = {dim_a}")
    ens = UnitaryEnsemble(ensemble_kind, dim_a)
    big = DecouplingInstance(state, inst.T, inst.alpha, inst.sigma_R, 1,
                             inst.dtype, inst.label_a, inst.label_r)
    return mc_average(lambda u: decoupling_error(big, u), ens, n_samples, seed)


@dataclass
class WitnessReport:
    unitary: np.ndarray
    errors: list
    bounds: list
    tries: int
    anomaly: bool


def corollary1_search(instances, n_tries: int, seed: RngSeed) -> WitnessReport:
    """Sample unitaries until one satisfies all K decoupling conditions at once.

    The per-instance target is 4K times the n-copy exponent bound (union
    of Markov tails).  Exhausting the budget is reported as a statistics
    anomaly rather than an error, since existence is only guaranteed in
    expectation.
    """
    k = len(instances)
    if k == 0:
        raise ValueError("need at least one instance")
    states = []
    for inst in instances:
        st = inst.rho_AR if inst.n_copies == 1 else iid_state(
            inst.rho_AR, inst.n_copies, inst.label_a, inst.label_r)
        states.append(st)
    dim_a = states[0].space.dim_of(instances[0].label_a)
    for inst, st in zip(instances, states):
        if st.space.dim_of(inst.label_a) != dim_a:
            raise ValueError("all instances must share the same twirled system")
    bounds = []
    for inst in instances:
        rep = thm1_rhs_iid(inst)
        bounds.append(k * rep.rhs)
    errfns = []
    for inst, st in zip(instances, states):
        big = DecouplingInstance(st, inst.T, inst.alpha, inst.sigma_R, 1,
                                 inst.dtype, inst.label_a, inst.label_r)
        errfns.append(lambda u, b=big: decoupling_error(b, u))
    return simultaneous_witness(errfns, bounds, dim_a, n_tries, seed)


def simultaneous_witness(error_fns, bounds, dim_a: int, n_tries: int,
                         seed: RngSeed) -> WitnessReport:
    """Search for one unitary meeting every (error_fn <= bound) condition."""
    best_u = None
    best_errors = None
    best_excess = math.inf
    for t in range(1, n_tries + 1):
        u = haar_unitary(dim_a, seed.stream(t - 1).generator())
        errs = [f(u) for f in error_fns]
        excess = max(e - b for e, b in zip(errs, bounds))
        if excess < best_excess:
            best_excess = excess
            best_u = u
            best_errors = errs
        if excess <= 0:
            return WitnessReport(u, errs, list(bounds), t, anomaly=False)
    return WitnessReport(best_u, best_errors, list(bounds), n_tries, anomaly=True)


@dataclass
class ProjectorPair:
    zeta: float
    Pi: LabeledOperator
    Pi_hat: LabeledOperator


def projector_pair(rho: DensityOp, sigma, zeta: float) -> ProjectorPair:
    """Pi = {pinch_sigma(rho) >= zeta sigma} and its complement."""
    if zeta <= 0:
        raise ValueError("zeta must be positive")
    sig_op = sigma.op if isinstance(sigma, DensityOp) else sigma
    pinched = pinch(sig_op, rho.op)
    pi = positive_part_projector(pinched, zeta * sig_op)
    identity = identity_on(pi.space) if pi.space == rho.space else \
        LabeledOperator(pi.space, np.eye(pi.entries.shape[0]))
    return ProjectorPair(zeta=zeta, Pi=pi, Pi_hat=identity - pi)


def hayashi_bounds(rho: DensityOp, sigma, zeta: float, alpha: float):
    """The two pinching-projector estimates used inside the main proof.

    Returns ((lhs1, rhs1), (lhs2, rhs2)) for
      ||Pi rho||_1        <= zeta^((1-alpha)/2) sqrt(Q_alpha(rho||sigma))
      Tr sigma^-1 Pihat rho^2 Pihat <= nu_sigma zeta.
    """
    if not (1.0 < alpha <= 2.0):
        raise ValueError(f"alpha must lie in (1, 2], got {alpha}")
    from .entropy import q_alpha
    pair = projector_pair(rho, sigma, zeta)
    sig_op = sigma.op if isinstance(sigma, DensityOp) else sigma
    lhs1 = trace_norm(pair.Pi.entries @ rho.entries)
    q = q_alpha(rho, sig_op, RenyiParams(alpha, "old"))
    rhs1 = zeta ** ((1.0 - alpha) / 2.0) * math.sqrt(q) if q != INF_DIVERGENCE else math.inf
    sig_inv = mat_power(sig_op, -1.0)
    hat_rho = pair.Pi_hat.entries @ rho.entries
    lhs2 = float(np.trace(sig_inv.entries @ hat_rho @ hat_rho.conj().T).real)
    rhs2 = distinct_eigs(sig_op) * zeta
    return (lhs1, rhs1), (lhs2, rhs2)


def zeta_opt(x: float, y: float, alpha: float):
    """The proof's convenient choice zeta = (x/y)^(2/alpha) and its value."""
    if x <= 0 or y <= 0:
        raise ValueError("zeta_opt requires positive inputs")
    if not (1.0 < alpha <= 2.0):
        raise ValueError(f"alpha must lie in (1, 2], got {alpha}")
    z = (x / y) ** (2.0 / alpha)
    return z, x * z ** ((1.0 - alpha) / 2.0) + y * math.sqrt(z)


# ---------------------------------------------------------------------------
# classical-quantum generalization


@dataclass
class CqInstance:
    """An ensemble {p_x, rho_x} decoupled by M random (index, unitary) draws."""

    p: np.ndarray
    rho_x: list
    M: int
    T: KrausMap | None
    alpha: float
    sigma_R: DensityOp | None = None
    kappa_R: DensityOp | None = None
    dtype: str = "old"
    label_a: str = "A"
    label_r: str = "R"

    def __post_init__(self):
        self.p = np.asarray(self.p, dtype=float)
        if abs(self.p.sum() - 1.0) > 1e-12:
            raise ValueError(f"probabilities sum to {self.p.sum()}, not 1")
        if len(self.rho_x) != len(self.p):
            raise ValueError("probability vector and state list lengths differ")
        if self.M < 1:
            raise ValueError("M must be >= 1")
        if not (1.0 < self.alpha <= 2.0):
            raise ValueError(f"alpha must lie in (1, 2], got {self.alpha}")

    def has_quantum_part(self) -> bool:
        return self.T is not None and self.label_a in self.rho_x[0].labels


def _cq_joint(p, states, x_label="Xcls"):
    """Block-diagonal sum_x p_x |x><x| (x) rho_x as one labeled operator."""
    nx = len(states)
    base = states[0].op if isinstance(states[0], DensityOp) else states[0]
    d = base.space.total_dim
    sp = SubsystemSpace((x_label,) + base.labels, (nx,) + base.space.dims)
    out = np.zeros((nx * d, nx * d), dtype=complex)
    for x in range(nx):
        m = states[x].op.entries if isinstance(states[x], DensityOp) else states[x].entries
        out[x * d:(x + 1) * d, x * d:(x + 1) * d] = p[x] * m
    return LabeledOperator(sp, out)


def _cq_divergence(p, states, cond: DensityOp, alpha: float, dtype: str,
                   with_identity_on=None) -> float:
    """D_alpha(rho^{X S} || rho^X (x) [1_A (x)] cond) for the cq joint state."""
    joint = _cq_joint(p, states)
    base = states[0].op if isinstance(states[0], DensityOp) else states[0]
    ref_s = cond.op
    if with_identity_on is not None:
        ident = identity_on(base.space.subspace((with_identity_on,)))
        ref_s = tensor(ident, ref_s)
    ref_s = ref_s.permuted(base.labels)
    px = LabeledOperator(SubsystemSpace(("Xcls",), (len(states),)), np.diag(p))
    ref = tensor(px, ref_s)
    return d_alpha(DensityOp(joint), ref, RenyiParams(alpha, dtype))


def thm1_2_rhs(inst: CqInstance) -> BoundReport:
    """Two-term cq bound; each term is gated by its dimension indicator."""
    pref = _prefactor(inst.alpha)
    terms = {}
    rhs = 0.0
    base = inst.rho_x[0]
    dim_a = base.space.dim_of(inst.label_a) if inst.label_a in base.labels else 1
    nx = len(inst.rho_x)
    r_marg = [DensityOp(partial_trace(
        s.op, tuple(l for l in s.labels if l != inst.label_r))) for s in inst.rho_x]
    if dim_a != 1:
        if inst.T is None:
            raise ValueError("a quantum part requires a map T")
        sig = inst.sigma_R
        if sig is None:
            avg = sum(p * m.entries for p, m in zip(inst.p, r_marg))
            sig = DensityOp(LabeledOperator(r_marg[0].space, avg))
        d1 = _cq_divergence(inst.p, inst.rho_x, sig, inst.alpha, inst.dtype,
                            with_identity_on=inst.label_a)
        th = theta(inst.T).theta
        nu1 = distinct_eigs(sig.op)
        e1 = math.log2(nu1) + d1 - math.log2(inst.M) + th
        terms.update({"log_nu_sigma": math.log2(nu1), "d_alpha_quantum": d1,
                      "theta": th, "log_M": math.log2(inst.M)})
        rhs += 4.0 * 2.0 ** (pref * e1)
    if nx != 1:
        kap = inst.kappa_R
        if kap is None:
            avg = sum(p * m.entries for p, m in zip(inst.p, r_marg))
            kap = DensityOp(LabeledOperator(r_marg[0].space, avg))
        d2 = _cq_divergence(inst.p, r_marg, kap, inst.alpha, inst.dtype)
        nu2 = distinct_eigs(kap.op)
        e2 = math.log2(nu2) + d2 - math.log2(inst.M)
        terms.update({"log_nu_kappa": math.log2(nu2), "d_alpha_classical": d2})
        rhs += 4.0 * 2.0 ** (pref * e2)
    return BoundReport(rhs=rhs, exponent_terms=terms)


def mc_lhs_cq(inst: CqInstance, n_samples: int, seed: RngSeed) -> McEstimate:
    """MC estimate of ||(1/M) sum_i T(U_i rho_{X_i} U_i^dag) - omega (x) rho^R||_1."""
    base = inst.rho_x[0]
    dim_a = base.space.dim_of(inst.label_a) if inst.label_a in base.labels else 1
    nx = len(inst.rho_x)
    r_marg = [partial_trace(s.op, tuple(l for l in s.labels if l != inst.label_r))
              for s in inst.rho_x]
    avg_r = sum(p * m.entries for p, m in zip(inst.p, r_marg))
    if dim_a != 1:
        ref = tensor(output_marginal(inst.T), LabeledOperator(r_marg[0].space, avg_r))
    else:
        ref = LabeledOperator(r_marg[0].space, avg_r)

    def one_trial(i: int) -> float:
        rng = seed.stream(i).generator()
        acc = None
        for _ in range(inst.M):
            x = int(rng.choice(nx, p=inst.p))
            st = inst.rho_x[x].op
            if dim_a != 1:
                u = haar_unitary(dim_a, rng)
                rotated = _conjugate_on(st, u, inst.label_a)
                term = inst.T.apply(rotated).permuted(ref.labels)
            else:
                term = partial_trace(st, tuple(
                    l for l in st.labels if l != inst.label_r))
            acc = term if acc is None else acc + term
        return trace_norm(acc * (1.0 / inst.M) - ref)

    vals = np.array([one_trial(i) for i in range(n_samples)])
    return McEstimate(mean=float(vals.mean()),
                      stderr=float(vals.std(ddof=1) / math.sqrt(n_samples)),
                      n_samples=n_samples)


def covering_bound(p, rho_x_R, M: int, alpha: float, kappa_R: DensityOp | None,
                   n_samples: int, seed: RngSeed, dtype: str = "old",
                   label_r: str = "R") -> BoundReport:
    """Purely classical covering: how fast (1/M) sum rho_{X_i} approaches rho^R."""
    if M < 1:
        raise ValueError("M must be >= 1")
    inst = CqInstance(p, list(rho_x_R), M, None, alpha, kappa_R=kappa_R,
                      dtype=dtype, label_a="__none__", label_r=label_r)
    rep = thm1_2_rhs(inst)
    lhs = mc_lhs_cq(inst, n_samples, seed)
    rep.lhs = lhs
    rep.slack = rep.rhs - lhs.mean
    return rep
