"""End-to-end protocol constructions built on decoupling witnesses.

Each protocol follows the same recipe: pick a truncation isometry W at the
target rate, find a unitary witness that decouples the right subsystems
simultaneously, convert closeness of marginals into closeness of purified
states through an Uhlmann isometry, and measure the final trace-norm error
against the analytic bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .channels import (
    KrausMap,
    compose,
    compressive_map,
    heisenberg_weyl,
    measurement_map,
    theta,
)
from .entropy import RenyiParams, h_cond, renyi_entropy
from .qmat import (
    DensityOp,
    LabeledOperator,
    PartialIsom,
    PureState,
    SubsystemSpace,
    apply_matrix,
    fidelity,
    mes,
    partial_trace,
    purify,
    tensor,
    tensor_states,
    trace_norm,
    truncation_isometry,
    xi,
)
from .twirl import RngSeed
from .decouple import _prefactor, simultaneous_witness

MAX_PROTOCOL_DIM = 4096
DEFAULT_TRIES = 25


@dataclass
class ProtocolResult:
    measured_error: float
    bound: float
    rates: dict
    n: int
    seed: RngSeed
    witnesses: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.measured_error < 0:
            raise ValueError("measured error cannot be negative")
        for k, v in self.rates.items():
            if not math.isfinite(v):
                raise ValueError(f"rate {k!r} is not finite: {v}")


@dataclass
class MergeConfig:
    """Dimension bookkeeping for one-way merging: zeta = |E||A0|/|A1|."""

    dim_a0: int
    dim_a1: int
    dim_e: int

    def __post_init__(self):
        if self.dim_a1 > self.dim_a0 * self.dim_e:
            raise ValueError(
                f"|A1| = {self.dim_a1} exceeds |A0||E| = {self.dim_a0 * self.dim_e}")

    @property
    def zeta(self) -> float:
        return self.dim_e * self.dim_a0 / self.dim_a1

    @property
    def J(self) -> int:
        return math.ceil(self.zeta)


# ---------------------------------------------------------------------------
# purified-state plumbing


def iid_pure(psi: PureState, n: int) -> PureState:
    """psi^(x)n with each subsystem's n copies merged back under its own label."""
    if n == 1:
        return PureState(psi.space, psi.amplitudes.copy())
    labels = psi.labels
    copies = [psi.relabeled({l: f"{l}~{i}" for l in labels}) for i in range(n)]
    big = tensor_states(*copies)
    order = tuple(f"{l}~{i}" for l in labels for i in range(n))
    big = big.permuted(order)
    dims = tuple(psi.space.dim_of(l) ** n for l in labels)
    return PureState(SubsystemSpace(labels, dims), big.amplitudes)


def marginal(vec: np.ndarray, sp: SubsystemSpace, keep_labels) -> LabeledOperator:
    """Reduced density operator of a raw state vector on the kept factors."""
    keep = sp.subspace(keep_labels)
    m = apply_matrix(vec, None, sp, keep.labels)[0].reshape(keep.total_dim, -1)
    return LabeledOperator(keep, m @ m.conj().T)


def uhlmann_isometry(xi_vec: np.ndarray, xi_space: SubsystemSpace,
                     psi_vec: np.ndarray, psi_space: SubsystemSpace,
                     b_labels, c_labels) -> np.ndarray:
    """The fidelity-achieving isometry between two purifying systems.

    Both vectors share every label outside b_labels / c_labels.  Returns the
    full-rank partial isometry V (dim C x dim B) maximizing the overlap of
    (1 (x) V) xi with psi; neither vector needs unit norm.
    """
    b = tuple(b_labels)
    c = tuple(c_labels)
    shared = tuple(l for l in xi_space.labels if l not in set(b))
    shared_c = tuple(l for l in psi_space.labels if l not in set(c))
    if set(shared) != set(shared_c):
        raise ValueError(f"shared systems differ: {shared} vs {shared_c}")
    ds = xi_space.subspace(shared).total_dim
    xm = apply_matrix(xi_vec, None, xi_space, shared + b)[0].reshape(ds, -1)
    pm = apply_matrix(psi_vec, None, psi_space, shared + c)[0].reshape(ds, -1)
    db = xm.shape[1]
    dc = pm.shape[1]
    if db > dc:
        raise ValueError(f"purifying side too large: |B| = {db} > |C| = {dc}")
    n_mat = xm.T @ pm.conj()  # (b, c) cross-overlap
    u, _, vh = np.linalg.svd(n_mat, full_matrices=True)
    return vh.conj().T @ np.eye(dc, db) @ u.conj().T


def uhlmann_extend(xi_AB, psi_AC: PureState, eps: float,
                   b_labels=None, c_labels=None,
                   tol: float = 1e-9) -> PartialIsom:
    """Extend closeness of marginals to the purifications.

    xi_AB is a rank-1 PSD operator (a possibly subnormalized purification of
    xi^A); psi_AC is the target pure state.  The purifying factors B and C
    default to the labels each side does not share with the other.  Returns
    the partial isometry V: B -> C maximizing the overlap with psi, after
    asserting the precondition ||xi^A - psi^A||_1 <= eps and the guarantee
    ||V.xi - psi||_1 <= Xi(eps), sharpened to 2 sqrt(eps) when Tr xi <= 1.
    """
    op = xi_AB.op if isinstance(xi_AB, DensityOp) else xi_AB
    if b_labels is None:
        b_labels = tuple(l for l in op.labels if l not in set(psi_AC.labels))
    if c_labels is None:
        c_labels = tuple(l for l in psi_AC.labels if l not in set(op.labels))
    w, v = np.linalg.eigh((op.entries + op.entries.conj().T) / 2)
    if np.sum(w > 1e-9 * max(w.max(), 1.0)) != 1:
        raise ValueError("uhlmann_extend requires a rank-1 (pure) input")
    vec = v[:, -1] * math.sqrt(max(w[-1], 0.0))
    shared = tuple(l for l in op.labels if l not in set(b_labels))
    gap = trace_norm(marginal(vec, op.space, shared)
                     - marginal(psi_AC.amplitudes, psi_AC.space, shared)
                     .permuted(shared))
    if gap > eps + tol:
        raise ValueError(
            f"marginals differ by {gap}, beyond the stated eps = {eps}")
    vm = uhlmann_isometry(vec, op.space, psi_AC.amplitudes, psi_AC.space,
                          b_labels, c_labels)
    out, sp_out = apply_matrix(vec, vm, op.space, tuple(b_labels),
                               tuple(c_labels),
                               tuple(psi_AC.space.dim_of(l) for l in c_labels))
    tgt = psi_AC.permuted(sp_out.labels).amplitudes
    achieved = trace_norm(np.outer(out, out.conj()) - np.outer(tgt, tgt.conj()))
    if achieved > xi(eps) + tol:
        raise AssertionError(
            f"purified distance {achieved} exceeds Xi(eps) = {xi(eps)}")
    if float(np.trace(op.entries).real) <= 1.0 + tol and \
            achieved > 2.0 * math.sqrt(eps) + tol:
        raise AssertionError(
            f"subnormalized refinement violated: {achieved} > 2 sqrt({eps})")
    dom = op.space.subspace(tuple(b_labels))
    cod = psi_AC.space.subspace(tuple(c_labels))
    return PartialIsom(dom, cod, vm)


def fuchs_vdg_check(rho, sigma, tol: float = 1e-9):
    """Trace-distance sandwich from fidelity, valid for subnormalized inputs.

    Returns (lower, tn, upper) and raises if either inequality fails:
      Tr rho + Tr sigma - 2F <= ||rho - sigma||_1 <= sqrt((Tr rho + Tr sigma)^2 - 4F^2).
    """
    a = rho.entries if hasattr(rho, "entries") else np.asarray(rho)
    b = sigma.entries if hasattr(sigma, "entries") else np.asarray(sigma)
    f = fidelity(a, b)
    ta = float(np.trace(a).real)
    tb = float(np.trace(b).real)
    tn = trace_norm(a - b)
    lower = ta + tb - 2.0 * f
    upper = math.sqrt(max((ta + tb) ** 2 - 4.0 * f * f, 0.0))
    if lower > tn + tol or tn > upper + tol:
        raise AssertionError(
            f"fidelity sandwich violated: {lower} <= {tn} <= {upper} fails")
    return lower, tn, upper


# ---------------------------------------------------------------------------
# Schumacher compression


def schumacher_run(psi_AR: PureState, n: int, dim_b: int, seed: RngSeed,
                   alpha: float = 1.5, n_tries: int = DEFAULT_TRIES) -> ProtocolResult:
    """Compress n copies of the A part of a pure state into a dim_b system.

    The encoder is the compressive channel of W2 = W V, where W truncates
    A^n to B, V aligns bases via the Uhlmann step, and the witness unitary
    decouples A^n from the reference.  The decoder is conjugation by W2^dag.
    """
    da = psi_AR.space.dim_of("A")
    dr = psi_AR.space.dim_of("R")
    dan = da ** n
    if dim_b > dan:
        raise ValueError(f"dim_b = {dim_b} exceeds |A|^n = {dan}")
    if dan * dan * dr ** n > MAX_PROTOCOL_DIM * MAX_PROTOCOL_DIM:
        raise ValueError("instance exceeds the protocol dimension cap")
    psin = iid_pure(psi_AR, n)
    sp = psin.space
    psi_r_n = marginal(psin.amplitudes, sp, ("R",))
    w = truncation_isometry(sp.subspace(("A",)),
                            SubsystemSpace(("B",), (dim_b,)))
    scale = dan / dim_b

    def err(u: np.ndarray) -> float:
        vec, sp1 = apply_matrix(psin.amplitudes, u, sp, ("A",))
        wv, sp2 = apply_matrix(vec, w.entries, sp1, ("A",), ("B",), (dim_b,))
        xi_r = marginal(wv, sp2, ("R",)) * scale
        return trace_norm(xi_r - psi_r_n)

    eps_n = _schumacher_bound(psi_AR, n, dim_b, alpha)
    rep = simultaneous_witness([err], [max(eps_n, 0.0)], dan, n_tries, seed)
    u = rep.unitary

    # Uhlmann step: align W^dag T_W[U . psi] with psi via a unitary V on A^n
    vec, sp1 = apply_matrix(psin.amplitudes, u, sp, ("A",))
    proj_vec, sp1 = apply_matrix(vec, w.entries.conj().T @ w.entries, sp1, ("A",))
    v = uhlmann_isometry(math.sqrt(scale) * proj_vec, sp1, psin.amplitudes, sp,
                         ("A",), ("A",))
    w2 = PartialIsom(sp.subspace(("A",)), w.codomain_space, w.entries @ v)
    measured = _schumacher_error(psin, w2, dim_b)
    bound = 2.0 * xi(eps_n)
    return ProtocolResult(
        measured_error=measured, bound=bound,
        rates={"compression_rate": math.log2(dim_b) / n},
        n=n, seed=seed,
        witnesses={"tries": rep.tries, "anomaly": rep.anomaly,
                   "decoupling_error": rep.errors[0], "epsilon_n": eps_n})


def _schumacher_error(psin: PureState, w2: PartialIsom, dim_b: int) -> float:
    """|| W2^dag . C_W2(psi) - psi ||_1 from a |R|+1 square arrowhead matrix.

    C_W2(rho) = W2 rho W2^dag + Tr[(1 - W2^dag W2) rho] pi_B, so the difference
    to psi lives in col(W2^dag) (x) R plus the residual direction r/|r| of
    psi outside it, with r = (1 - W2^dag W2) psi.  In coordinates c = (W2 (x) 1)
    psi (laid out B, R) and that direction it reads
    [[K, -|r| c], [-|r| c^dag, -|r|^2]] with K = pi_B (x) rho_r, rho_r = Tr_A |r><r|.
    Diagonalize rho_r = sum_i lam_i |v_i><v_i|: on B (x) v_i, K is lam_i/|B|
    times the identity and meets the residual direction only through
    z_i = |r| ||(1 (x) <v_i|) c||, so |B| - 1 of its directions are eigenvectors
    with eigenvalue lam_i/|B|.  What is left is the arrowhead
    [[diag(lam/|B|), -z], [-z^T, -|r|^2]], and
    ||.||_1 = (|B| - 1)/|B| sum_i |lam_i| + ||arrowhead||_1
    (the deflation of a low-rank modification; Golub, SIAM Rev. 15, 1973).
    """
    sp = psin.space
    w2e = w2.entries
    c, _ = apply_matrix(psin.amplitudes, w2e, sp, ("A",), ("B",), (dim_b,))
    kerp = np.eye(w2e.shape[1]) - w2e.conj().T @ w2e
    resid, sp_r = apply_matrix(psin.amplitudes, kerp, sp, ("A",))
    lam, vec = np.linalg.eigh(marginal(resid, sp_r, ("R",)).entries)
    r_norm = np.linalg.norm(resid)
    z = r_norm * np.linalg.norm(c.reshape(dim_b, -1) @ vec.conj(), axis=0)
    arrow = np.diag(np.append(lam / dim_b, -r_norm ** 2))
    arrow[:-1, -1] = arrow[-1, :-1] = -z
    return (dim_b - 1) / dim_b * float(np.abs(lam).sum()) + trace_norm(arrow)


def _schumacher_bound(psi_AR: PureState, n: int, dim_b: int, alpha: float) -> float:
    """4 * 2^(pref (|R| log(n+1) + n H_dual(A) - log|B|)) from the theorem."""
    rho_a = marginal(psi_AR.amplitudes, psi_AR.space, ("A",))
    h_dual = renyi_entropy(rho_a, 1.0 / alpha)
    dr = psi_AR.space.dim_of("R")
    e = dr * math.log2(n + 1) + n * h_dual - math.log2(dim_b)
    return 4.0 * 2.0 ** (_prefactor(alpha) * e)


# ---------------------------------------------------------------------------
# fully quantum Slepian-Wolf


def fqsw_run(psi_ABR: PureState, n: int, dim_a1: int, dim_a2: int,
             seed: RngSeed, alpha: float = 1.5,
             n_tries: int = DEFAULT_TRIES) -> ProtocolResult:
    """State transfer from Alice to Bob with entanglement gain.

    Two decoupling conditions are met by one witness unitary: the whole
    W output decouples from (B, R), and after dropping A2 the A1 part is
    maximally mixed and decoupled from R.  Bob's decoder is the Uhlmann
    isometry for the second condition.
    """
    da = psi_ABR.space.dim_of("A")
    db = psi_ABR.space.dim_of("B")
    dr = psi_ABR.space.dim_of("R")
    dan = da ** n
    if dim_a1 * dim_a2 > dan:
        raise ValueError(f"|A1||A2| = {dim_a1 * dim_a2} exceeds |A|^n = {dan}")
    psin = iid_pure(psi_ABR, n)
    sp = psin.space
    out_sp = SubsystemSpace(("A1", "A2"), (dim_a1, dim_a2))
    w = truncation_isometry(sp.subspace(("A",)), out_sp)
    scale = dan / (dim_a1 * dim_a2)
    psi_br = marginal(psin.amplitudes, sp, ("B", "R"))
    pi_a1 = LabeledOperator(out_sp.subspace(("A1",)), np.eye(dim_a1) / dim_a1)
    psi_r = marginal(psin.amplitudes, sp, ("R",))
    ref2 = tensor(pi_a1, psi_r)

    def err1(u: np.ndarray) -> float:
        vec, sp1 = apply_matrix(psin.amplitudes, u, sp, ("A",))
        return trace_norm(scale * marginal(vec, sp1, ("B", "R")) - psi_br)

    def err2(u: np.ndarray) -> float:
        vec, sp1 = apply_matrix(psin.amplitudes, u, sp, ("A",))
        wv, sp2 = apply_matrix(vec, w.entries, sp1, ("A",),
                               ("A1", "A2"), (dim_a1, dim_a2))
        return trace_norm(scale * marginal(wv, sp2, ("A1", "R")) - ref2)

    pref = _prefactor(alpha)
    rho_a = marginal(psi_ABR.amplitudes, psi_ABR.space, ("A",))
    h_dual = renyi_entropy(rho_a, 1.0 / alpha)
    h_a_r = _pure_cond_entropy(psi_ABR, ("A",), ("R",), alpha)
    e1 = db * dr * math.log2(n + 1) + n * h_dual - math.log2(dim_a1 * dim_a2)
    e2 = dr * math.log2(n + 1) - n * h_a_r + math.log2(dim_a1 / dim_a2)
    eps_n = 8.0 * 2.0 ** (pref * e1)
    tht_n = 8.0 * 2.0 ** (pref * e2)
    rep = simultaneous_witness([err1, err2], [eps_n, tht_n], dan, n_tries, seed)
    u = rep.unitary

    # decoder from the second condition
    vec, sp1 = apply_matrix(psin.amplitudes, u, sp, ("A",))
    tau_vec, sp_tau = apply_matrix(math.sqrt(scale) * vec, w.entries, sp1,
                                   ("A",), ("A1", "A2"), (dim_a1, dim_a2))
    target = tensor_states(
        mes(dim_a1, "A1", "B1"),
        iid_pure(psi_ABR.relabeled({"A": "Bt", "B": "B3"}), n))
    u_tilde = uhlmann_isometry(tau_vec, sp_tau, target.amplitudes, target.space,
                               ("A2", "B"), ("B1", "Bt", "B3"))

    # Alice-side unitary V from the first condition
    proj_vec, sp1 = apply_matrix(vec, w.entries.conj().T @ w.entries, sp1, ("A",))
    v = uhlmann_isometry(scale ** 0.5 * proj_vec, sp1, psin.amplitudes, sp,
                         ("A",), ("A",))

    # run the protocol end to end; the final state has rank at most the
    # encoder's Kraus count, so stay in the span of a few state vectors
    # instead of materializing operators on the full output space
    enc = compressive_map(w)
    encoded_vec, sp_enc = apply_matrix(psin.amplitudes, v, sp, ("A",))
    order = target.space.labels
    cols = []
    for k in enc.kraus:
        v2, sp2 = apply_matrix(encoded_vec, k, sp_enc, ("A",),
                               ("A1", "A2"), (dim_a1, dim_a2))
        v3, sp3 = apply_matrix(v2, u_tilde, sp2, ("A2", "B"),
                               ("B1", "Bt", "B3"), (dim_a1, dan, db ** n))
        cols.append(apply_matrix(v3, None, sp3, order)[0])
    stacked = np.column_stack(cols + [target.amplitudes])
    r = np.linalg.qr(stacked, mode="r")
    small_f = r[:, :-1]
    small_t = r[:, -1:]
    measured = trace_norm(small_f @ small_f.conj().T
                          - small_t @ small_t.conj().T)
    bound = xi(eps_n) + xi(tht_n)
    return ProtocolResult(
        measured_error=measured, bound=bound,
        rates={"quantum_communication_rate": math.log2(dim_a2) / n,
               "entanglement_gain_rate": math.log2(dim_a1) / n},
        n=n, seed=seed,
        witnesses={"tries": rep.tries, "anomaly": rep.anomaly,
                   "epsilon_n": eps_n, "vartheta_n": tht_n,
                   "errors": rep.errors})


def _pure_cond_entropy(psi: PureState, a_labels, cond_labels, alpha: float) -> float:
    """Optimized Petz conditional entropy of the named groups of a pure state."""
    keep = tuple(a_labels) + tuple(cond_labels)
    rho = DensityOp(marginal(psi.amplitudes, psi.space, keep))
    rest = tuple(cond_labels)
    if len(rest) == 1:
        return h_cond(rho, rest[0], RenyiParams(alpha, "old", "optimized")).value
    merged = _merge_group(rho.op, rest, "Rgrp")
    return h_cond(DensityOp(merged), "Rgrp",
                  RenyiParams(alpha, "old", "optimized")).value


def _merge_group(op: LabeledOperator, group, new_label: str) -> LabeledOperator:
    group = tuple(group)
    others = tuple(l for l in op.labels if l not in set(group))
    perm = op.permuted(others + group)
    d_g = int(np.prod([op.space.dim_of(l) for l in group], dtype=np.int64))
    dims = tuple(op.space.dim_of(l) for l in others) + (d_g,)
    return LabeledOperator(SubsystemSpace(others + (new_label,), dims), perm.entries)


# ---------------------------------------------------------------------------
# quantum state merging


def merge_run(psi_ABR: PureState, n: int, cfg: MergeConfig, seed: RngSeed,
              alpha: float = 1.5, n_tries: int = DEFAULT_TRIES) -> ProtocolResult:
    """One-way merging: measure, communicate the outcome, decode per outcome."""
    da = psi_ABR.space.dim_of("A")
    db = psi_ABR.space.dim_of("B")
    dr = psi_ABR.space.dim_of("R")
    dan = da ** n
    if cfg.dim_e > dan:
        raise ValueError(f"|E| = {cfg.dim_e} exceeds |A|^n = {dan}")
    psin = iid_pure(psi_ABR, n)
    full = tensor_states(psin, mes(cfg.dim_a0, "A0", "B0"))
    sp = full.space
    w = truncation_isometry(sp.subspace(("A",)),
                            SubsystemSpace(("E",), (cfg.dim_e,)))
    scale = dan / cfg.dim_e
    e_map, j = measurement_map(cfg.dim_e * cfg.dim_a0, cfg.dim_a1,
                               in_space=SubsystemSpace(("E", "A0"),
                                                       (cfg.dim_e, cfg.dim_a0)),
                               x_label="X", d_label="A1")
    assert j == cfg.J

    # omega = measurement of the maximally mixed input, and its 2/zeta check
    pi_ea0 = LabeledOperator(SubsystemSpace(("E", "A0"), (cfg.dim_e, cfg.dim_a0)),
                             np.eye(cfg.dim_e * cfg.dim_a0) / (cfg.dim_e * cfg.dim_a0))
    omega = e_map.apply(pi_ea0)
    pi_xa1 = LabeledOperator(omega.space, np.eye(omega.space.total_dim)
                             / omega.space.total_dim)
    omega_gap = trace_norm(omega - pi_xa1)
    if omega_gap >= 2.0 / cfg.zeta:
        raise AssertionError(
            f"measurement register check failed: {omega_gap} >= {2.0 / cfg.zeta}")

    # witness conditions share one unitary on (A^n, A0)
    psi_r = marginal(psin.amplitudes, psin.space, ("R",))
    ref1 = tensor(omega, psi_r)
    psi_br = marginal(psin.amplitudes, psin.space, ("B", "R"))
    pi_b0 = LabeledOperator(sp.subspace(("B0",)), np.eye(cfg.dim_a0) / cfg.dim_a0)
    ref2 = tensor(psi_br, pi_b0)

    def t_then_measure(u: np.ndarray):
        vec, sp1 = apply_matrix(full.amplitudes, u, sp, ("A", "A0"))
        return apply_matrix(math.sqrt(scale) * vec, w.entries, sp1,
                            ("A",), ("E",), (cfg.dim_e,))

    def err1(u: np.ndarray) -> float:
        wv, sp2 = t_then_measure(u)
        sig = e_map.apply(LabeledOperator(
            sp2, np.outer(wv, wv.conj())))
        got = partial_trace(sig, ("B", "B0")).permuted(("X", "A1", "R"))
        return trace_norm(got - ref1.permuted(("X", "A1", "R")))

    def err2(u: np.ndarray) -> float:
        wv, sp2 = t_then_measure(u)
        got = marginal(wv, sp2, ("B", "R", "B0"))
        return trace_norm(got - ref2.permuted(("B", "R", "B0")))

    pref = _prefactor(alpha)
    rho_ar = DensityOp(marginal(psi_ABR.amplitudes, psi_ABR.space, ("A", "R")))
    h_a_r = h_cond(rho_ar, "R", RenyiParams(alpha, "old", "optimized")).value
    rho_a = marginal(psi_ABR.amplitudes, psi_ABR.space, ("A",))
    h_dual = renyi_entropy(rho_a, 1.0 / alpha)
    tw = compose(e_map, KrausMap(sp.subspace(("A", "A0")),
                                 SubsystemSpace(("E", "A0"),
                                                (cfg.dim_e, cfg.dim_a0)),
                                 [math.sqrt(scale) * np.kron(w.entries,
                                                             np.eye(cfg.dim_a0))],
                                 "cp_general"))
    theta1 = theta(tw).theta
    e1 = dr * math.log2(n + 1) - n * h_a_r - math.log2(cfg.dim_a0) + theta1
    e2 = db * dr * math.log2(n + 1) + n * h_dual - math.log2(cfg.dim_e)
    tht_n = 8.0 * 2.0 ** (pref * e1)
    eps_n = 8.0 * 2.0 ** (pref * e2)
    rep = simultaneous_witness([err1, err2], [tht_n, eps_n],
                               dan * cfg.dim_a0, n_tries, seed)
    u = rep.unitary

    # Alice-side alignment unitary V on (A^n, A0) from the eps condition
    vec, sp1 = apply_matrix(full.amplitudes, u, sp, ("A", "A0"))
    proj_vec, sp_p = apply_matrix(vec, w.entries.conj().T @ w.entries, sp1, ("A",))
    v = uhlmann_isometry(math.sqrt(scale) * proj_vec, sp_p, full.amplitudes, sp,
                         ("A", "A0"), ("A", "A0"))

    # per-outcome decoders from the measured branches
    encoded_vec, sp_enc = apply_matrix(full.amplitudes, v, sp, ("A", "A0"))
    enc_w = compressive_map(w)
    encoded = enc_w.apply(LabeledOperator(sp_enc, np.outer(encoded_vec,
                                                           encoded_vec.conj())))
    sigma = e_map.apply(encoded)

    wv2, sp2 = apply_matrix(math.sqrt(scale) * vec, w.entries, sp1,
                            ("A",), ("E",), (cfg.dim_e,))
    target = tensor_states(
        mes(cfg.dim_a1, "A1", "B1"),
        iid_pure(psi_ABR.relabeled({"A": "Bt", "B": "B2"}), n))
    d_kraus = []
    d_in = SubsystemSpace(("X", "B", "B0"),
                          (cfg.J, db ** n, cfg.dim_a0))
    d_out = target.space.subspace(("B1", "Bt", "B2"))
    for x in range(cfg.J):
        # branch state xi_x (pure, possibly subnormalized after normalization by 1/J)
        # M_x: the Kraus rows (X = x, A1) of the block measurement
        mx = e_map.kraus[x][x * cfg.dim_a1:(x + 1) * cfg.dim_a1]
        bvec, bsp = apply_matrix(wv2, mx, sp2, ("E", "A0"), ("A1",), (cfg.dim_a1,))
        bvec = bvec * math.sqrt(cfg.J)
        vx = uhlmann_isometry(bvec, bsp, target.amplitudes, target.space,
                              ("B", "B0"), ("B1", "Bt", "B2"))
        sel = np.zeros((1, cfg.J))
        sel[0, x] = 1.0
        d_kraus.append(np.kron(sel, vx))
    dec = KrausMap(d_in, d_out, d_kraus, "cp_general")
    final = dec.apply(sigma.permuted(("X", "B", "B0", "A1", "R")))
    tgt = target.permuted(final.labels).amplitudes
    measured = trace_norm(final.entries - np.outer(tgt, tgt.conj()))
    beta_n = tht_n + 2.0 / cfg.zeta
    bound = xi(eps_n) + 2.0 * math.sqrt(beta_n) + math.sqrt(2.0) * beta_n ** 0.75 + beta_n
    return ProtocolResult(
        measured_error=measured, bound=bound,
        rates={"entanglement_rate": (math.log2(cfg.dim_a0)
                                     - math.log2(cfg.dim_a1)) / n,
               "classical_cost": math.log2(cfg.J) / n},
        n=n, seed=seed,
        witnesses={"tries": rep.tries, "anomaly": rep.anomaly,
                   "epsilon_n": eps_n, "vartheta_n": tht_n, "beta_n": beta_n,
                   "omega_gap": omega_gap, "errors": rep.errors})


# ---------------------------------------------------------------------------
# destroying correlations with classical randomness


def destroy_run(rho_AR: DensityOp, n: int, m_unitaries: int, seed: RngSeed,
                dim_b: int | None = None, alpha: float = 1.5,
                n_tries: int = DEFAULT_TRIES) -> ProtocolResult:
    """Mix M unitaries on A^n to sever correlations with the reference."""
    da = rho_AR.space.dim_of("A")
    dr = rho_AR.space.dim_of("R")
    dan = da ** n
    if dim_b is None:
        dim_b = dan
    if m_unitaries > dim_b * dim_b:
        raise ValueError(
            f"M = {m_unitaries} exceeds |B|^2 = {dim_b * dim_b}; orthogonal family exhausted")
    if dim_b > dan:
        raise ValueError(f"dim_b = {dim_b} exceeds |A|^n = {dan}")
    psi = purify(rho_AR, "Ec")
    de = psi.space.dim_of("Ec")
    psin = iid_pure(psi, n)
    sp = psin.space
    w = truncation_isometry(sp.subspace(("A",)), SubsystemSpace(("B",), (dim_b,)))
    scale = dan / dim_b
    vs = heisenberg_weyl(dim_b)[:m_unitaries]
    psi_re = marginal(psin.amplitudes, sp, ("R", "Ec"))
    rho_r_n = marginal(psin.amplitudes, sp, ("R",))
    pi_b = np.eye(dim_b) / dim_b

    ref2 = np.kron(pi_b, rho_r_n.entries)

    def err1(u: np.ndarray) -> float:
        vec, sp1 = apply_matrix(psin.amplitudes, u, sp, ("A",))
        return trace_norm(scale * marginal(vec, sp1, ("R", "Ec")) - psi_re)

    def err2(u: np.ndarray) -> float:
        vec, sp1 = apply_matrix(psin.amplitudes, u, sp, ("A",))
        wv, sp2 = apply_matrix(vec, w.entries, sp1, ("A",), ("B",), (dim_b,))
        base = scale * marginal(wv, sp2, ("B", "R"))
        twirled = sum(apply_matrix(base, vb, None, ("B",))[0] for vb in vs)
        return trace_norm(twirled / len(vs) - ref2)

    pref = _prefactor(alpha)
    rho_a = partial_trace(rho_AR.op, ("R",))
    h_dual = renyi_entropy(rho_a, 1.0 / alpha)
    h_a_r = h_cond(rho_AR, "R", RenyiParams(alpha, "old", "optimized")).value
    e1 = dr * de * math.log2(n + 1) + n * h_dual - math.log2(dim_b)
    e2 = dr * math.log2(n + 1) - n * h_a_r + math.log2(dim_b) - math.log2(m_unitaries)
    eps_n = 8.0 * 2.0 ** (pref * e1)
    tht_n = 8.0 * 2.0 ** (pref * e2)
    rep = simultaneous_witness([err1, err2], [eps_n, tht_n], dan, n_tries, seed)
    u = rep.unitary

    vec, sp1 = apply_matrix(psin.amplitudes, u, sp, ("A",))
    proj_vec, sp1 = apply_matrix(vec, w.entries.conj().T @ w.entries, sp1, ("A",))
    u2 = uhlmann_isometry(math.sqrt(scale) * proj_vec, sp1, psin.amplitudes, sp,
                          ("A",), ("A",))

    rho_n = marginal(psin.amplitudes, sp, ("A", "R"))
    lifted = [w.entries.conj().T @ vb @ w.entries
              + np.eye(dan) - w.entries.conj().T @ w.entries for vb in vs]
    mixed = sum(apply_matrix(rho_n, vi @ u2, None, ("A",))[0] for vi in lifted)
    mixed = mixed / len(lifted)
    sigma_an = w.entries.conj().T @ pi_b @ w.entries
    ref = np.kron(sigma_an, rho_r_n.entries)
    measured = trace_norm(mixed - ref)
    bound = xi(eps_n) + tht_n
    return ProtocolResult(
        measured_error=measured, bound=bound,
        rates={"randomness_rate": math.log2(m_unitaries) / n},
        n=n, seed=seed,
        witnesses={"tries": rep.tries, "anomaly": rep.anomaly,
                   "epsilon_n": eps_n, "vartheta_n": tht_n,
                   "errors": rep.errors})
