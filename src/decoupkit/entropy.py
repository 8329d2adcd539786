"""Renyi alpha-divergences and conditional entropies, both quantum variants.

Two divergence families are supported: the "old" (Petz) form
Tr rho^a sigma^(1-a) and the "sandwiched" form
Tr (sigma^((1-a)/2a) rho sigma^((1-a)/2a))^a.  Conditional entropies come in
two arrow conventions: "fixed_marginal" conditions on the actual marginal,
"optimized" minimizes the divergence over all unit-trace conditioners.
All outputs are in bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .qmat import (
    DensityOp,
    LabeledOperator,
    SpaceMismatchError,
    identity_on,
    mat_power,
    partial_trace,
    support_projector,
    tensor,
)

INF_DIVERGENCE = math.inf

_DTYPES = ("old", "sandwiched")
_ARROWS = ("optimized", "fixed_marginal")


@dataclass(frozen=True)
class RenyiParams:
    """Order, divergence family, and conditional-entropy arrow."""

    alpha: float
    dtype: str = "old"
    arrow: str = "optimized"

    def __post_init__(self):
        if not (0.0 < self.alpha <= 2.0):
            raise ValueError(f"alpha must lie in (0, 2], got {self.alpha}")
        if self.dtype not in _DTYPES:
            raise ValueError(f"dtype must be one of {_DTYPES}, got {self.dtype!r}")
        if self.arrow not in _ARROWS:
            raise ValueError(f"arrow must be one of {_ARROWS}, got {self.arrow!r}")

    def dual_alpha(self) -> float:
        """The 1/alpha order appearing in the exact mixed duality."""
        return 1.0 / self.alpha


@dataclass
class CondEntropyResult:
    value: float
    optimizer: DensityOp | None = None
    iterations: int = 0
    converged: bool = True


def _entries(m) -> np.ndarray:
    return m.entries if hasattr(m, "entries") else np.asarray(m, dtype=complex)


def _check_same_space(rho, sigma):
    sa = getattr(rho, "space", None)
    sb = getattr(sigma, "space", None)
    if sa is not None and sb is not None and sa != sb:
        raise SpaceMismatchError(f"space mismatch: {sa} vs {sb}")


def _support_violated(rho: np.ndarray, sigma: np.ndarray) -> bool:
    p = support_projector(sigma)
    leak = np.eye(p.shape[0]) - p
    r = _entries_psd(rho)
    return float(np.trace(leak @ r).real) > 1e-10


def _entries_psd(m: np.ndarray) -> np.ndarray:
    return (m + m.conj().T) / 2


def q_alpha(rho, sigma, p: RenyiParams) -> float:
    """Quasi relative entropy Q_alpha (trace functional, not yet a log)."""
    _check_same_space(rho, sigma)
    a = p.alpha
    if a == 1.0:
        raise ValueError("q_alpha is undefined at alpha = 1; use d_alpha")
    r = _entries(rho)
    s = _entries(sigma)
    if a > 1.0 and _support_violated(r, s):
        return INF_DIVERGENCE
    if p.dtype == "old":
        val = np.trace(mat_power(r, a) @ mat_power(s, 1.0 - a)).real
    else:
        half = mat_power(s, (1.0 - a) / (2.0 * a))
        core = _entries_psd(half @ r @ half)
        val = np.trace(mat_power(core, a)).real
    return float(val)


def relative_entropy(rho, sigma) -> float:
    """Umegaki relative entropy Tr rho (log2 rho - log2 sigma)."""
    r = _entries_psd(_entries(rho))
    s = _entries_psd(_entries(sigma))
    if _support_violated(r, s):
        return INF_DIVERGENCE
    wr, vr = np.linalg.eigh(r)
    ws, vs = np.linalg.eigh(s)
    wr = np.clip(wr, 0.0, None)
    ws = np.clip(ws, 0.0, None)
    # Tr rho log rho
    t1 = float(np.sum(wr[wr > 1e-15] * np.log2(wr[wr > 1e-15])))
    log_s = (vs * np.where(ws > 1e-15, np.log2(np.where(ws > 1e-15, ws, 1.0)), 0.0)) @ vs.conj().T
    # only the support of sigma contributes; support(rho) is inside it
    ps = support_projector(s)
    t2 = float(np.trace(ps @ r @ ps @ log_s).real)
    return t1 - t2


def d_alpha(rho, sigma, p: RenyiParams) -> float:
    """Renyi alpha-relative entropy in bits; alpha = 1 is the Umegaki branch."""
    if p.alpha == 1.0:
        return relative_entropy(rho, sigma)
    q = q_alpha(rho, sigma, p)
    if q == INF_DIVERGENCE:
        return INF_DIVERGENCE
    if q <= 0.0:
        return -INF_DIVERGENCE if p.alpha > 1.0 else INF_DIVERGENCE
    return math.log2(q) / (p.alpha - 1.0)


def renyi_entropy(rho, alpha: float) -> float:
    """Renyi entropy of a single state: (1/(1-a)) log2 Tr rho^a."""
    r = _entries_psd(_entries(rho))
    w = np.clip(np.linalg.eigvalsh(r), 0.0, None)
    if alpha == 1.0:
        w = w[w > 1e-15]
        return float(-np.sum(w * np.log2(w)))
    return float(math.log2(np.sum(w[w > 0.0] ** alpha)) / (1.0 - alpha))


def _cond_spaces(rho_ab, cond_label: str):
    sp = rho_ab.space
    sp.index_of(cond_label)
    other = tuple(l for l in sp.labels if l != cond_label)
    return other, cond_label


def _divergence_vs_conditioner(rho_ab, cond_label: str, sigma_b, p: RenyiParams) -> float:
    """D_alpha(rho_AB || 1_A (x) sigma_B) respecting the label order of rho_AB."""
    sp = rho_ab.space
    other = tuple(l for l in sp.labels if l != cond_label)
    ident = identity_on(sp.subspace(other))
    sig_op = sigma_b.op if isinstance(sigma_b, DensityOp) else sigma_b
    ref = tensor(ident, sig_op).permuted(sp.labels)
    return d_alpha(rho_ab, ref, p)


def _old_optimizer(rho_ab, cond_label: str, alpha: float) -> DensityOp:
    """Closed-form minimizer for the Petz family: sigma* ~ (Tr_A rho^a)^(1/a)."""
    op = rho_ab.op if isinstance(rho_ab, DensityOp) else rho_ab
    powered = mat_power(op, alpha)
    other = tuple(l for l in op.labels if l != cond_label)
    n = partial_trace(powered, other)
    root = mat_power(n, 1.0 / alpha)
    tr = float(np.trace(root.entries).real)
    return DensityOp(LabeledOperator(root.space, root.entries / tr), "unit")


def _chol_params(sig: np.ndarray) -> np.ndarray:
    """Pack a PD matrix into the real parameters of its Cholesky factor."""
    d = sig.shape[0]
    l = np.linalg.cholesky(_entries_psd(sig) + 1e-12 * np.eye(d))
    x = []
    for i in range(d):
        for j in range(i + 1):
            if i == j:
                x.append(l[i, j].real)
            else:
                x.extend([l[i, j].real, l[i, j].imag])
    return np.array(x)


def _chol_unpack(x: np.ndarray, d: int) -> np.ndarray:
    l = np.zeros((d, d), dtype=complex)
    k = 0
    for i in range(d):
        for j in range(i + 1):
            if i == j:
                l[i, j] = x[k]
                k += 1
            else:
                l[i, j] = x[k] + 1j * x[k + 1]
                k += 2
    sig = l @ l.conj().T + 1e-14 * np.eye(d)
    return sig / np.trace(sig).real


def _sandwiched_optimizer(rho_ab, cond_label: str, alpha: float):
    """Direct minimization of the sandwiched divergence over conditioners.

    The minimizer has no known closed form, so the conditioner is found by
    Nelder-Mead over a Cholesky parameterization, started from the marginal,
    the maximally mixed state, and the Petz-family closed-form optimizer.
    """
    from scipy.optimize import minimize

    op = rho_ab.op if isinstance(rho_ab, DensityOp) else rho_ab
    sp = op.space
    other = tuple(l for l in sp.labels if l != cond_label)
    rho_perm = op.permuted(other + (cond_label,))
    r = rho_perm.entries
    db = sp.dim_of(cond_label)
    da = rho_perm.space.total_dim // db
    expo = (1.0 - alpha) / (2.0 * alpha)

    def div(sig: np.ndarray) -> float:
        half = np.kron(np.eye(da), mat_power(sig, expo))
        core = _entries_psd(half @ r @ half)
        q = float(np.trace(mat_power(core, alpha)).real)
        if q <= 0.0:
            return math.inf
        return math.log2(q) / (alpha - 1.0)

    def objective(x: np.ndarray) -> float:
        v = div(_chol_unpack(x, db))
        return v if math.isfinite(v) else 1e6

    marg = partial_trace(op, other).entries
    marg = _entries_psd(marg) / np.trace(marg).real
    old_opt = _old_optimizer(rho_ab, cond_label, alpha).entries
    starts = [marg, np.eye(db) / db, old_opt]
    best = None
    nfev = 0
    ok = False
    for s in starts:
        res = minimize(objective, _chol_params(s), method="Nelder-Mead",
                       options={"xatol": 1e-11, "fatol": 1e-13,
                                "maxiter": 4000, "maxfev": 4000})
        nfev += res.nfev
        ok = ok or bool(res.success)
        if best is None or res.fun < best.fun:
            best = res
    sig = _chol_unpack(best.x, db)
    sp_b = sp.subspace((cond_label,))
    return DensityOp(LabeledOperator(sp_b, sig), "unit"), nfev, ok


def h_cond(rho_ab, cond_label: str, p: RenyiParams) -> CondEntropyResult:
    """Conditional Renyi entropy of everything-but-cond_label given cond_label."""
    op = rho_ab.op if isinstance(rho_ab, DensityOp) else rho_ab
    op.space.index_of(cond_label)
    other = tuple(l for l in op.labels if l != cond_label)
    if p.arrow == "fixed_marginal":
        marg = partial_trace(op, other)
        val = -_divergence_vs_conditioner(rho_ab, cond_label, marg, p)
        return CondEntropyResult(value=val)
    if p.alpha == 1.0:
        # the optimized and fixed arrows coincide at alpha = 1
        marg = partial_trace(op, other)
        val = -_divergence_vs_conditioner(rho_ab, cond_label, marg, p)
        return CondEntropyResult(value=val)
    if p.dtype == "old":
        opt = _old_optimizer(rho_ab, cond_label, p.alpha)
        val = -_divergence_vs_conditioner(rho_ab, cond_label, opt, p)
        return CondEntropyResult(value=val, optimizer=opt, iterations=0, converged=True)
    opt, its, converged = _sandwiched_optimizer(rho_ab, cond_label, p.alpha)
    val = -_divergence_vs_conditioner(rho_ab, cond_label, opt, p)
    return CondEntropyResult(value=val, optimizer=opt, iterations=its, converged=converged)


def von_neumann_entropy(rho) -> float:
    return renyi_entropy(rho, 1.0)


def von_neumann_suite(state, a_labels, b_labels=(), c_labels=()):
    """H(A), H(A|B), I(A:B|C) and coherent information for a labeled state."""
    op = state.op if isinstance(state, DensityOp) else state
    a = tuple(a_labels)
    b = tuple(b_labels)
    c = tuple(c_labels)
    all_l = set(op.labels)
    for l in a + b + c:
        op.space.index_of(l)

    def h(labels):
        labels = tuple(labels)
        if not labels:
            return 0.0
        rest = tuple(l for l in op.labels if l not in set(labels))
        return von_neumann_entropy(partial_trace(op, rest))

    h_a = h(a)
    h_ab_joint = h(a + b)
    h_b = h(b)
    h_a_given_b = h_ab_joint - h_b
    h_a_given_c = h(a + c) - h(c)
    h_a_given_bc = h(a + b + c) - h(b + c)
    return {
        "H(A)": h_a,
        "H(A|B)": h_a_given_b,
        "I(A:B|C)": h_a_given_c - h_a_given_bc,
        "I(A>B)": -h_a_given_b,
    }


def duality_check(psi, a_label: str, b_label: str, c_label: str, alpha: float) -> float:
    """Residual of the exact alpha-dual pairing on a tripartite pure state.

    Empirically, the pairing that vanishes identically at the dual order
    1/alpha combines the sandwiched fixed-marginal entropy with the Petz
    optimized entropy:

        H^sand,fixed_alpha(A|B) + H^old,opt_(1/alpha)(A|C) = 0.
    """
    if not (0.5 <= alpha <= 2.0) or alpha == 1.0:
        raise ValueError(f"alpha must lie in [0.5, 1) u (1, 2], got {alpha}")
    proj = psi.projector() if hasattr(psi, "projector") else psi
    if isinstance(proj, DensityOp):
        purity = float(np.trace(proj.entries @ proj.entries).real)
        if abs(purity - 1.0) > 1e-8:
            raise ValueError("duality_check requires a pure input state")
    op = proj.op
    ab = partial_trace(op, set(op.labels) - {a_label, b_label})
    ac = partial_trace(op, set(op.labels) - {a_label, c_label})
    h_ab = h_cond(DensityOp(ab), b_label,
                  RenyiParams(alpha, "sandwiched", "fixed_marginal")).value
    h_ac = h_cond(DensityOp(ac), c_label,
                  RenyiParams(1.0 / alpha, "old", "optimized")).value
    return h_ab + h_ac


def dpi_check(rho, sigma, channel, p: RenyiParams, tol: float = 1e-9) -> bool:
    """Data-processing: D_alpha(rho||sigma) >= D_alpha(E rho || E sigma) - tol."""
    lhs = d_alpha(rho, sigma, p)
    out_r = channel.apply(rho.op if isinstance(rho, DensityOp) else rho)
    out_s = channel.apply(sigma.op if isinstance(sigma, DensityOp) else sigma)
    rhs = d_alpha(out_r, out_s, p)
    if lhs == INF_DIVERGENCE:
        return True
    return lhs >= rhs - tol


def bloch_grid_min(rho_ab, cond_label: str, p: RenyiParams,
                   n_points: int = 10_000) -> float:
    """Grid oracle for the optimized conditional entropy, qubit conditioner only.

    Two-stage search over the Bloch ball (coarse sweep, then a local
    refinement around the best coarse point); independent of the closed-form
    and fixed-point paths it validates.
    """
    op = rho_ab.op if isinstance(rho_ab, DensityOp) else rho_ab
    if op.space.dim_of(cond_label) != 2:
        raise ValueError("grid oracle supports qubit conditioners only")
    sp_b = op.space.subspace((cond_label,))

    def sigma_of(x, y, z):
        m = 0.5 * np.array([[1 + z, x - 1j * y], [x + 1j * y, 1 - z]])
        return LabeledOperator(sp_b, m)

    def value(x, y, z):
        if x * x + y * y + z * z > 1.0 - 1e-12:
            return math.inf
        return _divergence_vs_conditioner(rho_ab, cond_label, sigma_of(x, y, z), p)

    n_coarse = max(int(round((n_points * 7 // 10) ** (1 / 3))), 3)
    axis = np.linspace(-0.999, 0.999, n_coarse)
    best = (math.inf, 0.0, 0.0, 0.0)
    for x in axis:
        for y in axis:
            for z in axis:
                v = value(x, y, z)
                if v < best[0]:
                    best = (v, x, y, z)
    step = float(axis[1] - axis[0])
    n_fine = max(int(round((n_points * 3 // 10) ** (1 / 3))), 3)
    for _ in range(2):
        _, bx, by, bz = best
        fine = np.linspace(-step, step, n_fine)
        for dx in fine:
            for dy in fine:
                for dz in fine:
                    v = value(bx + dx, by + dy, bz + dz)
                    if v < best[0]:
                        best = (v, bx + dx, by + dy, bz + dz)
        step = 2 * step / max(n_fine - 1, 1)
    return -best[0]
