"""Completely positive maps in Kraus form, Choi matrices, and the Theta term.

Besides the generic plumbing (apply, compose, Choi round-trip) this module
builds the named map families the protocol constructions need: the scaled
conjugation T_W, the compressive channel C_W, block measurement families,
and randomizing (orthogonal unitary) mixtures.  Theta(T) is minus the Petz
Renyi-2 conditional entropy of the Choi state and admits a closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .qmat import (
    DensityOp,
    LabeledOperator,
    LabelError,
    PartialIsom,
    SubsystemSpace,
    apply_matrix,
    mat_power,
    partial_trace,
    trace_norm,
)

KRAUS_TOL = 1e-9

_TP_CLASSES = ("cptp", "cp_trace_nonincreasing", "cp_general")


@dataclass
class KrausMap:
    """A completely positive map given by a list of Kraus operators."""

    in_space: SubsystemSpace
    out_space: SubsystemSpace
    kraus: list
    tp_class: str = "cp_general"

    def __post_init__(self):
        if self.tp_class not in _TP_CLASSES:
            raise ValueError(f"tp_class must be one of {_TP_CLASSES}")
        shape = (self.out_space.total_dim, self.in_space.total_dim)
        self.kraus = [np.asarray(k, dtype=complex) for k in self.kraus]
        if not self.kraus:
            raise ValueError("a Kraus map needs at least one operator")
        for i, k in enumerate(self.kraus):
            if k.shape != shape:
                raise ValueError(f"Kraus operator {i} has shape {k.shape}, expected {shape}")
        if self.tp_class == "cptp":
            gap = np.abs(self._kraus_gram() - np.eye(shape[1])).max()
            if gap > KRAUS_TOL:
                raise ValueError(f"declared cptp but sum K^dag K deviates from I by {gap:.2e}")

    def _kraus_gram(self) -> np.ndarray:
        return sum(k.conj().T @ k for k in self.kraus)

    def is_trace_preserving(self, tol: float = KRAUS_TOL) -> bool:
        d = self.in_space.total_dim
        return bool(np.abs(self._kraus_gram() - np.eye(d)).max() <= tol)

    def apply(self, m) -> LabeledOperator:
        """Apply the map to the in-space factors of m; spectators untouched."""
        if isinstance(m, DensityOp):
            m = m.op
        for l in self.in_space.labels:
            if m.space.dim_of(l) != self.in_space.dim_of(l):
                raise ValueError(
                    f"dimension mismatch on {l!r}: operator has {m.space.dim_of(l)}, "
                    f"map expects {self.in_space.dim_of(l)}")
        spect = tuple(l for l in m.labels if l not in set(self.in_space.labels))
        collide = set(self.out_space.labels) & set(spect)
        if collide:
            raise LabelError(f"map output labels collide with spectators: {sorted(collide)}")
        # move the input factors to the front once; each Kraus term is then
        # two matmuls on the reshaped operator
        x, sp = apply_matrix(m, None, None, self.in_space.labels)
        out = None
        for k in self.kraus:
            term, sp_out = apply_matrix(x, k, sp, self.in_space.labels,
                                        self.out_space.labels, self.out_space.dims)
            if out is None:
                out = term
            else:
                out += term
        return LabeledOperator(sp_out, out)


def output_marginal(T: KrausMap) -> LabeledOperator:
    """omega_T = T(1/d_in), the output marginal of T's Choi state."""
    d = T.in_space.total_dim
    return T.apply(LabeledOperator(T.in_space, np.eye(d) / d))


def compose(outer: KrausMap, inner: KrausMap) -> KrausMap:
    """outer after inner, as a single Kraus map (all operator products)."""
    if outer.in_space.dims != inner.out_space.dims or \
            outer.in_space.labels != inner.out_space.labels:
        raise ValueError("compose requires outer.in_space == inner.out_space")
    ks = [ko @ ki for ko in outer.kraus for ki in inner.kraus]
    tp = "cptp" if outer.tp_class == "cptp" and inner.tp_class == "cptp" else "cp_general"
    return KrausMap(inner.in_space, outer.out_space, ks, tp)


def identity_map(sp: SubsystemSpace) -> KrausMap:
    return KrausMap(sp, sp, [np.eye(sp.total_dim)], "cptp")


def trace_map(sp: SubsystemSpace, out_label: str = "E") -> KrausMap:
    """The full trace, viewed as a channel into a one-dimensional system."""
    d = sp.total_dim
    out = SubsystemSpace((out_label,), (1,))
    ks = [np.eye(d)[i:i + 1, :] for i in range(d)]
    return KrausMap(sp, out, ks, "cptp")


def partial_trace_map(sp: SubsystemSpace, traced_labels) -> KrausMap:
    """Trace out the named factors, as a Kraus map."""
    out = sp.drop(traced_labels)
    keep = out.labels
    traced = tuple(l for l in sp.labels if l not in set(keep))
    d_keep = out.total_dim
    # idx[j, i]: the basis index of the state with kept part j and traced part i
    idx = apply_matrix(np.arange(sp.total_dim), None, sp, keep + traced)[0]
    idx = idx.reshape(d_keep, -1)
    ks = []
    for col in idx.T:
        k = np.zeros((d_keep, sp.total_dim))
        k[np.arange(d_keep), col] = 1.0
        ks.append(k)
    return KrausMap(sp, out, ks, "cptp")


def depolarizing_map(sp: SubsystemSpace, p: float) -> KrausMap:
    """rho -> (1-p) rho + p pi, in Kraus form via the flattened basis family."""
    if not (0.0 <= p <= 1.0):
        raise ValueError(f"depolarizing strength must lie in [0, 1], got {p}")
    d = sp.total_dim
    ks = [math.sqrt(1.0 - p) * np.eye(d)]
    for i in range(d):
        for j in range(d):
            e = np.zeros((d, d))
            e[i, j] = 1.0
            ks.append(math.sqrt(p / d) * e)
    return KrausMap(sp, sp, ks, "cptp")


@dataclass
class ChoiMatrix:
    """Choi state of a map: half a maximally entangled state sent through it."""

    op: LabeledOperator
    source: KrausMap | None = None

    def __post_init__(self):
        w = np.linalg.eigvalsh((self.op.entries + self.op.entries.conj().T) / 2)
        if w.min() < -KRAUS_TOL:
            raise ValueError(f"Choi matrix not PSD: min eigenvalue {w.min():.2e}")


def _primed(labels, taken) -> tuple[str, ...]:
    out = []
    used = set(taken)
    for l in labels:
        cand = l + "'"
        while cand in used:
            cand = cand + "'"
        used.add(cand)
        out.append(cand)
    return tuple(out)


def choi(T: KrausMap) -> ChoiMatrix:
    """omega = (T (x) id)(Phi) on out_space (x) primed copy of in_space."""
    d = T.in_space.total_dim
    ref_labels = _primed(T.in_space.labels, T.out_space.labels)
    # (K (x) 1)|Phi> = vec(K)/sqrt(d), laid out (out, ref)
    vs = np.stack([k.ravel() for k in T.kraus], axis=1) / math.sqrt(d)
    labels = T.out_space.labels + ref_labels
    dims = T.out_space.dims + T.in_space.dims
    return ChoiMatrix(LabeledOperator(SubsystemSpace(labels, dims),
                                      vs @ vs.conj().T), T)


def map_from_choi(c: ChoiMatrix, in_space: SubsystemSpace,
                  out_space: SubsystemSpace) -> KrausMap:
    """Rebuild a Kraus map from its Choi matrix (round-trip check helper)."""
    d_in = in_space.total_dim
    d_out = out_space.total_dim
    w, v = np.linalg.eigh(c.op.entries)
    ks = []
    for i in range(len(w)):
        if w[i] > 1e-12:
            vec = v[:, i].reshape(d_out, d_in)
            ks.append(math.sqrt(w[i] * d_in) * vec)
    return KrausMap(in_space, out_space, ks if ks else [np.zeros((d_out, d_in))])


@dataclass
class ThetaReport:
    theta: float
    optimizer_theta_E: DensityOp
    closed_form_used: bool = True


def theta(T: KrausMap) -> ThetaReport:
    """Theta(T) = 2 log2 Tr sqrt(M) with M = Tr_out' of the squared Choi state.

    The minimizing conditioner sqrt(M)/Tr sqrt(M) on the output system is
    returned along with the value.
    """
    c = choi(T)
    tr = float(np.trace(c.op.entries).real)
    if tr <= 1e-14:
        raise ValueError("Theta is undefined for the zero map")
    ref = tuple(l for l in c.op.labels if l not in set(T.out_space.labels))
    sq = LabeledOperator(c.op.space, c.op.entries @ c.op.entries)
    m = partial_trace(sq, ref)
    root = mat_power(m, 0.5)
    s = float(np.trace(root.entries).real)
    opt = DensityOp(LabeledOperator(root.space, root.entries / s), "unit")
    return ThetaReport(theta=2.0 * math.log2(s), optimizer_theta_E=opt)


def is_class1(T: KrausMap, tol: float = KRAUS_TOL) -> str:
    """Certify the unitary-average trace-norm contraction property.

    Returns "yes_cptp", "yes_trace_condition", or "unknown".  CPTP maps
    qualify outright; so do CP maps with Tr T(I) equal to the input
    dimension.  Anything else is left inconclusive.
    """
    d = T.in_space.total_dim
    if T.is_trace_preserving(tol):
        return "yes_cptp"
    t_of_i = sum(np.trace(k @ k.conj().T).real for k in T.kraus)
    if abs(t_of_i - d) <= tol * max(1.0, d):
        return "yes_trace_condition"
    return "unknown"


def class1_spot_check(T: KrausMap, sample_haar, n_unitaries: int = 500,
                      n_states: int = 5, seed: int = 0):
    """Monte Carlo check of E_U ||T(U sigma U^dag)||_1 <= ||sigma||_1.

    sample_haar(dim, master_seed, stream) supplies the unitaries.  Returns
    (violated, worst_z) where worst_z is the largest violation in units of
    the standard error.
    """
    d = T.in_space.total_dim
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(999,)))
    worst = -math.inf
    violated = False
    for s_idx in range(n_states):
        g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        sig = g + g.conj().T
        base = trace_norm(sig)
        vals = np.empty(n_unitaries)
        for i in range(n_unitaries):
            u = sample_haar(d, seed, s_idx * n_unitaries + i)
            rotated = LabeledOperator(T.in_space, u @ sig @ u.conj().T)
            vals[i] = trace_norm(T.apply(rotated))
        mean = float(vals.mean())
        stderr = float(vals.std(ddof=1) / math.sqrt(n_unitaries))
        # definite sigma makes every sample equal base up to roundoff; guard
        # the z-score with an absolute tolerance so noise cannot trigger it
        tol = 1e-9 * max(1.0, base)
        if mean <= base + tol:
            z = -math.inf if stderr == 0 else min((mean - base) / stderr, 0.0)
        else:
            z = math.inf if stderr == 0 else (mean - base) / stderr
        worst = max(worst, z)
        if z > 3.0:
            violated = True
    return violated, worst


def t_w_map(W: PartialIsom) -> KrausMap:
    """T_W(sigma) = (|A|/|B|) W sigma W^dag for a full-rank partial isometry."""
    da = W.domain_space.total_dim
    db = W.codomain_space.total_dim
    if da < db:
        raise ValueError(f"t_w_map requires |A| >= |B|, got {da} < {db}")
    if not W.is_full_rank():
        raise ValueError("t_w_map requires a full-rank partial isometry")
    k = math.sqrt(da / db) * W.entries
    return KrausMap(W.domain_space, W.codomain_space, [k], "cp_general")


def compressive_map(W: PartialIsom) -> KrausMap:
    """C_W(rho) = W rho W^dag + Tr[(I - W^dag W) rho] pi_B; always CPTP."""
    da = W.domain_space.total_dim
    db = W.codomain_space.total_dim
    if db > da:
        raise ValueError(f"compressive map requires |B| <= |A|, got {db} > {da}")
    if not W.is_full_rank():
        raise ValueError("compressive map requires a full-rank partial isometry")
    ks = [W.entries.copy()]
    # residual: project onto ker(W), then route weight into pi_B
    kerp = np.eye(da) - W.entries.conj().T @ W.entries
    w, v = np.linalg.eigh((kerp + kerp.conj().T) / 2)
    basis = v[:, w > 0.5]
    for i in range(basis.shape[1]):
        for j in range(db):
            k = np.zeros((db, da), dtype=complex)
            k[j, :] = basis[:, i].conj() / math.sqrt(db)
            ks.append(k)
    return KrausMap(W.domain_space, W.codomain_space, ks, "cptp")


def measurement_map(dim_bc: int, dim_d: int, in_space: SubsystemSpace | None = None,
                    x_label: str = "X", d_label: str = "D"):
    """Block measurement family: J = ceil(dim_bc/dim_d) contiguous basis blocks.

    Returns (E, J) where E(sigma) = sum_x |x><x| (x) M_x sigma M_x^dag maps the
    input onto a classical register X of size J and a quantum register D.
    Every M_x except possibly the last is a full-rank partial isometry.
    """
    if dim_d > dim_bc:
        raise ValueError(f"block size {dim_d} exceeds input dimension {dim_bc}")
    if in_space is None:
        in_space = SubsystemSpace(("BC",), (dim_bc,))
    if in_space.total_dim != dim_bc:
        raise ValueError("in_space dimension disagrees with dim_bc")
    j = -(-dim_bc // dim_d)
    out = SubsystemSpace((x_label, d_label), (j, dim_d))
    ks = []
    for x in range(j):
        m_x = np.zeros((dim_d, dim_bc), dtype=complex)
        for r in range(dim_d):
            col = x * dim_d + r
            if col < dim_bc:
                m_x[r, col] = 1.0
        e_x = np.zeros((j, 1))
        e_x[x, 0] = 1.0
        ks.append(np.kron(e_x, m_x))
    return KrausMap(in_space, out, ks, "cptp"), j


def heisenberg_weyl(d: int) -> list[np.ndarray]:
    """The d^2 generalized Pauli unitaries X^a Z^b, pairwise trace-orthogonal."""
    om = np.exp(2j * np.pi / d)
    shift = np.roll(np.eye(d), 1, axis=0)
    clock = np.diag(om ** np.arange(d))
    fam = []
    for a in range(d):
        for b in range(d):
            fam.append(np.linalg.matrix_power(shift, a) @ np.linalg.matrix_power(clock, b))
    return fam


def randomizing_map(unitaries, sp: SubsystemSpace) -> KrausMap:
    """V(sigma) = (1/M) sum V_i sigma V_i^dag for a trace-orthogonal family."""
    d = sp.total_dim
    us = [np.asarray(u, dtype=complex) for u in unitaries]
    m = len(us)
    if m > d * d:
        raise ValueError(f"at most {d*d} orthogonal unitaries exist in dimension {d}, got {m}")
    for i in range(m):
        for j in range(m):
            ov = np.trace(us[i].conj().T @ us[j])
            want = d if i == j else 0.0
            if abs(ov - want) > 1e-9 * max(1.0, d):
                raise ValueError(f"orthogonality violated by pair ({i}, {j}): Tr = {ov}")
    ks = [u / math.sqrt(m) for u in us]
    return KrausMap(sp, sp, ks, "cptp")


def two_positivity_check(T: KrausMap, sigma: LabeledOperator,
                         tol: float = 1e-9) -> bool:
    """Check T(sigma) T(sigma^dag) <= T(sigma sigma^dag) T(I) in PSD order."""
    t_i = T.apply(LabeledOperator(T.in_space, np.eye(T.in_space.total_dim)))
    lhs = T.apply(sigma).entries @ T.apply(sigma.dagger()).entries
    ss = LabeledOperator(sigma.space, sigma.entries @ sigma.entries.conj().T)
    rhs = T.apply(ss).entries @ t_i.entries
    diff = rhs - lhs
    w = np.linalg.eigvalsh((diff + diff.conj().T) / 2)
    return bool(w.min() >= -tol)
