"""Dense complex operators on labeled tensor-product spaces.

Every operator in this package lives on a :class:`SubsystemSpace`: an ordered
list of named subsystems with declared dimensions.  Keeping names attached to
tensor factors lets protocol code permute, trace out, and regroup factors
without positional-index bookkeeping.  The computational basis is row-major
in the label order, fixed globally.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

HERMITIAN_TOL = 1e-10
TRACE_TOL = 1e-9
EIG_CLAMP = 1e-12


class SpaceMismatchError(ValueError):
    """Operands live on incompatible subsystem spaces."""


class LabelError(ValueError):
    """A subsystem label is missing, duplicated, or colliding."""


@dataclass(frozen=True)
class SubsystemSpace:
    """An ordered collection of named subsystems with their dimensions."""

    labels: tuple[str, ...]
    dims: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(self.labels))
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))
        if len(self.labels) != len(self.dims):
            raise LabelError("labels and dims must have equal length")
        if len(set(self.labels)) != len(self.labels):
            raise LabelError(f"duplicate labels in {self.labels}")
        if any(d < 1 for d in self.dims):
            raise ValueError(f"all dimensions must be >= 1, got {self.dims}")

    @property
    def total_dim(self) -> int:
        return math.prod(self.dims)

    def dim_of(self, label: str) -> int:
        try:
            return self.dims[self.labels.index(label)]
        except ValueError:
            raise LabelError(f"unknown label {label!r}; have {self.labels}") from None

    def index_of(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise LabelError(f"unknown label {label!r}; have {self.labels}") from None

    def subspace(self, labels) -> "SubsystemSpace":
        labels = tuple(labels)
        return SubsystemSpace(labels, tuple(self.dim_of(l) for l in labels))

    def drop(self, labels) -> "SubsystemSpace":
        dropped = set(labels)
        for l in dropped:
            self.index_of(l)
        keep = tuple(l for l in self.labels if l not in dropped)
        return self.subspace(keep)


def space(**label_dims: int) -> SubsystemSpace:
    """Shorthand: ``space(A=2, R=3)``. Relies on kwargs preserving order."""
    return SubsystemSpace(tuple(label_dims), tuple(label_dims.values()))


@dataclass
class LabeledOperator:
    """A dense complex square matrix on a labeled tensor-product space."""

    space: SubsystemSpace
    entries: np.ndarray
    hermitian_hint: bool | None = None

    def __post_init__(self):
        self.entries = np.asarray(self.entries, dtype=complex)
        d = self.space.total_dim
        if self.entries.shape != (d, d):
            raise ValueError(
                f"entries shape {self.entries.shape} does not match space dim {d}"
            )
        if self.hermitian_hint:
            gap = np.abs(self.entries - self.entries.conj().T).max()
            if gap > HERMITIAN_TOL:
                raise ValueError(f"hermitian_hint set but asymmetry {gap:.2e} > {HERMITIAN_TOL}")

    @property
    def labels(self) -> tuple[str, ...]:
        return self.space.labels

    @property
    def dim(self) -> int:
        return self.space.total_dim

    def trace(self) -> complex:
        return complex(np.trace(self.entries))

    def dagger(self) -> "LabeledOperator":
        return LabeledOperator(self.space, self.entries.conj().T, self.hermitian_hint)

    def is_hermitian(self, tol: float = HERMITIAN_TOL) -> bool:
        return bool(np.abs(self.entries - self.entries.conj().T).max() <= tol)

    def __add__(self, other: "LabeledOperator") -> "LabeledOperator":
        _require_same_space(self, other)
        return LabeledOperator(self.space, self.entries + other.entries)

    def __sub__(self, other: "LabeledOperator") -> "LabeledOperator":
        _require_same_space(self, other)
        return LabeledOperator(self.space, self.entries - other.entries)

    def __mul__(self, scalar) -> "LabeledOperator":
        return LabeledOperator(self.space, self.entries * scalar)

    __rmul__ = __mul__

    def __matmul__(self, other: "LabeledOperator") -> "LabeledOperator":
        _require_same_space(self, other)
        return LabeledOperator(self.space, self.entries @ other.entries)

    def permuted(self, new_labels) -> "LabeledOperator":
        """Reorder tensor factors to ``new_labels`` (a permutation of labels)."""
        new_labels = tuple(new_labels)
        if set(new_labels) != set(self.labels) or len(new_labels) != len(self.labels):
            raise LabelError(f"{new_labels} is not a permutation of {self.labels}")
        if new_labels == self.labels:
            return LabeledOperator(self.space, self.entries.copy(), self.hermitian_hint)
        out, sp = apply_matrix(self.entries, None, self.space, new_labels)
        return LabeledOperator(sp, out, self.hermitian_hint)

    def relabeled(self, mapping: dict) -> "LabeledOperator":
        """Rename subsystems (dimensions unchanged)."""
        labels = tuple(mapping.get(l, l) for l in self.labels)
        return LabeledOperator(SubsystemSpace(labels, self.space.dims),
                               self.entries, self.hermitian_hint)


def _require_same_space(a: LabeledOperator, b: LabeledOperator):
    if a.space != b.space:
        raise SpaceMismatchError(f"space mismatch: {a.space} vs {b.space}")


@dataclass
class DensityOp:
    """A positive semidefinite operator with unit or subnormalized trace.

    Construction clamps tiny negative eigenvalue dust to zero; genuinely
    indefinite input is rejected.
    """

    op: LabeledOperator
    trace_class: str = "unit"  # "unit" | "subnormalized"

    def __post_init__(self):
        if self.trace_class not in ("unit", "subnormalized"):
            raise ValueError(f"bad trace_class {self.trace_class!r}")
        m = self.op.entries
        gap = np.abs(m - m.conj().T).max()
        if gap > HERMITIAN_TOL:
            raise ValueError(f"density operator not Hermitian: asymmetry {gap:.2e}")
        m = (m + m.conj().T) / 2
        w, v = np.linalg.eigh(m)
        if w.min() < -HERMITIAN_TOL:
            raise ValueError(f"density operator not PSD: min eigenvalue {w.min():.2e}")
        if w.min() < 0:
            w = np.clip(w, 0.0, None)
            m = (v * w) @ v.conj().T
            m = (m + m.conj().T) / 2
        tr = float(np.trace(m).real)
        if self.trace_class == "unit":
            if abs(tr - 1.0) > TRACE_TOL:
                raise ValueError(f"unit-trace density operator has trace {tr}")
        else:
            if not (0.0 < tr <= 1.0 + TRACE_TOL):
                raise ValueError(f"subnormalized trace {tr} outside (0, 1]")
        self.op = LabeledOperator(self.op.space, m, hermitian_hint=True)

    @property
    def space(self) -> SubsystemSpace:
        return self.op.space

    @property
    def labels(self) -> tuple[str, ...]:
        return self.op.labels

    @property
    def entries(self) -> np.ndarray:
        return self.op.entries

    def trace(self) -> float:
        return float(np.trace(self.entries).real)

    def permuted(self, new_labels) -> "DensityOp":
        return DensityOp(self.op.permuted(new_labels), self.trace_class)

    def relabeled(self, mapping: dict) -> "DensityOp":
        return DensityOp(self.op.relabeled(mapping), self.trace_class)


@dataclass
class PureState:
    """A normalized state vector on a labeled space."""

    space: SubsystemSpace
    amplitudes: np.ndarray

    def __post_init__(self):
        self.amplitudes = np.asarray(self.amplitudes, dtype=complex).ravel()
        if self.amplitudes.size != self.space.total_dim:
            raise ValueError(
                f"amplitude length {self.amplitudes.size} != space dim {self.space.total_dim}"
            )
        nrm = np.linalg.norm(self.amplitudes)
        if abs(nrm - 1.0) > HERMITIAN_TOL:
            raise ValueError(f"state vector norm {nrm} not 1")

    @property
    def labels(self) -> tuple[str, ...]:
        return self.space.labels

    def projector(self) -> DensityOp:
        m = np.outer(self.amplitudes, self.amplitudes.conj())
        return DensityOp(LabeledOperator(self.space, m), "unit")

    def permuted(self, new_labels) -> "PureState":
        new_labels = tuple(new_labels)
        if set(new_labels) != set(self.labels) or len(new_labels) != len(self.labels):
            raise LabelError(f"{new_labels} is not a permutation of {self.labels}")
        amps, sp = apply_matrix(self.amplitudes, None, self.space, new_labels)
        return PureState(sp, amps)

    def relabeled(self, mapping: dict) -> "PureState":
        labels = tuple(mapping.get(l, l) for l in self.labels)
        return PureState(SubsystemSpace(labels, self.space.dims), self.amplitudes)


def tensor_states(*states: PureState) -> PureState:
    vec = np.array([1.0 + 0j])
    labels, dims = [], []
    for s in states:
        for l in s.labels:
            if l in labels:
                raise LabelError(f"label collision on {l!r} in tensor of states")
        labels.extend(s.labels)
        dims.extend(s.space.dims)
        vec = np.kron(vec, s.amplitudes)
    return PureState(SubsystemSpace(tuple(labels), tuple(dims)), vec)


@dataclass
class PartialIsom:
    """A matrix between two labeled spaces whose singular values are 0 or 1."""

    domain_space: SubsystemSpace
    codomain_space: SubsystemSpace
    entries: np.ndarray
    ISOM_TOL = 1e-9

    def __post_init__(self):
        self.entries = np.asarray(self.entries, dtype=complex)
        expected = (self.codomain_space.total_dim, self.domain_space.total_dim)
        if self.entries.shape != expected:
            raise ValueError(f"shape {self.entries.shape} != {expected}")
        sv = np.linalg.svd(self.entries, compute_uv=False)
        off = np.minimum(np.abs(sv), np.abs(sv - 1.0))
        if off.max(initial=0.0) > self.ISOM_TOL:
            raise ValueError(f"singular values not in {{0,1}}: worst deviation {off.max():.2e}")

    @property
    def rank(self) -> int:
        sv = np.linalg.svd(self.entries, compute_uv=False)
        return int(np.sum(sv > 0.5))

    def is_full_rank(self) -> bool:
        return self.rank == min(self.domain_space.total_dim, self.codomain_space.total_dim)

    def dagger(self) -> "PartialIsom":
        return PartialIsom(self.codomain_space, self.domain_space, self.entries.conj().T)


def truncation_isometry(domain: SubsystemSpace, codomain: SubsystemSpace) -> PartialIsom:
    """The computational-basis truncation W|i> = |i> for i < min dim, else 0."""
    dd, dc = domain.total_dim, codomain.total_dim
    w = np.zeros((dc, dd), dtype=complex)
    r = min(dd, dc)
    w[:r, :r] = np.eye(r)
    return PartialIsom(domain, codomain, w)


# ---------------------------------------------------------------------------
# operations


def tensor(a: LabeledOperator, b: LabeledOperator) -> LabeledOperator:
    """Kronecker product with concatenated label lists."""
    collide = set(a.labels) & set(b.labels)
    if collide:
        raise LabelError(f"label collision on {sorted(collide)} in tensor product")
    sp = SubsystemSpace(a.labels + b.labels, a.space.dims + b.space.dims)
    return LabeledOperator(sp, np.kron(a.entries, b.entries))


def partial_trace(m: LabeledOperator, traced_labels) -> LabeledOperator:
    """Trace out the named subsystems; the result keeps the remaining labels."""
    traced = set(traced_labels)
    for l in traced:
        m.space.index_of(l)
    keep = [l for l in m.labels if l not in traced]
    k = len(m.labels)
    t = m.entries.reshape(m.space.dims * 2)
    axes = sorted(m.labels.index(l) for l in traced)
    for shift, ax in enumerate(axes):
        nfac = k - shift
        t = np.trace(t, axis1=ax - shift, axis2=ax - shift + nfac)
    new_space = m.space.subspace(keep)
    d = new_space.total_dim
    return LabeledOperator(new_space, np.asarray(t).reshape(d, d))


def trace_norm(m) -> float:
    """Sum of singular values. Accepts LabeledOperator, DensityOp, or ndarray."""
    if isinstance(m, DensityOp):
        m = m.op
    a = m.entries if isinstance(m, LabeledOperator) else np.asarray(m)
    if np.abs(a - a.conj().T).max(initial=0.0) <= 1e-12:
        return float(np.abs(np.linalg.eigvalsh(a)).sum())
    return float(np.linalg.svd(a, compute_uv=False).sum())


def _as_psd_matrix(m) -> np.ndarray:
    if isinstance(m, DensityOp):
        return m.entries
    if isinstance(m, LabeledOperator):
        return m.entries
    return np.asarray(m, dtype=complex)


def mat_power(m, p: float):
    """Fractional power of a Hermitian PSD operator.

    Eigenvalues below the clamping floor are treated as exact zeros; negative
    powers invert on the support only (Moore-Penrose convention).
    """
    a = _as_psd_matrix(m)
    if np.abs(a - a.conj().T).max() > 1e-8:
        raise ValueError("mat_power requires a Hermitian input")
    a = (a + a.conj().T) / 2
    w, v = np.linalg.eigh(a)
    if w.min() < -1e-8:
        raise ValueError(f"mat_power requires PSD input, min eigenvalue {w.min():.2e}")
    w = np.where(w < EIG_CLAMP, 0.0, w)
    out = np.zeros_like(w)
    pos = w > 0
    out[pos] = w[pos] ** p
    res = (v * out) @ v.conj().T
    res = (res + res.conj().T) / 2
    if isinstance(m, (LabeledOperator, DensityOp)):
        sp = m.space if isinstance(m, DensityOp) else m.space
        return LabeledOperator(sp, res, hermitian_hint=True)
    return res


def support_projector(m) -> np.ndarray:
    a = _as_psd_matrix(m)
    w, v = np.linalg.eigh((a + a.conj().T) / 2)
    keep = w > EIG_CLAMP
    return (v[:, keep]) @ v[:, keep].conj().T


def fidelity(rho, sigma) -> float:
    """F(rho, sigma) = || sqrt(rho) sqrt(sigma) ||_1 for PSD inputs."""
    if isinstance(rho, (LabeledOperator, DensityOp)) and isinstance(sigma, (LabeledOperator, DensityOp)):
        sa = rho.space if isinstance(rho, DensityOp) else rho.space
        sb = sigma.space if isinstance(sigma, DensityOp) else sigma.space
        if sa != sb:
            raise SpaceMismatchError(f"fidelity space mismatch: {sa} vs {sb}")
    a = _as_psd_matrix(rho)
    b = _as_psd_matrix(sigma)
    ra = mat_power(a, 0.5)
    w = np.linalg.eigvalsh(ra @ b @ ra)
    w = np.clip(w, 0.0, None)
    return float(np.sqrt(w).sum())


def positive_part_projector(rho, sigma) -> LabeledOperator:
    """Projector onto the eigenvectors of rho - sigma with eigenvalue >= 0."""
    a = _as_psd_matrix(rho)
    b = _as_psd_matrix(sigma)
    diff = a - b
    if np.abs(diff - diff.conj().T).max(initial=0.0) > 1e-8:
        raise ValueError("positive_part_projector requires Hermitian inputs")
    w, v = np.linalg.eigh((diff + diff.conj().T) / 2)
    keep = w >= 0
    proj = v[:, keep] @ v[:, keep].conj().T
    sp = rho.space if isinstance(rho, (LabeledOperator, DensityOp)) else None
    if sp is not None:
        return LabeledOperator(sp, proj, hermitian_hint=True)
    return LabeledOperator(SubsystemSpace(("S",), (a.shape[0],)), proj, hermitian_hint=True)


def eig_clusters(w: np.ndarray, rel_tol: float = 1e-8) -> list[np.ndarray]:
    """Greedy clustering of sorted eigenvalues into numerically-equal groups."""
    w = np.sort(np.asarray(w, dtype=float))
    thr = rel_tol * max(1.0, float(np.abs(w).max(initial=0.0)))
    clusters = []
    start = 0
    for i in range(1, len(w) + 1):
        if i == len(w) or w[i] - w[i - 1] > thr:
            clusters.append(w[start:i])
            start = i
    return clusters


def distinct_eigs(sigma, rel_tol: float = 1e-8) -> int:
    """Number of numerically distinct eigenvalues of a Hermitian operator."""
    a = _as_psd_matrix(sigma)
    if np.abs(a - a.conj().T).max(initial=0.0) > 1e-8:
        raise ValueError("distinct_eigs requires a Hermitian input")
    w = np.linalg.eigvalsh((a + a.conj().T) / 2)
    return len(eig_clusters(w, rel_tol))


def pinch(sigma, rho):
    """Dephase rho in the eigenbasis of sigma, one block per distinct eigenvalue."""
    a = _as_psd_matrix(sigma)
    b = _as_psd_matrix(rho)
    if np.abs(a - a.conj().T).max(initial=0.0) > 1e-8:
        raise ValueError("pinching reference must be Hermitian")
    w, v = np.linalg.eigh((a + a.conj().T) / 2)  # ascending, as eig_clusters expects
    out = np.zeros_like(b)
    start = 0
    for cluster in eig_clusters(w):
        block = v[:, start:start + len(cluster)]
        p = block @ block.conj().T
        out += p @ b @ p
        start += len(cluster)
    if isinstance(rho, (LabeledOperator, DensityOp)):
        sp = rho.space
        return LabeledOperator(sp, out)
    return out


def purify(rho: DensityOp, ref_label: str) -> PureState:
    """Purify a unit-trace state; the reference dimension equals rank(rho)."""
    if rho.trace_class != "unit":
        raise ValueError("purify requires a unit-trace state")
    if ref_label in rho.labels:
        raise LabelError(f"reference label {ref_label!r} collides with state labels")
    w, v = np.linalg.eigh(rho.entries)
    keep = w > EIG_CLAMP
    w = w[keep]
    v = v[:, keep]
    r = len(w)
    vec = (v * np.sqrt(w)).ravel()
    vec /= np.linalg.norm(vec)
    sp = SubsystemSpace(rho.labels + (ref_label,), rho.space.dims + (r,))
    return PureState(sp, vec)


def mes(d: int, label_a: str = "A", label_b: str = "A'") -> PureState:
    """The maximally entangled state sum_i |ii> / sqrt(d)."""
    if d < 1:
        raise ValueError("dimension must be >= 1")
    vec = np.eye(d).ravel() / math.sqrt(d)
    return PureState(SubsystemSpace((label_a, label_b), (d, d)), vec)


def maximally_mixed(d: int, label: str = "A") -> DensityOp:
    if d < 1:
        raise ValueError("dimension must be >= 1")
    sp = SubsystemSpace((label,), (d,))
    return DensityOp(LabeledOperator(sp, np.eye(d) / d), "unit")


def identity_on(sp: SubsystemSpace) -> LabeledOperator:
    return LabeledOperator(sp, np.eye(sp.total_dim), hermitian_hint=True)


def xi(eps: float) -> float:
    """Error-conversion function sqrt(eps (2 + eps + 2 sqrt(1 + eps)))."""
    if eps < 0:
        raise ValueError("xi requires a nonnegative argument")
    return math.sqrt(eps * (2.0 + eps + 2.0 * math.sqrt(1.0 + eps)))


def apply_matrix(x, mat, space_in: SubsystemSpace, act_labels,
                 out_labels=None, out_dims=None) -> tuple[np.ndarray, SubsystemSpace]:
    """Apply ``mat`` to the named factors of a state vector or an operator.

    A vector v (1-D array or PureState) becomes (mat (x) 1) v; an operator X
    (2-D array or LabeledOperator, Hermitian or not) becomes
    (mat (x) 1) X (mat (x) 1)^dag.  ``mat=None`` stands for the identity, so
    the factors are only reordered.  The acted factors are replaced by
    ``out_labels``/``out_dims`` (defaults: unchanged) and come first in the
    result, followed by the spectators in their original order.  Returns the
    raw array and its new space; normalization is the caller's business.

    The work is one reshape/transpose plus a matmul per side, O(d_act d^2)
    for an operator of dimension d, and never forms mat (x) 1.
    """
    if isinstance(x, PureState):
        space_in, x = x.space, x.amplitudes
    elif isinstance(x, LabeledOperator):
        space_in, x = x.space, x.entries
    x = np.asarray(x)
    act_labels = tuple(act_labels)
    if len(set(act_labels)) != len(act_labels):
        raise LabelError(f"repeated label in {act_labels}")
    labels, dims = space_in.labels, space_in.dims
    act = [space_in.index_of(l) for l in act_labels]
    spect = [i for i in range(len(labels)) if i not in act]
    spect_dims = tuple(dims[i] for i in spect)
    d_act, d_sp = math.prod(dims[i] for i in act), math.prod(spect_dims)
    if out_labels is None:
        out_labels, out_dims = act_labels, tuple(dims[i] for i in act)
    out_dims = tuple(out_dims)
    sp_out = SubsystemSpace(tuple(out_labels) + tuple(labels[i] for i in spect),
                            out_dims + spect_dims)
    d_out = math.prod(out_dims)
    if mat is not None and mat.shape != (d_out, d_act):
        raise ValueError(f"matrix shape {mat.shape} does not map {d_act} to {d_out}")
    perm = act + spect
    is_op = x.ndim == 2
    t = x.reshape(dims * 2 if is_op else dims)
    if perm != sorted(perm):
        t = t.transpose(perm + [p + len(perm) for p in perm] if is_op else perm)
    t = t.reshape(d_act, -1)
    if mat is not None:
        t = mat @ t
        if is_op:
            # rows are done; the column side is one batched matmul with conj(mat)
            t = np.matmul(mat.conj(), t.reshape(d_out * d_sp, d_act, d_sp))
    d = d_out * d_sp
    return (t.reshape(d, d) if is_op else t.reshape(d)), sp_out
