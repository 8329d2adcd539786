"""Unitary 2-design averaging: Haar sampling, exact moment formulas, and MC.

The first and second twirl moments have closed forms valid for any exact
2-design.  This module implements them, certifies concrete ensembles (the
24-element single-qubit Clifford group, explicit lists) against the formulas,
and provides a seeded, order-independent Monte Carlo estimator whose results
do not depend on the worker count.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .channels import KrausMap, choi, output_marginal
from .qmat import (
    LabeledOperator,
    LabelError,
    SubsystemSpace,
    apply_matrix,
    partial_trace,
    tensor,
)

WORKERS_ENV = "DECOUPKIT_WORKERS"


@dataclass(frozen=True)
class RngSeed:
    """A (master seed, stream index) pair naming one reproducible stream."""

    master_seed: int
    stream_index: int = 0

    def generator(self) -> np.random.Generator:
        ss = np.random.SeedSequence(self.master_seed, spawn_key=(self.stream_index,))
        return np.random.default_rng(ss)

    def stream(self, index: int) -> "RngSeed":
        return RngSeed(self.master_seed, index)


@dataclass
class McEstimate:
    mean: float
    stderr: float
    n_samples: int


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Exactly Haar-distributed unitary: Ginibre, QR, phase fix on R's diagonal."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(g)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def sample_haar(dim: int, seed: RngSeed, label: str = "A") -> LabeledOperator:
    """Deterministic Haar sample for a given (master seed, stream) pair."""
    if dim < 1:
        raise ValueError("dimension must be >= 1")
    u = haar_unitary(dim, seed.generator())
    return LabeledOperator(SubsystemSpace((label,), (dim,)), u)


def _canonical_phase(u: np.ndarray) -> np.ndarray:
    flat = u.ravel()
    k = int(np.argmax(np.abs(flat) > 1e-9))
    ph = flat[k] / abs(flat[k])
    return u / ph


def clifford_qubit() -> list[np.ndarray]:
    """The 24 single-qubit Clifford unitaries, one per phase-center coset."""
    h = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
    s = np.diag([1.0, 1j])
    found = {}
    frontier = [np.eye(2, dtype=complex)]
    while frontier:
        nxt = []
        for u in frontier:
            c = _canonical_phase(u)
            key = tuple(np.round(c.ravel(), 9))
            if key in found:
                continue
            found[key] = c
            nxt.extend([u @ h, u @ s])
        frontier = nxt
    elems = list(found.values())
    if len(elems) != 24:
        raise RuntimeError(f"Clifford enumeration produced {len(elems)} elements")
    return elems


@dataclass
class UnitaryEnsemble:
    """A source of random unitaries: Haar, the qubit Clifford group, or a list."""

    kind: str  # "haar" | "clifford_qubit" | "explicit"
    dim: int
    unitaries: list | None = None

    def __post_init__(self):
        if self.kind == "clifford_qubit":
            if self.dim != 2:
                raise ValueError("the qubit Clifford ensemble has dim = 2")
            self.unitaries = clifford_qubit()
        elif self.kind == "explicit":
            if not self.unitaries:
                raise ValueError("explicit ensemble needs a nonempty unitary list")
            self.unitaries = [np.asarray(u, dtype=complex) for u in self.unitaries]
            for i, u in enumerate(self.unitaries):
                if np.abs(u.conj().T @ u - np.eye(self.dim)).max() > 1e-10:
                    raise ValueError(f"ensemble element {i} is not unitary")
        elif self.kind != "haar":
            raise ValueError(f"unknown ensemble kind {self.kind!r}")

    def draw(self, seed: RngSeed) -> np.ndarray:
        if self.kind == "haar":
            return haar_unitary(self.dim, seed.generator())
        idx = int(seed.generator().integers(len(self.unitaries)))
        return self.unitaries[idx]

    def elements(self) -> list[np.ndarray]:
        if self.unitaries is None:
            raise ValueError("the Haar ensemble is not finite")
        return self.unitaries


def _conjugate_on(m: LabeledOperator, u: np.ndarray, label_a: str) -> LabeledOperator:
    """(U (x) I) m (U (x) I)^dag acting on the named factor."""
    entries, sp = apply_matrix(m, u, None, (label_a,))
    out = LabeledOperator(sp, entries)
    return out if sp.labels == m.labels else out.permuted(m.labels)


def twirl_moment1(m: LabeledOperator, label_a: str = "A") -> LabeledOperator:
    """Exact E_U[(U (x) I) m (U^dag (x) I)] = pi_A (x) Tr_A m."""
    m.space.index_of(label_a)
    da = m.space.dim_of(label_a)
    rest = partial_trace(m, {label_a})
    pi = LabeledOperator(m.space.subspace((label_a,)), np.eye(da) / da)
    return tensor(pi, rest).permuted(m.labels)


def twirl_moment2(sigma: LabeledOperator, x: LabeledOperator, w: LabeledOperator,
                  label_a: str = "A") -> LabeledOperator:
    """Exact E_U[ U sigma U^dag (X (x) W) U sigma^dag U^dag ] for a 2-design.

    sigma lives on A (x) R, X on A, W on R; the twirl acts on A only.  The
    closed form combines Lambda = sigma^R W sigma^R^dag with
    Upsilon = Tr_A[sigma (I (x) W) sigma^dag].
    """
    da = sigma.space.dim_of(label_a)
    if da < 2:
        raise ValueError("the second-moment formula is singular at |A| = 1")
    rest = tuple(l for l in sigma.labels if l != label_a)
    if x.labels != (label_a,):
        raise LabelError(f"X must live on ({label_a!r},), got {x.labels}")
    if set(w.labels) != set(rest):
        raise LabelError(f"W must live on {rest}, got {w.labels}")
    perm = sigma.permuted((label_a,) + rest)
    w_perm = w.permuted(rest)
    sig_r = partial_trace(perm, {label_a}).entries
    lam = sig_r @ w_perm.entries @ sig_r.conj().T
    # Upsilon needs (1 (x) W) sigma^dag.  With sigma in (rest, A) order, read
    # sigma^dag as a vector with one more factor for its column index; W then
    # acts on the leading rest factors of its rows and nothing has to move.
    sr = sigma.permuted(rest + (label_a,))
    d = sr.dim
    rows = SubsystemSpace(sr.labels + ("__col__",), sr.space.dims + (d,))
    wsd, _ = apply_matrix(sr.entries.conj().T.ravel(), w_perm.entries, rows, rest)
    ups_full = LabeledOperator(sr.space, sr.entries @ wsd.reshape(d, d))
    ups = partial_trace(ups_full, {label_a}).entries
    tr_x = complex(np.trace(x.entries))
    term1 = np.kron(x.entries, da * lam - ups)
    term2 = tr_x * np.kron(np.eye(da), da * ups - lam)
    out = (term1 + term2) / (da * (da * da - 1))
    return LabeledOperator(perm.space, out).permuted(sigma.labels)


def _q_multi(op: LabeledOperator, labels_a) -> LabeledOperator:
    """|A| Tr_A(m m^dag) - m^B (m^B)^dag for a possibly composite A factor."""
    labels_a = tuple(labels_a)
    da = 1
    for l in labels_a:
        da *= op.space.dim_of(l)
    mm = LabeledOperator(op.space, op.entries @ op.entries.conj().T)
    first = partial_trace(mm, labels_a)
    marg = partial_trace(op, labels_a)
    out = da * first.entries - marg.entries @ marg.entries.conj().T
    return LabeledOperator(first.space, out)


def second_moment_delta(T: KrausMap, sigma: LabeledOperator,
                        label_a: str = "A"):
    """Exact E_U[Delta Delta^dag] for Delta = T(U sigma U^dag) - omega_E (x) sigma^R.

    Returns (exact, upper_bound), both on the output system E tensored with
    the reference R.  The exact value is Q_out(omega) (x) Q_A(sigma) divided
    by |A|^2 - 1; the bound replaces both Q factors by their leading terms.
    """
    da = sigma.space.dim_of(label_a)
    if da < 2:
        raise ValueError("second-moment formula is singular at |A| = 1")
    if set(T.in_space.labels) != {label_a}:
        raise LabelError("the map must act on the twirled factor only")
    rest = tuple(l for l in sigma.labels if l != label_a)
    c = choi(T)
    primed = tuple(l for l in c.op.labels if l not in set(T.out_space.labels))
    q_out = _q_multi(c.op, primed)
    q_a = _q_multi(sigma.permuted((label_a,) + rest), (label_a,))
    exact = tensor(q_out, q_a) * (1.0 / (da * da - 1))
    omsq = LabeledOperator(c.op.space, c.op.entries @ c.op.entries)
    tr_out = partial_trace(omsq, primed)
    ss = sigma.permuted((label_a,) + rest)
    ssd = LabeledOperator(ss.space, ss.entries @ ss.entries.conj().T)
    tr_a = partial_trace(ssd, {label_a})
    bound = tensor(tr_out, tr_a) * (da * da / (da * da - 1.0))
    return exact, bound


def delta_of(T: KrausMap, sigma: LabeledOperator, u: np.ndarray,
             label_a: str = "A") -> LabeledOperator:
    """T(U sigma U^dag) - omega_E (x) sigma^R for one concrete unitary."""
    rotated = _conjugate_on(sigma, u, label_a)
    out = T.apply(rotated)
    om_e = output_marginal(T)
    sig_r = partial_trace(sigma, {label_a})
    ref = tensor(om_e, sig_r).permuted(out.labels)
    return out - ref


def _worker_count() -> int:
    """The DECOUPKIT_WORKERS thread count, 1 when unset; raises unless a positive integer."""
    raw = os.environ.get(WORKERS_ENV, "1")
    try:
        n = int(raw)
    except ValueError:
        n = 0
    if n < 1:
        raise ValueError(f"{WORKERS_ENV} must be a positive integer, got {raw!r}")
    return n


def mc_average(f, ensemble: UnitaryEnsemble, n_samples: int, seed: RngSeed,
               stream_offset: int = 0) -> McEstimate:
    """Monte Carlo mean of f(U) over the ensemble, reproducible by contract.

    Sample i always draws from stream stream_offset + i, and the reduction
    runs in fixed sample order, so the estimate is bit-identical regardless
    of the worker count.
    """
    if n_samples < 2:
        raise ValueError("mc_average needs at least 2 samples")

    def one(i: int) -> float:
        u = ensemble.draw(seed.stream(stream_offset + i))
        return float(f(u))

    workers = _worker_count()
    if workers == 1:
        vals = [one(i) for i in range(n_samples)]
    else:
        with ThreadPoolExecutor(max_workers=workers) as ex:
            vals = list(ex.map(one, range(n_samples)))
    arr = np.array(vals)
    mean = float(arr.mean())
    stderr = float(arr.std(ddof=1) / math.sqrt(n_samples))
    return McEstimate(mean=mean, stderr=stderr, n_samples=n_samples)


def ensemble_average_operator(f, ensemble: UnitaryEnsemble) -> LabeledOperator:
    """Exhaustive average of an operator-valued f over a finite ensemble."""
    elems = ensemble.elements()
    acc = None
    for u in elems:
        val = f(u)
        acc = val if acc is None else acc + val
    return acc * (1.0 / len(elems))
