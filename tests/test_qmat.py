"""Core linear-algebra layer: labeled spaces, states, isometries, metrics."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from decoupkit.qmat import (
    DensityOp,
    LabeledOperator,
    LabelError,
    PartialIsom,
    PureState,
    SubsystemSpace,
    apply_matrix,
    fidelity,
    mat_power,
    maximally_mixed,
    mes,
    partial_trace,
    pinch,
    purify,
    space,
    tensor,
    trace_norm,
    truncation_isometry,
    xi,
)

from conftest import random_density, random_psd, random_pure, rng


def test_space_and_labels():
    sp = space(A=2, R=3)
    assert sp.total_dim == 6
    assert sp.dim_of("A") == 2 and sp.dim_of("R") == 3
    with pytest.raises(ValueError):
        space(A=0)


def test_permutation_roundtrip():
    g = rng(1)
    op = LabeledOperator(space(A=2, B=3), g.normal(size=(6, 6)))
    back = op.permuted(("B", "A")).permuted(("A", "B"))
    assert np.allclose(back.entries, op.entries)
    with pytest.raises(LabelError):
        op.permuted(("A", "C"))


def test_partial_trace_consistency():
    g = rng(2)
    rho = random_density(g, space(A=2, B=3))
    red = partial_trace(rho.op, ("B",))
    assert abs(np.trace(red.entries).real - 1.0) <= 1e-12
    sig = random_density(g, space(B=3))
    prod = tensor(partial_trace(rho.op, ("B",)), sig.op)
    assert abs(np.trace(prod.entries).real - 1.0) <= 1e-12


def test_trace_norm_and_fidelity_basics():
    a = np.diag([0.7, 0.3])
    b = np.diag([0.3, 0.7])
    assert abs(trace_norm(a - b) - 0.8) <= 1e-12
    assert abs(fidelity(a, a) - 1.0) <= 1e-12
    # orthogonal pure states
    p0 = np.diag([1.0, 0.0])
    p1 = np.diag([0.0, 1.0])
    assert abs(fidelity(p0, p1)) <= 1e-12


def test_fidelity_monotone_under_partial_trace():
    g = rng(3)
    for _ in range(100):
        rho = random_density(g, space(A=2, B=2))
        sig = random_density(g, space(A=2, B=2))
        f_joint = fidelity(rho.op.entries, sig.op.entries)
        f_red = fidelity(partial_trace(rho.op, ("B",)).entries,
                         partial_trace(sig.op, ("B",)).entries)
        assert f_red >= f_joint - 1e-9


def test_purify_and_mes():
    g = rng(4)
    rho = random_density(g, space(A=3))
    psi = purify(rho, "R")
    back = partial_trace(psi.projector().op, ("R",))
    assert np.abs(back.entries - rho.op.entries).max() <= 1e-10
    # purification reference is as small as the rank
    pure = DensityOp(LabeledOperator(space(A=2), np.diag([1.0, 0.0])), "unit")
    assert purify(pure, "R").space.dim_of("R") == 1
    phi = mes(3, "A", "B")
    red = partial_trace(phi.projector().op, ("B",))
    assert np.abs(red.entries - np.eye(3) / 3).max() <= 1e-12


def test_partial_isometry_validation():
    with pytest.raises(ValueError):
        PartialIsom(space(A=2), space(B=2), np.array([[1.0, 0.0], [0.0, 0.5]]))
    w = truncation_isometry(space(A=4), space(B=2))
    assert w.entries.shape == (2, 4)
    assert np.abs(w.entries @ w.entries.conj().T - np.eye(2)).max() <= 1e-12


def test_mat_power_and_pinch():
    g = rng(5)
    m = random_psd(g, 3, trace=1.0)
    sq = mat_power(LabeledOperator(space(A=3), m), 0.5)
    assert np.abs(sq.entries @ sq.entries - m).max() <= 1e-10
    sig = LabeledOperator(space(A=3), np.diag([0.5, 0.3, 0.2]))
    rho = LabeledOperator(space(A=3), m)
    pinched = pinch(sig, rho)
    # pinching in a nondegenerate eigenbasis keeps only the diagonal
    assert np.abs(pinched.entries - np.diag(np.diag(m))).max() <= 1e-10


def test_xi_properties():
    assert xi(0.0) == 0.0
    xs = np.linspace(0.0, 3.0, 50)
    vals = [xi(float(x)) for x in xs]
    assert all(b >= a for a, b in zip(vals, vals[1:]))
    with pytest.raises(ValueError):
        xi(-0.1)


def test_apply_matrix_reorders_outputs():
    g = rng(6)
    psi = random_pure(g, space(A=2, R=3))
    u = g.normal(size=(4, 2))
    out, sp_out = apply_matrix(psi.amplitudes, u, psi.space, ("A",),
                               ("B",), (4,))
    assert sp_out.labels == ("B", "R")
    assert out.shape == (12,)
    # acting with the identity is a no-op
    same, sp_same = apply_matrix(psi.amplitudes, np.eye(2), psi.space, ("A",))
    assert np.allclose(same, psi.amplitudes)


def test_maximally_mixed_trace():
    pi = maximally_mixed(5)
    assert abs(np.trace(pi.op.entries).real - 1.0) <= 1e-12


def test_pure_state_permuted_rejects_repeated_labels():
    psi = random_pure(rng(7), space(A=2, R=3))
    with pytest.raises(LabelError):
        psi.permuted(("A", "R", "A"))
    with pytest.raises(LabelError):
        psi.permuted(("A",))


def test_apply_matrix_rejects_bad_input():
    psi = random_pure(rng(8), space(A=2, R=3))
    with pytest.raises(ValueError):
        apply_matrix(psi.amplitudes, np.eye(3), psi.space, ("A",))
    with pytest.raises(LabelError):
        apply_matrix(psi.amplitudes, np.eye(4), psi.space, ("A", "A"))
    with pytest.raises(LabelError):
        apply_matrix(psi.amplitudes, np.eye(2), psi.space, ("A",), ("R",), (2,))


@st.composite
def _kernel_cases(draw):
    k = draw(st.integers(1, 4))
    labels = tuple("PQRS"[:k])
    dims = tuple(draw(st.lists(st.integers(1, 4), min_size=k, max_size=k)))
    act = tuple(draw(st.permutations(labels)))[:draw(st.integers(1, k))]
    if draw(st.booleans()):
        out_labels = out_dims = None
    else:
        out_dims = tuple(draw(st.lists(st.integers(1, 4), min_size=1, max_size=2)))
        out_labels = tuple(f"Z{i}" for i in range(len(out_dims)))
    return (SubsystemSpace(labels, dims), act, out_labels, out_dims,
            draw(st.booleans()), draw(st.integers(0, 2 ** 32 - 1)))


@settings(max_examples=150, deadline=None)
@given(_kernel_cases())
def test_apply_matrix_matches_dense_kron_reference(case):
    sp, act, out_labels, out_dims, is_op, seed = case
    g = rng(seed)
    d = sp.total_dim
    d_act = sp.subspace(act).total_dim
    d_out = d_act if out_dims is None else int(np.prod(out_dims))
    mat = g.normal(size=(d_out, d_act)) + 1j * g.normal(size=(d_out, d_act))
    shape = (d, d) if is_op else (d,)
    x = g.normal(size=shape) + 1j * g.normal(size=shape)

    got, sp_out = apply_matrix(x, mat, sp, act, out_labels, out_dims)

    # dense reference: reorder to (act, spectators), then kron(mat, I)
    spect = tuple(l for l in sp.labels if l not in act)
    order = [sp.index_of(l) for l in act + spect]
    reorder = np.eye(d)[np.arange(d).reshape(sp.dims).transpose(order).ravel()]
    big = np.kron(mat, np.eye(d // d_act))
    want = big @ reorder @ x
    if is_op:
        want = want @ (big @ reorder).conj().T
    out_dims = out_dims or tuple(sp.dim_of(l) for l in act)
    assert sp_out == SubsystemSpace((out_labels or act) + spect,
                                    out_dims + tuple(sp.dim_of(l) for l in spect))
    assert np.abs(got - want).max(initial=0.0) <= 1e-12 * max(1.0, np.abs(want).max(initial=0.0))
    # the identity marker only reorders
    moved, sp_moved = apply_matrix(x, None, sp, act)
    assert sp_moved.labels == act + spect
    ref_moved = reorder @ x @ reorder.T if is_op else reorder @ x
    assert np.array_equal(moved, ref_moved)
