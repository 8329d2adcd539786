"""Protocol constructions: compression, state transfer, merging, decorrelation."""

import math

import numpy as np
import pytest

from decoupkit.cli import _schumacher_default_dim_b, fixture_pure_abr, fixture_pure_ar
from decoupkit.protocols import (
    MergeConfig,
    ProtocolResult,
    _schumacher_error,
    destroy_run,
    fqsw_run,
    fuchs_vdg_check,
    iid_pure,
    marginal,
    merge_run,
    schumacher_run,
    uhlmann_extend,
)
from decoupkit.qmat import (
    DensityOp,
    LabeledOperator,
    PureState,
    apply_matrix,
    mes,
    purify,
    space,
    tensor_states,
    trace_norm,
)
from decoupkit.twirl import RngSeed

from conftest import (
    random_density,
    random_partial_isometry,
    random_pure,
    random_unitary,
    rng,
)


def _xi(eps):
    return math.sqrt(eps * (2.0 + eps + 2.0 * math.sqrt(1.0 + eps)))


def _ghz():
    amps = np.zeros(8)
    amps[0] = amps[7] = 1.0 / math.sqrt(2.0)
    return PureState(space(A=2, B=2, R=2), amps)


def _skewed_pure_ar():
    rho = DensityOp(LabeledOperator(space(A=2), np.diag([0.9, 0.1])), "unit")
    return purify(rho, "R")


def test_iid_pure_merges_labels():
    psi = _skewed_pure_ar()
    big = iid_pure(psi, 3)
    assert big.space.dim_of("A") == 8 and big.space.dim_of("R") == 8
    assert abs(np.vdot(big.amplitudes, big.amplitudes) - 1.0) <= 1e-12


def test_marginal_matches_projector_partial_trace():
    g = rng(61)
    psi = random_pure(g, space(A=2, B=3, R=2))
    red = marginal(psi.amplitudes, psi.space, ("A", "R"))
    from decoupkit.qmat import partial_trace

    want = partial_trace(psi.projector().op, ("B",))
    assert np.abs(red.permuted(want.labels).entries - want.entries).max() <= 1e-12


def test_uhlmann_trivial_relabeling():
    g = rng(62)
    psi = random_pure(g, space(A=2, C=2))
    xi = psi.relabeled({"C": "B"}).projector()
    v = uhlmann_extend(xi, psi, 0.0)
    moved = v.entries @ psi.relabeled({"C": "B"}).permuted(("B", "A")) \
        .amplitudes.reshape(2, 2)
    target = psi.permuted(("C", "A")).amplitudes.reshape(2, 2)
    overlap = abs(np.vdot(target, moved))
    assert abs(overlap - 1.0) <= 1e-9


def test_uhlmann_undoes_gauge_rotation():
    g = rng(63)
    # full-rank purifying marginal pins V down completely
    psi = random_pure(g, space(A=3, C=2))
    u = random_unitary(g, 2)
    rotated = (psi.permuted(("A", "C")).amplitudes.reshape(3, 2) @ u.T).ravel()
    xi = PureState(space(A=3, B=2), rotated).projector()
    v = uhlmann_extend(xi, psi, 1e-12)
    # V must invert the rotation up to a global phase
    prod = v.entries @ u
    phase = prod[0, 0] / abs(prod[0, 0])
    assert np.abs(prod / phase - np.eye(2)).max() <= 1e-6


def test_uhlmann_perturbed_marginals():
    g = rng(64)
    psi = random_pure(g, space(A=2, C=2))
    amps = psi.amplitudes + 0.05 * (g.normal(size=4) + 1j * g.normal(size=4))
    amps = amps / np.linalg.norm(amps)
    xi = PureState(space(A=2, B=2), amps).projector()
    rho_a = marginal(psi.amplitudes, psi.space, ("A",))
    xi_a = marginal(amps, space(A=2, B=2), ("A",))
    eps = trace_norm(rho_a.entries - xi_a.entries)
    v = uhlmann_extend(xi, psi, eps + 1e-12)
    assert v.entries.shape == (2, 2)


def test_fuchs_vdg_endpoints():
    rho = np.diag([1.0, 0.0])
    lower, tn, upper = fuchs_vdg_check(rho, rho)
    assert tn <= 1e-12 and upper >= tn >= lower
    sig = np.diag([0.0, 1.0])
    lower, tn, upper = fuchs_vdg_check(rho, sig)
    assert abs(tn - 2.0) <= 1e-12
    assert abs(lower - 2.0) <= 1e-12 and abs(upper - 2.0) <= 1e-12


def test_schumacher_full_dimension_is_exact():
    psi = _skewed_pure_ar()
    for n in (1, 2):
        res = schumacher_run(psi, n, 2 ** n, RngSeed(70), n_tries=3)
        assert res.measured_error <= 1e-9
        assert res.rates["compression_rate"] == pytest.approx(1.0)


def test_schumacher_bound_structure():
    psi = _skewed_pure_ar()
    res = schumacher_run(psi, 2, 3, RngSeed(71), alpha=1.5, n_tries=6)
    eps_n = res.witnesses["epsilon_n"]
    assert res.bound == pytest.approx(2.0 * _xi(eps_n))
    assert res.measured_error <= res.bound + 1e-9
    assert res.n == 2 and 0.0 < res.rates["compression_rate"] < 1.0


def test_schumacher_oversize_code_rejected():
    psi = _skewed_pure_ar()
    with pytest.raises(ValueError):
        schumacher_run(psi, 1, 3, RngSeed(72))


def test_fqsw_small_instances():
    for psi, a1, a2 in ((_ghz(), 2, 1), (_ghz(), 1, 2)):
        res = fqsw_run(psi, 1, a1, a2, RngSeed(73), n_tries=8)
        if not res.witnesses["anomaly"]:
            assert res.measured_error <= res.bound + 1e-9
        assert "epsilon_n" in res.witnesses and "vartheta_n" in res.witnesses


def test_merge_trivial_partition_has_closed_omega_gap():
    cfg = MergeConfig(2, 2, 1)
    assert cfg.zeta == pytest.approx(1.0) and cfg.J == 1
    res = merge_run(_ghz(), 1, cfg, RngSeed(74), n_tries=8)
    assert res.witnesses["omega_gap"] < 2.0 / cfg.zeta + 1e-12
    if not res.witnesses["anomaly"]:
        assert res.measured_error <= res.bound + 1e-9


def test_merge_config_invariant():
    with pytest.raises(ValueError):
        MergeConfig(2, 5, 2)


def test_destroy_product_state_needs_no_randomness():
    g = rng(65)
    rho_r = random_density(g, space(R=2))
    joint = DensityOp(LabeledOperator(
        space(A=2, R=2), np.kron(np.eye(2) / 2, rho_r.op.entries)), "unit")
    res = destroy_run(joint, 1, 1, RngSeed(75), n_tries=2)
    assert res.measured_error <= 1e-9


def test_destroy_error_non_increasing_in_m():
    g = rng(66)
    rho = random_density(g, space(A=2, R=2))
    errs = [destroy_run(rho, 1, m, RngSeed(76), n_tries=4).measured_error
            for m in (1, 2, 4)]
    assert all(b <= a + 1e-9 for a, b in zip(errs, errs[1:])), errs


def test_destroy_oversize_family_rejected():
    g = rng(67)
    rho = random_density(g, space(A=2, R=2))
    with pytest.raises(ValueError):
        destroy_run(rho, 1, 5, RngSeed(77))


def test_protocol_result_validation():
    with pytest.raises(ValueError):
        ProtocolResult(-0.1, 1.0, {}, 1, RngSeed(0))
    with pytest.raises(ValueError):
        ProtocolResult(0.1, 1.0, {"rate": math.inf}, 1, RngSeed(0))


def _dense_schumacher_error(psin, w2, dim_b):
    """The (|B||R|+1)-square operator whose trace norm _schumacher_error deflates."""
    w2e = w2.entries
    v1, _ = apply_matrix(psin.amplitudes, w2e, psin.space, ("A",), ("B",), (dim_b,))
    kerp = np.eye(w2e.shape[1]) - w2e.conj().T @ w2e
    resid, sp_r = apply_matrix(psin.amplitudes, kerp, psin.space, ("A",))
    rho_r = marginal(resid, sp_r, ("R",)).entries
    sigma = np.outer(v1, v1.conj()) + np.kron(np.eye(dim_b) / dim_b, rho_r)
    r_norm = np.linalg.norm(resid)
    d = sigma.shape[0] + 1
    red = np.zeros((d, d), dtype=complex)
    red[:-1, :-1] = sigma - np.outer(v1, v1.conj())
    red[:-1, -1] = -v1 * r_norm
    red[-1, :-1] = -v1.conj() * r_norm
    red[-1, -1] = -r_norm ** 2
    return trace_norm(red)


@pytest.mark.parametrize("fixture", ["skewed", "bell", "random", "default"])
def test_schumacher_error_matches_dense_reduction(fixture):
    g = rng(68)
    psi = fixture_pure_ar(fixture, RngSeed(9))
    for n in range(1, 6):
        psin = iid_pure(psi, n)
        dan = 2 ** n
        rate_dim = _schumacher_default_dim_b(psi, n, 1.5, 0.1)
        for dim_b in sorted({1, rate_dim, dan}):
            w2 = random_partial_isometry(g, space(A=dan), space(B=dim_b))
            got = _schumacher_error(psin, w2, dim_b)
            want = _dense_schumacher_error(psin, w2, dim_b)
            assert abs(got - want) <= 1e-12, (n, dim_b, got, want)


@pytest.mark.parametrize("n", [2, 3])
def test_fqsw_error_matches_full_space_operator(n, monkeypatch):
    # the error is read off the R factor of the final state's columns; compare
    # it with the trace norm of F F^dag - t t^dag on the whole output space
    seen = []
    qr = np.linalg.qr

    def spy(a, mode="reduced"):
        seen.append(a)
        return qr(a, mode)

    monkeypatch.setattr(np.linalg, "qr", spy)
    res = fqsw_run(fixture_pure_abr("random", RngSeed(3)), n, 2, 2,
                   RngSeed(78), n_tries=3)
    monkeypatch.undo()
    f, t = seen[-1][:, :-1], seen[-1][:, -1]
    want = trace_norm(f @ f.conj().T - np.outer(t, t.conj()))
    assert abs(res.measured_error - want) <= 1e-12
