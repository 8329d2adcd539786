"""CP maps, Choi representations, Theta, and the named map constructions."""

import math

import numpy as np
import pytest

from decoupkit.channels import (
    KrausMap,
    choi,
    class1_spot_check,
    compose,
    compressive_map,
    depolarizing_map,
    heisenberg_weyl,
    identity_map,
    is_class1,
    map_from_choi,
    measurement_map,
    output_marginal,
    partial_trace_map,
    randomizing_map,
    t_w_map,
    theta,
    trace_map,
    two_positivity_check,
)
from decoupkit.qmat import (
    LabeledOperator,
    LabelError,
    PartialIsom,
    SubsystemSpace,
    mes,
    partial_trace,
    space,
    truncation_isometry,
)

from conftest import (
    random_density,
    random_kraus_channel,
    random_partial_isometry,
    random_psd,
    rng,
)


def test_kraus_shape_and_cptp_validation():
    sp = space(A=2)
    with pytest.raises(ValueError):
        KrausMap(sp, sp, [np.eye(3)], "cp_general")
    with pytest.raises(ValueError):
        KrausMap(sp, sp, [0.5 * np.eye(2)], "cptp")


def test_identity_and_trace_theta():
    for d in (2, 3, 4):
        assert abs(theta(identity_map(space(A=d))).theta - math.log2(d)) <= 1e-12
        assert abs(theta(trace_map(space(A=d))).theta + math.log2(d)) <= 1e-12


def test_theta_additive_under_tensoring():
    g = rng(21)
    for _ in range(5):
        t1 = random_kraus_channel(g, space(A=2), space(E=2))
        t2 = random_kraus_channel(g, space(B=3), space(F=2))
        ks = [np.kron(k1, k2) for k1 in t1.kraus for k2 in t2.kraus]
        joint = KrausMap(space(A=2, B=3), space(E=2, F=2), ks, "cptp")
        assert abs(theta(joint).theta - theta(t1).theta - theta(t2).theta) <= 1e-7


def test_choi_roundtrip():
    g = rng(22)
    t = random_kraus_channel(g, space(A=3), space(E=2))
    rebuilt = map_from_choi(choi(t), t.in_space, t.out_space)
    rho = random_density(g, space(A=3))
    a = t.apply(rho.op).entries
    b = rebuilt.apply(rho.op).entries
    assert np.abs(a - b).max() <= 1e-9


def test_t_w_scaling_and_trace_condition():
    w = truncation_isometry(space(A=4), space(B=2))
    t = t_w_map(w)
    assert is_class1(t) == "yes_trace_condition"
    rho = LabeledOperator(space(A=4), np.eye(4) / 4)
    out = t.apply(rho)
    # T_W(pi_A) = pi_B for a truncation
    assert np.abs(out.entries - np.eye(2) / 2).max() <= 1e-12


def test_compressive_map_is_cptp():
    g = rng(23)
    w = random_partial_isometry(g, space(A=4), space(B=2))
    c = compressive_map(w)
    assert c.is_trace_preserving()
    # input supported on the kernel comes out maximally mixed
    ker = np.eye(4) - w.entries.conj().T @ w.entries
    rho_k = ker / np.trace(ker).real
    out = c.apply(LabeledOperator(space(A=4), rho_k))
    assert np.abs(out.entries - np.eye(2) / 2).max() <= 1e-10


def test_compressive_unitary_case_has_no_residual():
    g = rng(24)
    w = random_partial_isometry(g, space(A=3), space(B=3))
    c = compressive_map(w)
    rho = random_density(g, space(A=3))
    want = w.entries @ rho.op.entries @ w.entries.conj().T
    assert np.abs(c.apply(rho.op).entries - want).max() <= 1e-10


def test_measurement_map_completeness_and_blocks():
    for dbc, dd in ((4, 2), (6, 4), (4, 4), (5, 2)):
        e, j = measurement_map(dbc, dd)
        assert j == math.ceil(dbc / dd)
        gram = sum(k.conj().T @ k for k in e.kraus)
        assert np.abs(gram - np.eye(dbc)).max() <= 1e-9


def test_heisenberg_weyl_orthogonality():
    for d in (2, 3, 4):
        fam = heisenberg_weyl(d)
        assert len(fam) == d * d
        for i, vi in enumerate(fam):
            for k, vk in enumerate(fam):
                want = d if i == k else 0.0
                assert abs(np.trace(vi.conj().T @ vk) - want) <= 1e-9


def test_randomizing_map_full_family_depolarizes():
    for d in (2, 3):
        sp = space(B=d)
        v = randomizing_map(heisenberg_weyl(d), sp)
        g = rng(25)
        rho = random_density(g, sp)
        out = v.apply(rho.op)
        assert np.abs(out.entries - np.eye(d) / d).max() <= 1e-10


def test_randomizing_map_rejects_non_orthogonal_family():
    with pytest.raises(ValueError):
        randomizing_map([np.eye(2), np.eye(2)], space(B=2))


def test_depolarizing_is_cptp_and_class1():
    t = depolarizing_map(space(A=3), 0.4)
    assert t.is_trace_preserving()
    assert is_class1(t) == "yes_cptp"


def test_class1_spot_check_agrees():
    from decoupkit.twirl import RngSeed, haar_unitary

    g = rng(26)
    t = random_kraus_channel(g, space(A=2), space(E=2))

    def sampler(dim, master, stream):
        return haar_unitary(dim, RngSeed(master, stream).generator())

    violated, worst_z = class1_spot_check(t, sampler, n_unitaries=200)
    assert not violated, f"class-1 spot check violated at z = {worst_z}"


def test_two_positivity_partial_trace():
    g = rng(27)
    from decoupkit.channels import partial_trace_map

    t = partial_trace_map(space(A=2, B=2), ("B",))
    for _ in range(20):
        m = g.normal(size=(4, 4)) + 1j * g.normal(size=(4, 4))
        sig = LabeledOperator(space(A=2, B=2), m)
        assert two_positivity_check(t, sig)


def test_compose_label_mismatch_rejected():
    t1 = trace_map(space(B=2), "E")
    t2 = t_w_map(truncation_isometry(space(A=4), space(C=2)))
    with pytest.raises(ValueError):
        compose(t1, t2)


def test_output_marginal_matches_choi_partial_trace():
    g = rng(31)
    maps = [random_kraus_channel(g, space(A=2), space(E=2)),
            random_kraus_channel(g, space(A=3), space(E=2, F=2)),
            random_kraus_channel(g, space(A=2, B=2), space(E=3)),
            t_w_map(random_partial_isometry(g, space(A=4), space(B=2)))]
    for t in maps:
        c = choi(t).op
        ref = partial_trace(c, tuple(l for l in c.labels
                                     if l not in t.out_space.labels))
        got = output_marginal(t)
        assert got.space == ref.space
        assert np.abs(got.entries - ref.entries).max() <= 1e-12


def test_choi_matches_lifted_projector_construction():
    g = rng(32)
    maps = [random_kraus_channel(g, space(A=2), space(A=2)),
            random_kraus_channel(g, space(A=2), space(E=3)),
            random_kraus_channel(g, space(A=3, B=2), space(E=2), n_env=3),
            random_kraus_channel(g, space(A=2, B=2), space(E=2, F=3)),
            t_w_map(random_partial_isometry(g, space(A=4), space(B=2)))]
    for t in maps:
        d = t.in_space.total_dim
        proj = mes(d, "__in__", "__ref__").projector()
        lifted = KrausMap(SubsystemSpace(("__in__",), (d,)), t.out_space, t.kraus)
        want = lifted.apply(proj)
        got = choi(t).op
        assert got.labels[:len(t.out_space.labels)] == t.out_space.labels
        assert got.space.dims == t.out_space.dims + t.in_space.dims
        assert np.abs(got.entries - want.entries).max() <= 1e-12
    assert choi(maps[0]).op.labels == ("A", "A'")


def test_partial_trace_map_rejects_unknown_labels():
    with pytest.raises(LabelError, match="'Z'"):
        partial_trace_map(space(A=2, B=3), ("Z",))
