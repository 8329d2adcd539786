"""Unitary ensembles, exact moments, and the seeded Monte Carlo layer."""

import os

import numpy as np
import pytest

from decoupkit.qmat import LabeledOperator, partial_trace, space
from decoupkit.twirl import (
    WORKERS_ENV,
    McEstimate,
    RngSeed,
    UnitaryEnsemble,
    _conjugate_on,
    _worker_count,
    clifford_qubit,
    ensemble_average_operator,
    haar_unitary,
    mc_average,
    second_moment_delta,
    twirl_moment1,
    twirl_moment2,
)

from conftest import random_density, random_kraus_channel, rng


def test_rng_seed_streams_are_reproducible_and_distinct():
    a = haar_unitary(3, RngSeed(42, 0).generator())
    b = haar_unitary(3, RngSeed(42, 0).generator())
    c = haar_unitary(3, RngSeed(42, 1).generator())
    assert np.allclose(a, b)
    assert not np.allclose(a, c)


def test_haar_unitary_is_unitary():
    u = haar_unitary(5, RngSeed(7).generator())
    assert np.abs(u @ u.conj().T - np.eye(5)).max() <= 1e-12


def test_clifford_group_size_and_unitarity():
    group = clifford_qubit()
    assert len(group) == 24
    for u in group:
        assert np.abs(u @ u.conj().T - np.eye(2)).max() <= 1e-12
    # no duplicates up to global phase
    seen = set()
    for u in group:
        key = tuple(np.round(u.ravel(), 8))
        assert key not in seen
        seen.add(key)


def test_moment1_projects_onto_maximally_mixed():
    g = rng(31)
    sig = LabeledOperator(space(A=2, R=2),
                          g.normal(size=(4, 4)) + 1j * g.normal(size=(4, 4)))
    m1 = twirl_moment1(sig)
    red = partial_trace(sig, ("A",))
    want = np.kron(np.eye(2) / 2, red.entries)
    assert np.abs(m1.entries - want).max() <= 1e-12


def test_moment2_haar_mc_agreement_qubit():
    g = rng(32)
    sig = LabeledOperator(space(A=2, R=2),
                          g.normal(size=(4, 4)) + 1j * g.normal(size=(4, 4)))
    x = LabeledOperator(space(A=2), g.normal(size=(2, 2)))
    w = LabeledOperator(space(R=2), g.normal(size=(2, 2)))
    exact = twirl_moment2(sig, x, w)
    xw = np.kron(x.entries, w.entries)
    ens = UnitaryEnsemble("clifford_qubit", 2)

    def one(u):
        rot = _conjugate_on(sig, u, "A")
        rot_d = _conjugate_on(sig.dagger(), u, "A")
        return LabeledOperator(sig.space, rot.entries @ xw @ rot_d.entries)

    avg = ensemble_average_operator(one, ens)
    assert np.abs(avg.entries - exact.entries).max() <= 1e-12


def test_mc_average_deterministic_across_worker_counts(monkeypatch):
    ens = UnitaryEnsemble("haar", 2)

    def f(u):
        return float(np.abs(u[0, 0]) ** 2)

    monkeypatch.setenv("DECOUPKIT_WORKERS", "1")
    a = mc_average(f, ens, 200, RngSeed(9))
    monkeypatch.setenv("DECOUPKIT_WORKERS", "4")
    b = mc_average(f, ens, 200, RngSeed(9))
    assert a.mean == b.mean and a.stderr == b.stderr


def test_mc_average_mean_is_plausible():
    # E |u_00|^2 = 1/d for Haar
    ens = UnitaryEnsemble("haar", 4)
    est = mc_average(lambda u: float(np.abs(u[0, 0]) ** 2), ens, 3000, RngSeed(1))
    assert abs(est.mean - 0.25) <= 5 * est.stderr


def test_second_moment_delta_matches_direct_mc():
    from decoupkit.twirl import delta_of

    g = rng(33)
    t = random_kraus_channel(g, space(A=2), space(E=2))
    sig = random_density(g, space(A=2, R=2)).op
    exact, bound = second_moment_delta(t, sig)
    exact_tr = float(np.trace(exact.entries).real)
    ens = UnitaryEnsemble("haar", 2)

    def frob_sq(u):
        d = delta_of(t, sig, u).entries
        return float(np.sum(np.abs(d) ** 2))

    est = mc_average(frob_sq, ens, 4000, RngSeed(3))
    assert abs(est.mean - exact_tr) <= 5 * est.stderr
    # the quoted upper bound dominates the exact operator
    gap = np.linalg.eigvalsh(bound.entries - exact.entries)
    assert gap.min() >= -1e-9


def test_unknown_ensemble_rejected():
    with pytest.raises(ValueError):
        UnitaryEnsemble("dihedral", 2)


def test_worker_count_parses_positive_integers(monkeypatch):
    monkeypatch.delenv(WORKERS_ENV, raising=False)
    assert _worker_count() == 1
    monkeypatch.setenv(WORKERS_ENV, "3")
    assert _worker_count() == 3


@pytest.mark.parametrize("raw", ["abc", "0", "-2", "", "1.5"])
def test_worker_count_rejects_bad_values(monkeypatch, raw):
    monkeypatch.setenv(WORKERS_ENV, raw)
    with pytest.raises(ValueError, match=f"{WORKERS_ENV}.*{raw!r}"):
        _worker_count()
