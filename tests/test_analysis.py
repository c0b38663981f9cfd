import itertools

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from dmtrl.analysis import extract_mixing, normalize_mixing, sharing_strength, task_affinity
from dmtrl.factorization import LAFFactors, TTFactors, TuckerFactors
from dmtrl.network import FC, LayerSpec, MultiTaskNetwork, NetworkSpec, SharingMode
from dmtrl.training import PlainRandom
from dmtrl.network import build_network

from conftest import set_factors


def soft_net(mode, factors, tasks=3):
    spec = NetworkSpec((4,), [LayerSpec(FC(4, 2), mode)], tasks)
    net = MultiTaskNetwork(spec)
    set_factors(net, 0, factors, biases=[np.zeros(2)] * tasks)
    return net


class TestExtractMixing:
    def test_laf_returns_factor_verbatim(self, rng):
        s = rng.normal(size=(2, 3))
        net = soft_net(SharingMode.SOFT_LAF, LAFFactors(rng.normal(size=(4, 2, 2)), s))
        got = extract_mixing(net, 0)
        assert_array_equal(got, s)
        assert not np.shares_memory(got, net.layer_state(0).factors.s)

    def test_tucker_transposes_last_factor(self, rng):
        core = rng.normal(size=(2, 2, 2))
        us = [rng.normal(size=(4, 2)), rng.normal(size=(2, 2)), rng.normal(size=(3, 2))]
        net = soft_net(SharingMode.SOFT_TUCKER, TuckerFactors(core, us))
        got = extract_mixing(net, 0)
        assert got.shape == (2, 3)
        assert_array_equal(got, us[-1].T)

    def test_tt_returns_tail(self, rng):
        f = TTFactors(rng.normal(size=(4, 2)),
                      [rng.normal(size=(2, 2, 2))],
                      rng.normal(size=(2, 3)))
        net = soft_net(SharingMode.SOFT_TT, f)
        got = extract_mixing(net, 0)
        assert got.shape == (2, 3)
        assert_array_equal(got, f.tail)

    def test_hard_layers_rejected(self):
        spec = NetworkSpec((4,), [LayerSpec(FC(4, 2), SharingMode.TIED)], 3)
        net = build_network(spec, PlainRandom(), 0)
        with pytest.raises(ValueError):
            extract_mixing(net, 0)


class TestNormalizeMixing:
    def test_zero_column_becomes_uniform(self):
        got = normalize_mixing(np.array([[0.0], [0.0]]))
        assert_allclose(got[:, 0], [0.5, 0.5])

    def test_sign_invariance(self):
        got = normalize_mixing(np.array([[1.0], [-1.0]]))
        assert_allclose(got[:, 0], [0.5, 0.5])

    def test_two_zero_softmax_values(self):
        got = normalize_mixing(np.array([[2.0], [0.0]]))
        e2 = np.exp(2.0)
        assert_allclose(got[:, 0], [e2 / (e2 + 1), 1 / (e2 + 1)], rtol=1e-12)

    def test_columns_sum_to_one_strictly_positive(self, rng):
        got = normalize_mixing(rng.normal(size=(5, 7)))
        assert_allclose(got.sum(axis=0), np.ones(7), rtol=1e-12)
        assert np.all(got > 0) and np.all(got < 1)


class TestSharingStrength:
    def test_one_hot_columns_give_zero(self):
        assert sharing_strength(np.eye(4)) == 0.0

    def test_identical_columns_give_one(self):
        s = np.zeros((3, 5))
        s[1, :] = 1.0
        assert sharing_strength(s) == pytest.approx(1.0, abs=1e-15)

    def test_hand_worked_pair(self):
        s = np.array([[1.0, 0.5], [0.0, 0.5]])
        assert sharing_strength(s) == pytest.approx(1 / np.sqrt(2), abs=1e-12)

    def test_zero_column_rejected(self):
        with pytest.raises(ValueError):
            sharing_strength(np.array([[1.0, 0.0], [0.0, 0.0]]))

    def test_single_column_rejected(self):
        with pytest.raises(ValueError):
            sharing_strength(np.ones((3, 1)))

    def test_normalised_matrices_land_in_unit_interval(self, rng):
        for _ in range(20):
            rho = sharing_strength(normalize_mixing(rng.normal(size=(4, 6))))
            assert 0.0 < rho <= 1.0

    def test_column_scale_invariance(self, rng):
        s = np.abs(rng.normal(size=(4, 5))) + 0.1
        scaled = s * rng.uniform(0.5, 3.0, size=5)
        assert sharing_strength(scaled) == pytest.approx(sharing_strength(s), rel=1e-12)


class TestTaskAffinity:
    def test_duplicate_columns_rank_first(self):
        s = np.array([[1.0, 0.0, 1.0],
                      [0.0, 1.0, 0.0]])
        ranked = task_affinity(s)
        assert ranked[0][0] == (0, 2)
        assert ranked[0][1] == pytest.approx(1.0)

    def test_tie_break_lexicographic(self):
        ranked = task_affinity(np.full((2, 3), 5.0))
        assert [p for p, _ in ranked] == [(0, 1), (0, 2), (1, 2)]

    def test_matches_brute_force(self, rng):
        s = rng.normal(size=(4, 5))
        norm = normalize_mixing(s)
        want = []
        for i, j in itertools.combinations(range(5), 2):
            a, b = norm[:, i], norm[:, j]
            want.append(((i, j), float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b)))))
        want.sort(key=lambda p: (-p[1], p[0]))
        got = task_affinity(s)
        assert [p for p, _ in got] == [p for p, _ in want]
        assert_allclose([c for _, c in got], [c for _, c in want], rtol=1e-12)
