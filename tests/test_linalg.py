import numpy as np
import pytest
from numpy.testing import assert_allclose

from dmtrl.linalg import rank_for_error, tensor, thin_svd


def gram_singular_values(m: np.ndarray) -> np.ndarray:
    """Independent oracle: singular values via eigenvalues of M^T M."""
    evals = np.linalg.eigvalsh(m.T @ m)
    return np.sqrt(np.clip(evals, 0.0, None))[::-1]


class TestTensorConstruction:
    def test_rejects_scalars(self):
        with pytest.raises(ValueError):
            tensor(3.0)

    def test_rejects_zero_extent(self):
        with pytest.raises(ValueError):
            tensor(np.empty((2, 0, 3)))

    def test_coerces_to_float64_c_order(self):
        t = tensor(np.arange(6, dtype=np.int32).reshape(2, 3).T)
        assert t.dtype == np.float64
        assert t.flags.c_contiguous


class TestThinSvd:
    def test_identity_has_unit_singular_values(self):
        res = thin_svd(np.eye(4))
        assert_allclose(res.s, np.ones(4), atol=1e-14)

    def test_diagonal_input(self):
        res = thin_svd(np.diag([3.0, 2.0, 0.0]))
        assert_allclose(res.s, [3.0, 2.0, 0.0], atol=1e-14)

    def test_random_reconstruction_and_oracle(self, rng):
        m = rng.normal(size=(8, 5))
        res = thin_svd(m)
        rel = np.linalg.norm((res.u * res.s) @ res.v.T - m) / np.linalg.norm(m)
        assert rel <= 1e-10
        assert_allclose(res.s, gram_singular_values(m), rtol=1e-8, atol=1e-8)

    def test_orthonormal_factors(self, rng):
        m = rng.normal(size=(6, 9))
        res = thin_svd(m)
        r = min(m.shape)
        assert np.linalg.norm(res.u.T @ res.u - np.eye(r)) <= 1e-10
        assert np.linalg.norm(res.v.T @ res.v - np.eye(r)) <= 1e-10

    def test_singular_values_non_increasing(self, rng):
        res = thin_svd(rng.normal(size=(7, 7)))
        assert np.all(np.diff(res.s) <= 0)

    def test_transpose_swaps_factors_up_to_sign(self, rng):
        m = rng.normal(size=(6, 4))
        a = thin_svd(m)
        b = thin_svd(m.T)
        assert_allclose(a.s, b.s, rtol=1e-12)
        # columns match up to a common sign per pair
        for k in range(a.s.size):
            sign = np.sign(np.dot(a.u[:, k], b.v[:, k]))
            assert_allclose(a.u[:, k], sign * b.v[:, k], atol=1e-9)
            assert_allclose(a.v[:, k], sign * b.u[:, k], atol=1e-9)

    def test_sign_convention_deterministic(self, rng):
        m = rng.normal(size=(5, 5))
        res = thin_svd(m)
        for k in range(5):
            col = res.u[:, k]
            assert col[np.abs(col).argmax()] > 0

    def test_rejects_non_finite(self):
        m = np.ones((2, 2))
        m[0, 0] = np.nan
        with pytest.raises(ValueError):
            thin_svd(m)

    def test_rejects_non_matrix(self):
        with pytest.raises(ValueError):
            thin_svd(np.ones((2, 2, 2)))


class TestRankForError:
    def test_two_values_documented_case(self):
        # tail sqrt(1) / sqrt(101) ~ 0.0995 <= 0.10 already at k=1
        assert rank_for_error(np.array([10.0, 1.0]), 0.10) == 1

    def test_flat_spectrum_keeps_everything(self):
        assert rank_for_error(np.array([5.0, 5.0, 5.0]), 0.10) == 3

    def test_zero_tail_collapses_to_one(self):
        assert rank_for_error(np.array([2.0, 0.0, 0.0]), 0.999) == 1

    def test_never_returns_zero(self):
        assert rank_for_error(np.array([0.0, 0.0]), 0.5) == 1

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            rank_for_error(np.array([]), 0.1)

    def test_epsilon_domain(self):
        with pytest.raises(ValueError):
            rank_for_error(np.array([1.0]), 0.0)
        with pytest.raises(ValueError):
            rank_for_error(np.array([1.0]), 1.0)

    def test_truncation_meets_bound(self, rng):
        # Eckart-Young: keeping k leading values meets the requested bound
        for _ in range(10):
            m = rng.normal(size=(9, 6))
            res = thin_svd(m)
            for eps in (0.05, 0.2, 0.5):
                k = rank_for_error(res.s, eps)
                cut = res.truncated(k)
                approx = (cut.u * cut.s) @ cut.v.T
                rel = np.linalg.norm(approx - m) / np.linalg.norm(m)
                assert rel <= eps + 1e-12

    def test_rank_monotone_in_epsilon(self, rng):
        s = np.sort(np.abs(rng.normal(size=12)))[::-1]
        ranks = [rank_for_error(s, e) for e in (0.01, 0.05, 0.1, 0.3, 0.6, 0.9)]
        assert ranks == sorted(ranks, reverse=True)
