import itertools

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from dmtrl.factorization import SCHEMES as SCHEME_TABLE
from dmtrl.factorization import (
    LAFFactors,
    TTFactors,
    TuckerFactors,
    _tt_backward,
    _tucker_backward,
    _unfold,
    compose_backward,
    compose_task,
    compose_tt,
    compose_tucker,
    decompose,
    laf_decompose,
    tt_decompose,
    tucker_decompose,
)
from dmtrl.linalg import thin_svd

from conftest import (
    assert_grads_close,
    central_difference,
    fibre_oracle,
    full_compose,
    random_shape,
)


def rel_error(approx, exact):
    return np.linalg.norm(approx - exact) / np.linalg.norm(exact)


def full_backward(f, grad_w):
    """Factor gradients for the gradient ``grad_w`` of the whole stack: the
    full-stack backward that the per-task one is checked against.  Tucker
    and TT use the backwards the per-task paths run on a folded record."""
    if isinstance(f, LAFFactors):
        lead = list(range(f.l.ndim - 1))
        return LAFFactors(np.tensordot(grad_w, f.s, (grad_w.ndim - 1, 1)),
                          np.tensordot(f.l, grad_w, axes=(lead, lead)))
    if isinstance(f, TuckerFactors):
        return _tucker_backward(f, grad_w)
    return _tt_backward(f, grad_w)


def laf_oracle(l, s):
    """Per-element summation over the latent axis."""
    out = np.zeros(l.shape[:-1] + (s.shape[1],))
    for idx in itertools.product(*[range(d) for d in l.shape[:-1]]):
        for t in range(s.shape[1]):
            out[idx + (t,)] = sum(l[idx + (k,)] * s[k, t] for k in range(s.shape[0]))
    return out


def tucker_oracle(core, us):
    """Direct evaluation of the full multi-sum."""
    out_shape = tuple(m.shape[0] for m in us)
    out = np.zeros(out_shape)
    for d in itertools.product(*[range(x) for x in out_shape]):
        acc = 0.0
        for k in itertools.product(*[range(x) for x in core.shape]):
            term = core[k]
            for n in range(len(us)):
                term *= us[n][d[n], k[n]]
            acc += term
        out[d] = acc
    return out


def tt_oracle(head, cores, tail):
    """Entry (d1..dN) as the explicit sum over all bond index tuples."""
    shape = (head.shape[0],) + tuple(c.shape[1] for c in cores) + (tail.shape[1],)
    bonds = [head.shape[1]] + [c.shape[2] for c in cores]
    out = np.zeros(shape)
    for d in itertools.product(*[range(x) for x in shape]):
        acc = 0.0
        for ks in itertools.product(*[range(b) for b in bonds]):
            term = head[d[0], ks[0]]
            for i, c in enumerate(cores):
                term *= c[ks[i], d[i + 1], ks[i + 1]]
            term *= tail[ks[-1], d[-1]]
            acc += term
        out[d] = acc
    return out


class TestComposeLaf:
    """The tests' full-stack LAF form against the element loop."""

    def test_identity_mixing(self, rng):
        l = rng.normal(size=(3, 2, 4))
        f = LAFFactors(l, np.eye(4))
        w = full_compose(f)
        for t in range(4):
            assert_allclose(w[:, :, t], l[:, :, t], rtol=1e-15)

    def test_full_sharing(self, rng):
        l = rng.normal(size=(3, 2, 1))
        f = LAFFactors(l, np.ones((1, 4)))
        w = full_compose(f)
        for t in range(4):
            assert_allclose(w[:, :, t], l[:, :, 0], rtol=1e-15)

    def test_matches_oracle(self, rng):
        l = rng.normal(size=(3, 2, 2))
        s = rng.normal(size=(2, 4))
        assert_allclose(full_compose(LAFFactors(l, s)), laf_oracle(l, s),
                        rtol=1e-12, atol=1e-14)

    def test_latent_count_mismatch(self, rng):
        with pytest.raises(ValueError):
            LAFFactors(rng.normal(size=(3, 2)), rng.normal(size=(3, 4)))


class TestComposeTucker:
    def test_rank_one(self):
        a, b, c = np.array([1.0, 2.0]), np.array([0.5, -1.0, 2.0]), np.array([3.0, 1.0])
        f = TuckerFactors(np.full((1, 1, 1), 2.0),
                          [a[:, None], b[:, None], c[:, None]])
        want = 2.0 * np.einsum("i,j,k->ijk", a, b, c)
        assert_allclose(compose_tucker(f), want, rtol=1e-14)

    def test_full_rank_round_trip(self, rng):
        w = rng.normal(size=(3, 4, 2))
        f = tucker_decompose(w, 1e-12)
        assert rel_error(compose_tucker(f), w) <= 1e-10

    def test_matches_oracle(self, rng):
        core = rng.normal(size=(2, 3, 2))
        us = [rng.normal(size=(3, 2)), rng.normal(size=(4, 3)), rng.normal(size=(2, 2))]
        assert_allclose(compose_tucker(TuckerFactors(core, us)),
                        tucker_oracle(core, us), rtol=1e-12, atol=1e-13)


class TestComposeTT:
    def test_rank_one_chain_is_outer_product(self):
        a = np.array([1.0, -2.0])
        b = np.array([0.5, 3.0, 1.0])
        c = np.array([2.0, 0.25])
        f = TTFactors(a[:, None], [b[None, :, None]], c[None, :])
        assert_allclose(compose_tt(f), np.einsum("i,j,k->ijk", a, b, c), rtol=1e-14)

    def test_round_trip(self, rng):
        w = rng.normal(size=(4, 3, 2, 3))
        f = tt_decompose(w, 1e-12)
        assert rel_error(compose_tt(f), w) <= 1e-10

    def test_matches_oracle(self, rng):
        head = rng.normal(size=(3, 2))
        cores = [rng.normal(size=(2, 4, 3))]
        tail = rng.normal(size=(3, 2))
        assert_allclose(compose_tt(TTFactors(head, cores, tail)),
                        tt_oracle(head, cores, tail), rtol=1e-12, atol=1e-13)

    def test_bond_mismatch(self, rng):
        with pytest.raises(ValueError):
            TTFactors(rng.normal(size=(3, 2)),
                      [rng.normal(size=(3, 4, 2))],
                      rng.normal(size=(2, 5)))


class TestLafDecompose:
    def test_identical_task_weights_rank_one(self, rng):
        sl = rng.normal(size=(4, 3))
        w = np.stack([sl] * 5, axis=-1)
        f = laf_decompose(w, 0.1)
        assert f.s.shape == (1, 5)
        assert rel_error(full_compose(f), w) <= 1e-10

    def test_orthogonal_task_weights_full_rank(self, rng):
        # orthonormal columns of a 12x4 matrix give 4 mutually orthogonal slices
        q, _ = np.linalg.qr(rng.normal(size=(12, 4)))
        w = q.reshape(4, 3, 4)
        f = laf_decompose(w, 0.01)
        assert f.s.shape[0] == 4
        # oracle: all singular values equal 1, so no truncation can occur
        s = thin_svd(q).s
        assert_allclose(s, np.ones(4), atol=1e-10)

    def test_reconstruction_bound(self, rng):
        w = rng.normal(size=(4, 3, 5))
        f = laf_decompose(w, 0.5)
        assert rel_error(full_compose(f), w) <= 0.5

    def test_zero_input(self):
        f = laf_decompose(np.zeros((3, 2, 4)), 0.1)
        assert f.s.shape == (1, 4)
        assert_array_equal(full_compose(f), np.zeros((3, 2, 4)))

    def test_scale_lives_in_shared_factor(self, rng):
        w = rng.normal(size=(4, 3, 5))
        f = laf_decompose(w, 1e-12)
        # mixing matrix has orthonormal rows; scale sits in the basis
        assert_allclose(f.s @ f.s.T, np.eye(f.s.shape[0]), atol=1e-10)


class TestTuckerDecompose:
    def test_exact_at_tiny_epsilon(self, rng):
        w = rng.normal(size=(3, 2, 4, 2))
        assert rel_error(compose_tucker(tucker_decompose(w, 1e-12)), w) <= 1e-10

    def test_rank_one_input(self):
        a, b, c = np.array([3.0, 4.0]), np.array([1.0, 0.0, 0.0]), np.array([0.0, 2.0])
        w = np.einsum("i,j,k->ijk", a, b, c)
        f = tucker_decompose(w, 0.1)
        assert f.core.shape == (1, 1, 1)
        assert abs(abs(f.core[0, 0, 0]) - 5.0 * 1.0 * 2.0) <= 1e-10

    def test_error_bound(self, rng):
        for _ in range(5):
            w = rng.normal(size=(5, 4, 3))
            f = tucker_decompose(w, 0.1)
            assert rel_error(compose_tucker(f), w) <= np.sqrt(3) * 0.1

    def test_zero_input(self):
        f = tucker_decompose(np.zeros((2, 3, 2)), 0.1)
        assert f.core.shape == (1, 1, 1)
        assert_array_equal(compose_tucker(f), np.zeros((2, 3, 2)))


class TestTTDecompose:
    def test_exact_at_tiny_epsilon(self, rng):
        w = rng.normal(size=(2, 3, 4, 2))
        assert rel_error(compose_tt(tt_decompose(w, 1e-12)), w) <= 1e-10

    def test_outer_product_all_bonds_one(self, rng):
        vs = [rng.normal(size=3), rng.normal(size=4), rng.normal(size=2)]
        w = np.einsum("i,j,k->ijk", *vs)
        f = tt_decompose(w, 0.1)
        assert f.head.shape[1] == 1
        assert all(c.shape[2] == 1 for c in f.cores)
        assert rel_error(compose_tt(f), w) <= 1e-10

    def test_error_bound(self, rng):
        for _ in range(5):
            w = rng.normal(size=(4, 3, 5))
            f = tt_decompose(w, 0.2)
            assert rel_error(compose_tt(f), w) <= 0.2

    def test_zero_input(self):
        f = tt_decompose(np.zeros((2, 3, 4)), 0.1)
        assert_array_equal(compose_tt(f), np.zeros((2, 3, 4)))


class TestComposeBackward:
    """The full-stack backward oracle against finite differences, and
    ``compose_backward``'s own contract on one task's slice."""

    def test_zero_gradient_gives_zero(self, rng):
        f = LAFFactors(rng.normal(size=(3, 2, 2)), rng.normal(size=(2, 4)))
        g = compose_backward(f, np.zeros((3, 2)), task=1)
        assert_array_equal(g.l, np.zeros_like(f.l))
        assert_array_equal(g.s, np.zeros_like(f.s))

    @pytest.mark.parametrize("tag", list(SCHEME_TABLE))
    def test_zero_stack_factors_can_learn(self, rng, tag):
        """A zero stack factorises through the SVD at rank 1: the factors
        compose to exact zeros, and task 0's slice gradient reaches them."""
        f = decompose(tag, np.zeros((3, 2, 4)), 0.1)
        assert set(SCHEME_TABLE[tag].ranks(f)) == {1}
        assert_array_equal(full_compose(f), np.zeros((3, 2, 4)))
        g = compose_backward(f, rng.normal(size=(3, 2)), task=0)
        assert any(a.any() for a in SCHEME_TABLE[tag].pack(g))

    def test_laf_identity_mixing_passes_gradient_through(self, rng):
        f = LAFFactors(rng.normal(size=(3, 2, 4)), np.eye(4))
        for t in range(4):
            grad_t = rng.normal(size=(3, 2))
            want = np.zeros((3, 2, 4))
            want[..., t] = grad_t
            assert_allclose(compose_backward(f, grad_t, task=t).l, want, rtol=1e-15)

    def test_laf_finite_differences(self, rng):
        f = LAFFactors(rng.normal(size=(3, 2, 2)), rng.normal(size=(2, 4)))
        grad_w = rng.normal(size=(3, 2, 4))
        loss = lambda: float(np.sum(full_compose(f) * grad_w))
        g = full_backward(f, grad_w)
        assert_grads_close(g.l, central_difference(loss, f.l))
        assert_grads_close(g.s, central_difference(loss, f.s))

    def test_tucker_finite_differences(self, rng):
        f = TuckerFactors(rng.normal(size=(2, 2, 3)),
                          [rng.normal(size=(3, 2)),
                           rng.normal(size=(2, 2)),
                           rng.normal(size=(4, 3))])
        grad_w = rng.normal(size=(3, 2, 4))
        loss = lambda: float(np.sum(compose_tucker(f) * grad_w))
        g = full_backward(f, grad_w)
        assert_grads_close(g.core, central_difference(loss, f.core))
        for n in range(3):
            assert_grads_close(g.u[n], central_difference(loss, f.u[n]))

    def test_tt_finite_differences(self, rng):
        f = TTFactors(rng.normal(size=(3, 2)),
                      [rng.normal(size=(2, 4, 2))],
                      rng.normal(size=(2, 3)))
        grad_w = rng.normal(size=(3, 4, 3))
        loss = lambda: float(np.sum(compose_tt(f) * grad_w))
        g = full_backward(f, grad_w)
        assert_grads_close(g.head, central_difference(loss, f.head))
        assert_grads_close(g.cores[0], central_difference(loss, f.cores[0]))
        assert_grads_close(g.tail, central_difference(loss, f.tail))

    def test_tt_two_way_no_cores(self, rng):
        # the record a 3-way stack folds to
        f = TTFactors(rng.normal(size=(3, 2)), [], rng.normal(size=(2, 5)))
        grad_w = rng.normal(size=(3, 5))
        loss = lambda: float(np.sum(compose_tt(f) * grad_w))
        g = full_backward(f, grad_w)
        assert_grads_close(g.head, central_difference(loss, f.head))
        assert_grads_close(g.tail, central_difference(loss, f.tail))

    def test_shape_mismatch_rejected(self, rng):
        f = LAFFactors(rng.normal(size=(3, 2, 2)), rng.normal(size=(2, 4)))
        with pytest.raises(ValueError):
            compose_backward(f, np.zeros((3, 5)), task=0)
        with pytest.raises(TypeError):  # the task is required
            compose_backward(f, np.zeros((3, 2)))


SCHEMES = [
    ("laf", laf_decompose),
    ("tucker", tucker_decompose),
    ("tt", tt_decompose),
]


def factor_fields(f):
    """Every tensor of a factor record, in a fixed order."""
    out = []
    for v in vars(f).values():
        out.extend(v if isinstance(v, list) else [v])
    return out


# factor records for the per-task finite-difference check, by id
TASK_FD_RECORDS = {
    "laf": lambda rng: LAFFactors(rng.normal(size=(3, 2, 2)), rng.normal(size=(2, 4))),
    "tucker": lambda rng: TuckerFactors(
        rng.normal(size=(2, 2, 3)),
        [rng.normal(size=(3, 2)), rng.normal(size=(2, 2)), rng.normal(size=(4, 3))]),
    "tt-4way": lambda rng: TTFactors(
        rng.normal(size=(3, 2)),
        [rng.normal(size=(2, 4, 3)), rng.normal(size=(3, 2, 2))],
        rng.normal(size=(2, 3))),
    # the fold leaves a head and a tail with no cores between them
    "tt-3way-no-cores": lambda rng: TTFactors(
        rng.normal(size=(3, 2)), [rng.normal(size=(2, 4, 3))], rng.normal(size=(3, 5))),
}


class TestComposeTask:
    @pytest.mark.parametrize("scheme", SCHEMES, ids=[s[0] for s in SCHEMES])
    @pytest.mark.parametrize("shape", [(4, 3, 5), (2, 3, 2, 3, 4), (4, 1, 5)])
    def test_slice_and_backward_match_full_stack(self, rng, scheme, shape):
        _, decompose = scheme
        f = decompose(rng.normal(size=shape), 0.2)
        full = full_compose(f)
        n_tasks = shape[-1]
        for t in (0, n_tasks // 2, n_tasks - 1):
            assert_allclose(compose_task(f, t), full[..., t], rtol=1e-12, atol=1e-12)
            grad_t = rng.normal(size=shape[:-1])
            padded = np.zeros(shape)
            padded[..., t] = grad_t
            got = factor_fields(compose_backward(f, grad_t, task=t))
            want = factor_fields(full_backward(f, padded))
            assert len(got) == len(want)
            for a, b in zip(got, want):
                assert a.shape == b.shape
                assert_allclose(a, b, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("record", TASK_FD_RECORDS.values(), ids=TASK_FD_RECORDS.keys())
    def test_task_backward_finite_differences(self, rng, record):
        f = record(rng)
        grad_t = rng.normal(size=f.out_shape[:-1])
        loss = lambda: float(np.sum(compose_task(f, 1) * grad_t))
        g = compose_backward(f, grad_t, task=1)
        for analytic, p in zip(factor_fields(g), factor_fields(f)):
            assert_grads_close(analytic, central_difference(loss, p))

    @pytest.mark.parametrize("core_shape, out_shape", [
        ((1, 1, 1), (4, 1, 3)),  # rank 1 in every mode, like a binary head
        ((2, 1, 2, 2, 2), (3, 2, 2, 3, 3)),
    ])
    def test_tucker_task_backward_finite_differences(self, rng, core_shape, out_shape):
        f = TuckerFactors(rng.normal(size=core_shape),
                          [rng.normal(size=(d, k)) for d, k in zip(out_shape, core_shape)])
        grad_t = rng.normal(size=out_shape[:-1])
        loss = lambda: float(np.sum(compose_task(f, 1) * grad_t))
        g = compose_backward(f, grad_t, task=1)
        for analytic, p in zip(factor_fields(g), factor_fields(f)):
            assert_grads_close(analytic, central_difference(loss, p))

    def test_only_the_task_row_of_the_last_factor_moves(self, rng):
        f = tucker_decompose(rng.normal(size=(3, 4, 5)), 1e-12)
        g = compose_backward(f, rng.normal(size=(3, 4)), task=2)
        assert np.any(g.u[-1][2])
        assert not np.any(np.delete(g.u[-1], 2, axis=0))

    def test_rejects_bad_task_and_shapes(self, rng):
        f = laf_decompose(rng.normal(size=(3, 2, 4)), 0.1)
        for bad in (-1, 4):
            with pytest.raises(ValueError):
                compose_task(f, bad)
        with pytest.raises(ValueError):
            compose_backward(f, np.zeros((3, 2, 4)), task=0)
        with pytest.raises(ValueError):
            compose_task(tt_decompose(rng.normal(size=(3, 4)), 0.1), 0)


def _dot(a, b):
    """``a``'s last axis contracted with ``b``'s first, on C-contiguous copies."""
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return np.tensordot(a, b, (a.ndim - 1, 0))


def _dot_tt(f):
    """The TT chain head . cores . tail through :func:`_dot`."""
    w = f.head
    for c in f.cores:
        w = _dot(w, c)
    return _dot(w, f.tail)


def _dot_tt_backward(f, grad_w):
    """The full TT backward through :func:`_dot` and validated records."""
    n_way = grad_w.ndim
    left = [f.head]
    for c in f.cores:
        left.append(_dot(left[-1], c))
    right = [f.tail]
    for c in reversed(f.cores):
        right.insert(0, _dot(c, right[0]))
    grad_head = np.tensordot(grad_w, right[0],
                             axes=(list(range(1, n_way)), list(range(1, n_way))))
    grad_cores = []
    for i in range(len(f.cores)):
        lt, rt = left[i], right[i + 1]
        n_left = lt.ndim - 1
        g = np.tensordot(lt, grad_w, axes=(list(range(n_left)), list(range(n_left))))
        g = np.tensordot(g, rt, axes=(list(range(2, g.ndim)), list(range(1, rt.ndim))))
        grad_cores.append(np.ascontiguousarray(g))
    n_left = left[-1].ndim - 1
    grad_tail = np.tensordot(left[-1], grad_w, axes=(list(range(n_left)), list(range(n_left))))
    return TTFactors(grad_head, grad_cores, grad_tail)


def _tt_fold_reference(f, t):
    return TTFactors(f.head, f.cores[:-1], _dot(f.cores[-1], f.tail[:, t]))


def _reference_task_paths(f, grad_t, t):
    """Per-task slice and backward as first written: contractions on
    contiguous copies, validated records and ``np.multiply.outer``."""
    if isinstance(f, LAFFactors):
        lead = list(range(f.l.ndim - 1))
        grad_s = np.zeros_like(f.s)
        grad_s[:, t] = np.tensordot(f.l, grad_t, axes=(lead, lead))
        return (_dot(f.l, f.s[:, t]),
                LAFFactors(np.multiply.outer(grad_t, f.s[:, t]), grad_s))
    if isinstance(f, TuckerFactors):
        inner = TuckerFactors(f.core @ f.u[-1][t], f.u[:-1])
        g = full_backward(inner, grad_t)
        grad_last = np.zeros_like(f.u[-1])
        grad_last[t] = g.core.reshape(-1) @ f.core.reshape(-1, f.core.shape[-1])
        return (compose_tucker(inner),
                TuckerFactors(np.multiply.outer(g.core, f.u[-1][t]), g.u + [grad_last]))
    folded = _tt_fold_reference(f, t)
    g = _dot_tt_backward(folded, grad_t)
    grad_tail = np.zeros_like(f.tail)
    grad_tail[:, t] = np.tensordot(g.tail, f.cores[-1], axes=([0, 1], [0, 1]))
    return (_dot_tt(folded),
            TTFactors(g.head, g.cores + [np.multiply.outer(g.tail, f.tail[:, t])], grad_tail))


def assert_same_bits(a, b):
    assert a.shape == b.shape and a.dtype == b.dtype
    assert a.tobytes() == b.tobytes()


class TestPerTaskBits:
    """The per-task slice and backward give the bits of the contraction /
    ``np.multiply.outer`` formulation they replaced."""

    @pytest.mark.parametrize("scheme", SCHEMES, ids=[s[0] for s in SCHEMES])
    @pytest.mark.parametrize("shape", [(5, 4, 6), (3, 4, 2, 3, 5)], ids=["3way", "5way"])
    def test_bitwise_equal_to_reference(self, rng, scheme, shape):
        _, decompose = scheme
        f = decompose(rng.normal(size=shape), 0.2)
        for t in range(shape[-1]):
            grad_t = rng.normal(size=shape[:-1])
            want_slice, want = _reference_task_paths(f, grad_t, t)
            assert_same_bits(compose_task(f, t), want_slice)
            got = compose_backward(f, grad_t, task=t)
            assert type(got) is type(want)
            pairs = list(zip(factor_fields(got), factor_fields(want)))
            assert len(pairs) == len(factor_fields(want))
            for a, b in pairs:
                assert_same_bits(a, b)


class TestUnfold:
    """``_unfold(t, n)`` is the 0-based mode-n unfolding (Kolda & Bader 2009)."""

    def test_matrix_axis0_is_identity(self, rng):
        m = rng.normal(size=(3, 5))
        assert_array_equal(_unfold(m, 0), m)

    def test_matrix_axis1_is_transpose(self, rng):
        m = rng.normal(size=(3, 5))
        assert_array_equal(_unfold(m, 1), m.T)

    def test_234_axis1_matches_fibre_oracle(self, rng):
        t = rng.normal(size=(2, 3, 4))
        got = _unfold(t, 1)
        assert got.shape == (3, 8)
        assert_array_equal(got, fibre_oracle(t, 2))

    def test_last_axis_is_a_strided_view(self, rng):
        t = rng.normal(size=(2, 3, 4))
        got = _unfold(t, 2)
        assert np.shares_memory(got, t) and not got.flags.c_contiguous
        assert_array_equal(got, fibre_oracle(t, 3))

    def test_all_modes_match_fibre_oracle(self, rng):
        for _ in range(20):
            t = rng.normal(size=random_shape(rng, min_way=2))
            for n in range(t.ndim):
                assert_array_equal(_unfold(t, n), fibre_oracle(t, n + 1))

    def test_norm_preserved(self, rng):
        t = rng.normal(size=(3, 4, 2, 5))
        for n in range(4):
            assert np.linalg.norm(_unfold(t, n)) == pytest.approx(np.linalg.norm(t), rel=1e-15)


class TestStructuralProperties:
    def test_compose_decompose_identity_up_to_5way(self, rng):
        for shape in [(3, 4), (2, 3, 4), (3, 2, 2, 3), (2, 2, 3, 2, 2)]:
            w = rng.normal(size=shape)
            if len(shape) >= 2:
                assert rel_error(full_compose(laf_decompose(w, 1e-12)), w) <= 1e-10
                assert rel_error(compose_tt(tt_decompose(w, 1e-12)), w) <= 1e-10
            assert rel_error(compose_tucker(tucker_decompose(w, 1e-12)), w) <= 1e-10

    def test_multilinearity_exact_scaling(self, rng):
        # doubling one factor doubles the output bit-exactly
        f = TuckerFactors(rng.normal(size=(2, 2, 2)),
                          [rng.normal(size=(3, 2)) for _ in range(3)])
        base = compose_tucker(f)
        f2 = TuckerFactors(f.core * 2.0, f.u)
        assert_array_equal(compose_tucker(f2), base * 2.0)
        f3 = TuckerFactors(f.core, [f.u[0] * 2.0, f.u[1], f.u[2]])
        assert_array_equal(compose_tucker(f3), base * 2.0)

    def test_ranks_monotone_in_epsilon(self, rng):
        w = rng.normal(size=(5, 4, 6))
        eps_grid = (0.01, 0.1, 0.3, 0.6)
        laf_ranks = [laf_decompose(w, e).s.shape[0] for e in eps_grid]
        assert laf_ranks == sorted(laf_ranks, reverse=True)
        tucker_ranks = [
            sum(tucker_decompose(w, e).core.shape) for e in eps_grid
        ]
        assert tucker_ranks == sorted(tucker_ranks, reverse=True)
        tt_ranks = [
            tt_decompose(w, e).head.shape[1] + tt_decompose(w, e).tail.shape[0]
            for e in eps_grid
        ]
        assert tt_ranks == sorted(tt_ranks, reverse=True)
