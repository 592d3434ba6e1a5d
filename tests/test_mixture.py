"""The mixture Hessian kernel and the column-major tensors it is built for."""

import numpy as np
import pytest

from markovmix._mixture import _hessian_std_errors, mixture_gradient, mixture_hessian, mixture_loglik
from markovmix.data import CovariateMatrix, encode_sequences, transition_matrix_grid
from markovmix.gmmc import build_prob_tensor
from markovmix.mtd import _pattern_prob_tensor, realized_prob_tensor


def _oracle(weights, q, counts=None):
    """-(q/mix)'(q/mix), each row weighted by its count: the Hessian's textbook form."""
    mix = q @ weights
    scaled = q / (mix if counts is None else mix / np.sqrt(counts))[:, None]
    return -(scaled.T @ scaled)


def _tensor(rng, rows, s):
    return rng.uniform(0.01, 1.0, size=(rows, s))


class TestMixtureHessian:
    @pytest.mark.parametrize("rows, s, with_counts", [
        (100, 2, False), (2000, 6, True), (20000, 3, False),
    ], ids=["100x2", "2000x6-counts", "20000x3"])
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_matches_oracle(self, rows, s, with_counts, order):
        rng = np.random.default_rng(rows + s)
        q = np.asarray(_tensor(rng, rows, s), order=order)
        counts = rng.integers(1, 40, size=rows).astype(float) if with_counts else None
        weights = rng.dirichlet(np.ones(s))
        hess = mixture_hessian(weights, q, counts)
        oracle = _oracle(weights, q, counts)
        assert np.max(np.abs(hess - oracle)) <= 1e-13 * np.max(np.abs(oracle))
        assert np.array_equal(hess, hess.T)

    def test_finite_where_mix_squared_underflows(self):
        # mix = 1e-170 on row 0; mix * mix would underflow to 0 and its
        # zero entry give 0/0
        q = np.array([[0.0, 2e-170], [0.3, 0.7]])
        weights = np.array([0.5, 0.5])
        hess = mixture_hessian(weights, q)
        assert np.isfinite(hess).all()
        assert np.allclose(hess, _oracle(weights, q), rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("with_counts", [False, True], ids=["rows", "counts"])
@pytest.mark.parametrize("kernel", [mixture_loglik, mixture_gradient, mixture_hessian])
def test_kernels_leave_their_inputs_alone(kernel, with_counts):
    # the kernels work in place in their own q @ w array, never in an input
    rng = np.random.default_rng(6)
    q = np.asarray(_tensor(rng, 300, 3), order="F")
    weights = rng.dirichlet(np.ones(3))
    counts = rng.integers(1, 9, size=300).astype(float) if with_counts else None
    before = [a.copy() for a in (weights, q, counts) if a is not None]
    kernel(weights, q, counts)
    after = [a for a in (weights, q, counts) if a is not None]
    assert all(np.array_equal(a, b) for a, b in zip(before, after))


class TestTensorLayout:
    """Every builder stores q column-major, the layout the kernel is fast on."""

    @pytest.fixture(scope="class")
    def panel(self):
        rng = np.random.default_rng(4)
        return encode_sequences([rng.integers(1, 4, 200).tolist(),
                                 rng.integers(1, 3, 200).tolist()])

    def test_gmmc_tensor(self, panel):
        cov = CovariateMatrix(np.random.default_rng(5).normal(size=200), ["x"])
        tensors, _ = build_prob_tensor(panel, cov, x_lag=1)
        assert all(q.T.flags.c_contiguous for q in tensors)

    def test_mtd_tensors(self, panel):
        transmats = transition_matrix_grid(panel)
        for j in range(panel.n_chains):
            assert realized_prob_tensor(panel, transmats, j).T.flags.c_contiguous
            q, _ = _pattern_prob_tensor(panel, transmats, j)
            assert q.T.flags.c_contiguous


class TestHessianStdErrors:
    def test_nearly_equal_columns_are_singular(self):
        # two sources agreeing to 1e-8 leave the Hessian's smallest
        # singular value at rounding level; no standard error survives
        rng = np.random.default_rng(11)
        q = _tensor(rng, 60, 2)
        q[:, 1] = q[:, 0] * (1.0 + 1e-8 * rng.uniform(-1.0, 1.0, size=60))
        assert _hessian_std_errors(mixture_hessian(np.array([0.5, 0.5]), q)) is None
