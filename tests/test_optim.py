"""Unconstrained maximizers, numeric derivatives, simplex projection, AL."""

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st

from markovmix import optim
from markovmix._mixture import mixture_gradient, mixture_hessian, mixture_loglik
from markovmix.data import CovariateMatrix, Panel, encode_sequences, transition_matrix_grid
from markovmix.exceptions import EstimationError
from markovmix.gmmc import build_prob_tensor
from markovmix.mtd import _pattern_prob_tensor
from markovmix.optim import (
    KKT_TOL,
    maximize_auglag,
    maximize_simplex,
    maximize_unconstrained,
    numeric_gradient,
    numeric_hessian,
    project_simplex,
)
from markovmix.simulation import simulate_homog_chain, simulate_nonhomog_chain

# the two unconstrained loops: the Augmented Lagrangian's inner Newton
# solve, which takes the Hessian, and maximize_unconstrained's BFGS
PATHS = ["newton-raphson", "bfgs"]


def _maximize(path, f, start, gradient, hessian, **kwargs):
    if path == "newton-raphson":
        return optim._maximize_newton(f, start, gradient, hessian, **kwargs)
    return maximize_unconstrained(f, start, gradient, **kwargs)


class TestMaximizeUnconstrained:
    @pytest.mark.parametrize("path", PATHS)
    def test_1d_quadratic(self, path):
        res = _maximize(
            path,
            lambda t: -((t[0] - 3.0) ** 2),
            [0.0],
            lambda t: np.array([-2.0 * (t[0] - 3.0)]),
            lambda t: np.array([[-2.0]]),
        )
        assert res.converged
        assert abs(res.argmax[0] - 3.0) < 1e-6

    @pytest.mark.parametrize("path", PATHS)
    def test_2d_quadratic(self, path):
        res = _maximize(
            path,
            lambda t: -t[0] ** 2 - 10.0 * t[1] ** 2,
            [1.0, 1.0],
            lambda t: np.array([-2.0 * t[0], -20.0 * t[1]]),
            lambda t: np.diag([-2.0, -20.0]),
        )
        assert res.converged
        assert np.max(np.abs(res.argmax)) < 1e-6

    def test_rosenbrock_negated_bfgs(self):
        def neg_rosen(t):
            return -(100.0 * (t[1] - t[0] ** 2) ** 2 + (1.0 - t[0]) ** 2)

        def grad(t):
            return np.array([
                400.0 * t[0] * (t[1] - t[0] ** 2) + 2.0 * (1.0 - t[0]),
                -200.0 * (t[1] - t[0] ** 2),
            ])

        res = maximize_unconstrained(neg_rosen, [-1.2, 1.0], grad)
        assert res.converged
        assert np.max(np.abs(res.argmax - 1.0)) < 1e-4

    @pytest.mark.parametrize("path", PATHS)
    def test_methods_agree_on_concave_quadratic(self, path):
        # closed-form maximizer of -(x-a)'A(x-a) is a
        target = np.array([0.4, -1.3])
        mat = np.array([[2.0, 0.3], [0.3, 1.0]])

        def f(t):
            d = t - target
            return -d @ mat @ d

        res = _maximize(
            path, f, [2.0, 2.0], lambda t: -2.0 * mat @ (t - target), lambda t: -2.0 * mat
        )
        assert np.max(np.abs(res.argmax - target)) < 1e-6

    def test_non_finite_start_rejected(self):
        with np.errstate(invalid="ignore"), pytest.raises(EstimationError, match="finite"):
            maximize_unconstrained(lambda t: float(np.log(t[0])), [-1.0], lambda t: 1.0 / t)

    def test_iteration_cap_reports_non_convergence(self):
        res = maximize_unconstrained(
            lambda t: -abs(t[0]) ** 1.1,
            [5.0],
            lambda t: -1.1 * np.sign(t) * np.abs(t) ** 0.1,
            max_iter=2,
        )
        assert not res.converged

    @pytest.mark.parametrize("path", PATHS)
    def test_step_that_leaves_x_unchanged_ends_the_run(self, path):
        # the maximizer 1 + 3e-17 lies between two doubles, nearer to 1.0:
        # from x = 1.0 every accepted step rounds back to x while the
        # gradient, 6e-5, stays above gtol
        def f(t):
            return float(-1e4 - 1e12 * ((t[0] - 1.0) - 3e-17) ** 2)

        def grad(t):
            return np.array([-2e12 * ((t[0] - 1.0) - 3e-17)])

        def hess(t):
            return np.array([[-2e12]])

        short, long = (
            _maximize(path, f, [0.0], grad, hess, max_iter=cap) for cap in (50, 500)
        )
        assert short.message == "line search stalled"
        assert not short.converged
        assert short.iterations < 10
        assert short.argmax[0] == 1.0
        assert np.array_equal(short.argmax, long.argmax)
        assert short.value == long.value

    def test_newton_shifts_an_indefinite_hessian(self):
        # at the start the Hessian of -f is indefinite, and the valley is
        # too narrow for steepest descent to cross in 50 iterations
        def f(t):
            return float(-((t[0] ** 2 - 1.0) ** 2) - 1e4 * (t[1] - t[0]) ** 2)

        def grad(t):
            return np.array([
                -4.0 * t[0] * (t[0] ** 2 - 1.0) + 2e4 * (t[1] - t[0]),
                -2e4 * (t[1] - t[0]),
            ])

        def hess(t):
            return np.array([[-4.0 * (3.0 * t[0] ** 2 - 1.0) - 2e4, 2e4], [2e4, -2e4]])

        res = optim._maximize_newton(f, [0.1, 0.1], grad, hess, max_iter=50)
        assert res.converged
        assert np.max(np.abs(res.argmax - 1.0)) < 1e-6

    @pytest.mark.parametrize("path", PATHS)
    def test_start_is_evaluated_once(self, path):
        start = np.array([3.0, -2.0])
        seen = []

        def f(t):
            seen.append(t.copy())
            return -float(((t - 1.0) ** 2).sum())

        res = _maximize(
            path, f, start, lambda t: -2.0 * (t - 1.0), lambda t: -2.0 * np.eye(2)
        )
        assert res.converged
        assert sum(np.array_equal(t, start) for t in seen) == 1


class TestNumericDerivatives:
    def test_gradient_and_hessian_of_square(self):
        grad = numeric_gradient(lambda t: t[0] ** 2, np.array([2.0]), h=1e-5)
        hess = numeric_hessian(lambda t: t[0] ** 2, np.array([2.0]), h=1e-5)
        assert abs(grad[0] - 4.0) < 1e-6
        assert abs(hess[0, 0] - 2.0) < 1e-6

    def test_linear_function_zero_hessian(self):
        hess = numeric_hessian(lambda t: 3.0 * t[0] - 2.0 * t[1], np.array([0.3, -0.1]))
        assert np.max(np.abs(hess)) < 1e-7

    def test_hessian_exactly_symmetric(self):
        hess = numeric_hessian(
            lambda t: t[0] ** 2 * t[1] + np.sin(t[1]) * t[2], np.array([1.2, 0.7, -0.4])
        )
        assert np.array_equal(hess, hess.T)

    def test_cross_terms(self):
        hess = numeric_hessian(lambda t: t[0] * t[1], np.array([0.6, -0.2]))
        assert hess[0, 1] == pytest.approx(1.0, abs=1e-7)

    def test_non_finite_stencil_raises(self):
        with np.errstate(invalid="ignore"), pytest.raises(EstimationError, match="non-finite"):
            numeric_gradient(lambda t: float(np.log(t[0])), np.array([1e-7]), h=1e-5)


class TestProjectSimplex:
    def test_already_feasible(self):
        assert project_simplex([0.7, 0.3]).tolist() == [0.7, 0.3]

    def test_vertex(self):
        assert project_simplex([2.0, 0.0]).tolist() == [1.0, 0.0]

    def test_symmetry(self):
        assert project_simplex([0.6, 0.6]).tolist() == [0.5, 0.5]

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(
            st.floats(-50, 50, allow_nan=False, allow_infinity=False),
            min_size=1,
            max_size=8,
        )
    )
    def test_feasible_and_idempotent(self, values):
        out = project_simplex(values)
        assert out.sum() == pytest.approx(1.0, abs=1e-12)
        assert (out >= 0).all()
        again = project_simplex(out)
        assert np.max(np.abs(again - out)) < 1e-12


def _quadratic(target):
    """-|w - target|^2 with its closed-form gradient and Hessian."""
    target = np.asarray(target, dtype=float)
    return (
        lambda w: -float(((w - target) ** 2).sum()),
        lambda w: -2.0 * (w - target),
        lambda w: -2.0 * np.eye(target.size),
    )


class TestMaximizeAuglag:
    def test_interior_optimum(self):
        f, grad, hess = _quadratic([0.7, 0.3])
        res = maximize_auglag(f, [0.5, 0.5], grad, hess)
        assert res.converged
        assert np.max(np.abs(res.argmax - [0.7, 0.3])) < 1e-5

    def test_vertex_solution(self):
        res = maximize_auglag(
            lambda w: float(w[0]),
            [0.5, 0.5],
            lambda w: np.array([1.0, 0.0]),
            lambda w: np.zeros((2, 2)),
        )
        assert res.converged
        assert np.max(np.abs(res.argmax - [1.0, 0.0])) < 1e-6

    def test_boundary_solution_of_exterior_target(self):
        # max -(w0 - 2)^2 on the simplex pushes w0 to its largest value 1
        res = maximize_auglag(
            lambda w: -((w[0] - 2.0) ** 2),
            [0.5, 0.5],
            lambda w: np.array([-2.0 * (w[0] - 2.0), 0.0]),
            lambda w: np.array([[-2.0, 0.0], [0.0, 0.0]]),
        )
        assert res.converged
        assert abs(res.argmax[0] - 1.0) < 1e-5
        assert abs(res.argmax[1]) < 1e-6

    def test_infeasible_start_rejected(self):
        f, grad, hess = _quadratic([0.5, 0.5])
        with pytest.raises(EstimationError, match="feasible"):
            maximize_auglag(f, [0.9, 0.9], grad, hess)

    def test_constraint_residuals_at_convergence(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            f, grad, hess = _quadratic(rng.uniform(-0.5, 1.5, size=2))
            res = maximize_auglag(f, [0.5, 0.5], grad, hess)
            if res.converged:
                assert abs(res.argmax.sum() - 1.0) <= 1e-6
                assert res.argmax.min() >= -1e-8


class TestAuglagAnalyticHessian:
    def test_augmented_hessian_matches_numeric_oracle(self, monkeypatch):
        # spy on the inner solves: at each, the Hessian handed to the inner
        # solver must be the Hessian of the augmented objective it maximizes
        rng = np.random.default_rng(11)
        q = rng.uniform(0.2, 0.9, size=(200, 3))
        points = [
            np.array([0.3, 0.3, 0.4]),  # no bound active
            np.array([0.6, 0.5, -0.1]),  # w3 < 0: its bound's penalty is active
            np.array([0.7, -0.05, 0.2]),  # w2 < 0, and the sum below 1
        ]
        inner_solve = optim._maximize_newton
        checked = []

        def spy(f, start, gradient, hessian, **kwargs):
            for w in points:
                oracle = numeric_hessian(f, w)
                analytic = hessian(w)
                scale = np.max(np.abs(oracle))
                assert np.max(np.abs(analytic - oracle)) <= 1e-5 * scale
            checked.append(hessian is not None)
            return inner_solve(f, start, gradient, hessian, **kwargs)

        monkeypatch.setattr(optim, "_maximize_newton", spy)
        res = maximize_auglag(
            lambda w: mixture_loglik(w, q),
            np.full(3, 1.0 / 3.0),
            lambda w: mixture_gradient(w, q),
            lambda w: mixture_hessian(w, q),
        )
        assert res.converged
        assert checked and all(checked)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_agrees_with_slsqp_oracle(self, seed):
        rng = np.random.default_rng(seed)
        n = 600
        x = rng.normal(2.0, 5.0, size=n)
        s1 = simulate_nonhomog_chain(np.array([[-1.2, 1.4, 0.45]]), x, n, rng=rng)
        s2 = simulate_homog_chain(np.array([[0.55, 0.45], [0.3, 0.7]]), n, rng=rng)
        s3 = simulate_homog_chain(np.array([[0.8, 0.2], [0.4, 0.6]]), n, rng=rng)
        panel = Panel(np.column_stack([s1, s2, s3]), (2, 2, 2))
        tensors, _ = build_prob_tensor(panel, CovariateMatrix(x.reshape(-1, 1), ["x"]))
        for q in tensors:
            start = np.full(3, 1.0 / 3.0)
            res = maximize_auglag(
                lambda w: mixture_loglik(w, q),
                start,
                lambda w: mixture_gradient(w, q),
                lambda w: mixture_hessian(w, q),
            )
            oracle = scipy.optimize.minimize(
                lambda w: -mixture_loglik(w, q),
                start,
                jac=lambda w: -mixture_gradient(w, q),
                method="SLSQP",
                bounds=[(0.0, 1.0)] * 3,
                constraints=[{"type": "eq", "fun": lambda w: w.sum() - 1.0,
                              "jac": lambda w: np.ones(3)}],
                options={"ftol": 1e-14, "maxiter": 500},
            )
            assert res.converged and oracle.success
            lam, lam_oracle = project_simplex(res.argmax), project_simplex(oracle.x)
            assert np.max(np.abs(lam - lam_oracle)) <= 1e-6
            ll, ll_oracle = mixture_loglik(lam, q), mixture_loglik(lam_oracle, q)
            assert ll >= ll_oracle - 1e-6 * abs(ll_oracle)


def _mixture_problem(q, counts=None):
    """Objective, gradient and Hessian of the mixture log-likelihood on q."""
    return (
        lambda w: mixture_loglik(w, q, counts),
        lambda w: mixture_gradient(w, q, counts),
        lambda w: mixture_hessian(w, q, counts),
    )


def _mtd_tensors(seed):
    """(q, counts) of equations 0 and 2 of a seeded three-chain MTD panel.

    Chain 1 repeats chain 0's previous state, so equation 1's likelihood
    is unbounded without w >= 0; equations 0 and 2 have a maximum in
    both modes.
    """
    rng = np.random.default_rng(seed)
    src = simulate_homog_chain(
        np.array([[0.7, 0.2, 0.1], [0.2, 0.6, 0.2], [0.3, 0.3, 0.4]]), 500, rng=rng
    )
    panel = encode_sequences([src.tolist(), np.roll(src, 1).tolist(),
                              rng.integers(1, 3, 500).tolist()])
    transmats = transition_matrix_grid(panel)
    return [_pattern_prob_tensor(panel, transmats, j) for j in (0, 2)]


def _kkt_residual(res):
    """The KKT residual of maximize_simplex, recomputed from its result."""
    g = res.gradient
    free = res.argmax > 0
    excess = g - g[free].mean()
    return max(np.max(np.abs(excess[free])), np.max(excess[~free], initial=0.0))


class TestMaximizeSimplex:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_agrees_with_slsqp_oracle(self, seed):
        for q, counts in _mtd_tensors(seed):
            f, grad, hess = _mixture_problem(q, counts)
            start = np.full(3, 1.0 / 3.0)
            res = maximize_simplex(f, start, grad, hess, n_obs=counts.sum())
            oracle = scipy.optimize.minimize(
                lambda w: -f(w) if np.isfinite(f(w)) else 1e300,
                start,
                jac=lambda w: -grad(w),
                method="SLSQP",
                bounds=[(0.0, 1.0)] * 3,
                constraints=[{"type": "eq", "fun": lambda w: w.sum() - 1.0,
                              "jac": lambda w: np.ones(3)}],
                options={"ftol": 1e-14, "maxiter": 500},
            )
            assert res.converged and oracle.success
            assert np.max(np.abs(res.argmax - oracle.x)) <= 1e-6
            assert res.value == f(res.argmax)
            assert res.value >= f(oracle.x) - 1e-10 * abs(res.value)
            assert res.argmax.sum() == pytest.approx(1.0, abs=1e-12)
            assert res.argmax.min() >= 0.0

    def test_certificate_holds_at_the_returned_gradient(self):
        for q, counts in _mtd_tensors(3):
            f, grad, hess = _mixture_problem(q, counts)
            res = maximize_simplex(f, np.full(3, 1.0 / 3.0), grad, hess, n_obs=counts.sum())
            assert res.converged
            assert np.array_equal(res.gradient, grad(res.argmax))
            assert _kkt_residual(res) <= KKT_TOL * counts.sum()

    def test_duplicated_source_column(self):
        # identical columns 1 and 2 make the Hessian, and the KKT system,
        # singular; only their summed weight is identified
        q, counts = _mtd_tensors(4)[0]
        f, grad, hess = _mixture_problem(q, counts)
        single = maximize_simplex(f, np.full(3, 1.0 / 3.0), grad, hess, n_obs=counts.sum())
        f, grad, hess = _mixture_problem(q[:, [0, 1, 1, 2]], counts)
        dup = maximize_simplex(f, np.full(4, 0.25), grad, hess, n_obs=counts.sum())
        assert single.converged and dup.converged
        merged = np.array([dup.argmax[0], dup.argmax[1] + dup.argmax[2], dup.argmax[3]])
        assert np.max(np.abs(merged - single.argmax)) <= 1e-8
        assert dup.value == pytest.approx(single.value, rel=1e-12)

    def test_vertex_optimum_from_another_vertex(self):
        # column 2 is the largest entry of every row, so e_2 is optimal;
        # from e_0 both other bounds are violated and get released one at
        # a time
        rng = np.random.default_rng(13)
        q = rng.uniform(0.2, 0.6, size=(300, 3))
        q[:, 2] = q[:, :2].max(axis=1) + rng.uniform(0.01, 0.2, size=300)
        f, grad, hess = _mixture_problem(q)
        res = maximize_simplex(f, [1.0, 0.0, 0.0], grad, hess, n_obs=300)
        assert res.converged
        assert np.array_equal(res.argmax, [0.0, 0.0, 1.0])
        assert _kkt_residual(res) <= KKT_TOL * 300

    @pytest.mark.parametrize("k", range(1, 9))
    def test_vertex_reached_exactly_under_perturbed_hessian(self, k):
        # the last bits of the Hessian move every Newton step; the step
        # onto the vertex must still land on it exactly
        rng = np.random.default_rng(13)
        q = rng.uniform(0.2, 0.6, size=(300, 3))
        q[:, 2] = q[:, :2].max(axis=1) + rng.uniform(0.01, 0.2, size=300)
        f, grad, hess = _mixture_problem(q)
        scale = 1.0 + k * 2.0**-52
        res = maximize_simplex(f, [1.0, 0.0, 0.0], grad, lambda w: hess(w) * scale, n_obs=300)
        assert res.converged
        assert np.array_equal(res.argmax, [0.0, 0.0, 1.0])

    def test_non_finite_start_rejected(self):
        q = np.array([[0.0, 0.5], [0.4, 0.6]])
        f, grad, hess = _mixture_problem(q)
        with pytest.raises(EstimationError, match="finite"):
            maximize_simplex(f, [1.0, 0.0], grad, hess, n_obs=2)
