import numpy as np
import pytest

from conftest import (
    partial_trace_oracle,
    power_iteration_opnorm,
    random_density,
    random_hermitian,
    random_pure,
    tensor_oracle,
)
from isolab import (
    DensityMatrix,
    PureState,
    fidelity,
    maximally_entangled_state,
    operator_norm,
    partial_trace,
    purity_metrics,
    swap_operator,
    sym_antisym_projectors,
    trace_norm,
)


class TestTensor:
    def test_identity(self):
        assert np.array_equal(np.kron(np.eye(2), np.eye(2)), np.eye(4))

    def test_diagonal(self):
        out = np.kron(np.diag([1.0, 2.0]), np.diag([3.0, 4.0]))
        assert np.allclose(out, np.diag([3.0, 4.0, 6.0, 8.0]))

    def test_matches_index_oracle(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        b = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        assert np.abs(np.kron(a, b) - tensor_oracle(a, b)).max() < 1e-13

    def test_tensor_then_trace_returns_factor(self):
        rng = np.random.default_rng(6)
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        out = partial_trace(np.kron(a, b), [2, 2], keep=[0])
        assert np.abs(out - a * np.trace(b)).max() < 1e-12


class TestPartialTrace:
    def test_maximally_entangled_marginals(self):
        rho = maximally_entangled_state(2).projector()
        for keep in ([0], [1]):
            out = partial_trace(rho, [2, 2], keep=keep)
            assert np.abs(out - np.eye(2) / 2).max() < 1e-12

    def test_product_state(self):
        rng = np.random.default_rng(7)
        rho = random_density(rng, 2).matrix
        sigma = random_density(rng, 3).matrix
        out = partial_trace(np.kron(rho, sigma), [2, 3], keep=[0])
        assert np.abs(out - rho).max() < 1e-12

    def test_three_factor_against_oracle(self):
        rng = np.random.default_rng(8)
        dims = [2, 3, 2]
        rho = random_density(rng, 12).matrix
        for keep in ([0], [1], [2], [0, 2], [1, 2], [0, 1], []):
            got = partial_trace(rho, dims, keep=keep)
            want = partial_trace_oracle(rho, dims, keep)
            assert np.abs(got - want).max() < 1e-12

    def test_trace_preserved(self):
        rng = np.random.default_rng(9)
        rho = random_density(rng, 8).matrix
        out = partial_trace(rho, [2, 2, 2], keep=[1])
        assert abs(np.trace(out) - np.trace(rho)) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            partial_trace(np.eye(4), [2, 3], keep=[0])


class TestOperatorNorm:
    def test_maximally_mixed(self):
        assert operator_norm(np.eye(2) / 2) == pytest.approx(0.5)

    def test_pure_projector(self):
        rng = np.random.default_rng(10)
        psi = random_pure(rng, 5)
        assert operator_norm(psi.projector()) == pytest.approx(1.0)

    def test_hermitian_against_power_iteration(self):
        rng = np.random.default_rng(11)
        for dim in (2, 4, 6):
            h = random_hermitian(rng, dim)
            assert operator_norm(h) == pytest.approx(
                power_iteration_opnorm(h), abs=1e-9
            )

    def test_non_hermitian(self):
        rng = np.random.default_rng(12)
        m = rng.normal(size=(3, 5)) + 1j * rng.normal(size=(3, 5))
        assert operator_norm(m) == pytest.approx(power_iteration_opnorm(m), abs=1e-9)


class TestTraceNorm:
    def test_density_matrices(self):
        rng = np.random.default_rng(13)
        for dim in (2, 3, 4):
            rho = random_density(rng, dim)
            assert trace_norm(rho) == pytest.approx(1.0, abs=1e-9)

    def test_signed_diagonal(self):
        assert trace_norm(np.diag([1.0, -1.0])) == pytest.approx(2.0)

    def test_difference_against_svd_oracle(self):
        rng = np.random.default_rng(14)
        for _ in range(20):
            rho = random_density(rng, 4).matrix
            psi = random_pure(rng, 4)
            diff = rho - psi.projector()
            want = float(np.linalg.svd(diff, compute_uv=False).sum())
            assert trace_norm(diff) == pytest.approx(want, abs=1e-9)


class TestFidelity:
    def test_identical_states(self):
        rng = np.random.default_rng(15)
        rho = random_density(rng, 4)
        assert fidelity(rho, rho) == pytest.approx(1.0, abs=1e-9)

    def test_mixed_vs_basis_state(self):
        ket0 = DensityMatrix(np.diag([1.0, 0.0]))
        assert fidelity(DensityMatrix.maximally_mixed(2), ket0) == pytest.approx(
            np.sqrt(0.5)
        )

    def test_symmetric(self):
        rng = np.random.default_rng(16)
        for _ in range(20):
            a = random_density(rng, 3)
            b = random_density(rng, 3)
            assert fidelity(a, b) == pytest.approx(fidelity(b, a), abs=1e-9)

    def test_pure_argument_formula(self):
        rng = np.random.default_rng(17)
        rho = random_density(rng, 4)
        psi = random_pure(rng, 4)
        overlap = float(
            np.real(np.vdot(psi.amplitudes, rho.matrix @ psi.amplitudes))
        )
        assert fidelity(rho, psi.density()) == pytest.approx(np.sqrt(overlap), abs=1e-9)

    def test_trace_norm_lower_bound(self):
        rng = np.random.default_rng(18)
        for _ in range(50):
            rho = random_density(rng, 4)
            psi = random_pure(rng, 4)
            f = fidelity(rho, psi.density())
            tnorm = trace_norm(rho.matrix - psi.projector())
            assert tnorm - (2 - 2 * f ** 2) >= -1e-10

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            fidelity(np.eye(2) / 2, np.eye(3) / 3)


class TestPurityMetrics:
    def test_pure_state(self):
        rng = np.random.default_rng(19)
        m = purity_metrics(random_pure(rng, 4).density())
        assert m.purity == pytest.approx(1.0, abs=1e-9)
        assert m.opnorm == pytest.approx(1.0, abs=1e-9)
        assert m.tdist_to_pure == pytest.approx(0.0, abs=1e-9)

    def test_maximally_mixed_qubit(self):
        m = purity_metrics(DensityMatrix.maximally_mixed(2))
        assert (m.purity, m.opnorm, m.tdist_to_pure) == pytest.approx((0.5, 0.5, 1.0))

    def test_sandwich(self):
        rng = np.random.default_rng(20)
        for _ in range(100):
            dim = int(rng.choice([2, 3, 4, 8]))
            m = purity_metrics(random_density(rng, dim))
            assert m.purity - m.opnorm ** 2 >= -1e-12
            assert m.opnorm - m.purity >= -1e-12

    def test_closest_pure_state_equivalence(self):
        # The top eigenvector achieves trace distance 2(1 - opnorm); no pure
        # state does better, so distance <= eps iff opnorm >= 1 - eps/2.
        rng = np.random.default_rng(21)
        for _ in range(50):
            rho = random_density(rng, 4)
            m = purity_metrics(rho)
            w, v = np.linalg.eigh(rho.matrix)
            top = v[:, -1]
            achieved = trace_norm(rho.matrix - np.outer(top, top.conj()))
            assert achieved == pytest.approx(m.tdist_to_pure, abs=1e-9)
            for _ in range(5):
                psi = random_pure(rng, 4)
                eps = trace_norm(rho.matrix - psi.projector())
                assert m.opnorm >= 1 - eps / 2 - 1e-9


class TestProjectors:
    def test_qubit_antisymmetric_rank_one(self):
        _, p_minus = sym_antisym_projectors(2)
        assert np.linalg.matrix_rank(p_minus) == 1

    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_subspace_dimensions(self, dim):
        p_plus, p_minus = sym_antisym_projectors(dim)
        assert round(float(np.real(np.trace(p_plus)))) == dim * (dim + 1) // 2
        assert round(float(np.real(np.trace(p_minus)))) == dim * (dim - 1) // 2

    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_projector_algebra(self, dim):
        p_plus, p_minus = sym_antisym_projectors(dim)
        eye = np.eye(dim * dim)
        for p in (p_plus, p_minus):
            assert np.abs(p - p.conj().T).max() < 1e-12
            assert np.abs(p @ p - p).max() < 1e-12
        assert np.abs(p_plus + p_minus - eye).max() < 1e-12
        assert np.abs(p_plus @ p_minus).max() < 1e-12

    def test_swap_operator_action(self):
        w = swap_operator(3)
        rng = np.random.default_rng(22)
        a = random_pure(rng, 3).amplitudes
        b = random_pure(rng, 3).amplitudes
        assert np.abs(w @ np.kron(a, b) - np.kron(b, a)).max() < 1e-12


class TestDensityMatrixValidation:
    def test_small_negative_eigenvalue_clamped(self):
        m = np.diag([1.0 + 5e-10, -5e-10]).astype(complex)
        rho = DensityMatrix(m)
        w = np.linalg.eigvalsh(rho.matrix)
        assert w.min() >= -1e-15
        assert np.trace(rho.matrix) == pytest.approx(1.0, abs=1e-12)

    def test_large_negative_eigenvalue_rejected(self):
        with pytest.raises(ValueError, match="negative eigenvalue"):
            DensityMatrix(np.diag([1.0 + 1e-6, -1e-6]))

    def test_bad_trace_rejected(self):
        with pytest.raises(ValueError, match="trace"):
            DensityMatrix(np.diag([0.6, 0.6]))

    def test_non_hermitian_rejected(self):
        with pytest.raises(ValueError, match="Hermitian"):
            DensityMatrix(np.array([[0.5, 0.1], [0.0, 0.5]]))

    def test_immutable(self):
        rho = DensityMatrix.maximally_mixed(2)
        with pytest.raises((ValueError, AttributeError)):
            rho.matrix[0, 0] = 5.0


class TestPureStateValidation:
    def test_norm_enforced(self):
        with pytest.raises(ValueError, match="norm"):
            PureState(np.array([1.0, 1.0]))

    def test_normalizes_exactly(self):
        psi = PureState(np.array([1.0, 1j]) / np.sqrt(2))
        assert np.linalg.norm(psi.amplitudes) == pytest.approx(1.0, abs=1e-15)
