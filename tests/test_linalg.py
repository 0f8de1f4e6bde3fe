import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    partial_trace_oracle,
    power_iteration_opnorm,
    random_density,
    random_hermitian,
    random_pure,
    random_unitary,
    swap_operator,
    sym_antisym_projectors,
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
    top_eigenpair,
    trace_norm,
)
from isolab.protocol import _project, _swap_probabilities


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


def spectral_matrix(rng, n, psd, spread, top=(1.0,)):
    """U diag(lam) U* for a Haar U and lam the eigenvalues *top* followed by
    n - len(top) drawn from [0, spread] when *psd*, else [-spread, spread].
    Returns the matrix, U and lam."""
    lam = np.concatenate([top, rng.uniform(0.0 if psd else -spread, spread, size=n - len(top))])
    u = random_unitary(rng, n)
    return with_eigenpairs(u, lam), u, lam


def with_eigenpairs(u, lam):
    m = (u * lam) @ u.conj().T
    return (m + m.conj().T) / 2.0


def random_vector(rng, n):
    return rng.normal(size=n) + 1j * rng.normal(size=n)


WARM_MATRICES = dict(
    seed=st.integers(0, 2 ** 32 - 1),
    n=st.integers(17, 80),
    psd=st.booleans(),
    # Small spreads leave the top eigenvalue dominant, where the warm
    # start is certified; large ones send most calls to eigh.
    spread=st.one_of(st.floats(0.0, 0.05), st.floats(0.05, 0.99)),
)


class TestTopEigenpair:
    """top_eigenpair with a warm start against eigh's top pair, at the
    sizes where the warm start is tried."""

    @staticmethod
    def check(m, start):
        w, _ = np.linalg.eigh(m)
        fro = np.linalg.norm(m)
        val, vec = top_eigenpair(m, start)
        assert abs(val - w[-1]) <= 1e-12 * fro
        assert abs(np.linalg.norm(vec) - 1.0) <= 1e-12
        assert np.linalg.norm(m @ vec - val * vec) <= 1e-11 * fro

    @settings(max_examples=60)
    @given(**WARM_MATRICES, noise=st.floats(1e-9, 0.5))
    def test_start_near_top(self, seed, n, psd, spread, noise):
        rng = np.random.default_rng(seed)
        m, u, _ = spectral_matrix(rng, n, psd, spread)
        self.check(m, u[:, 0] + noise * random_vector(rng, n) / np.sqrt(n))

    @settings(max_examples=40)
    @given(**WARM_MATRICES)
    def test_start_orthogonal_to_top(self, seed, n, psd, spread):
        rng = np.random.default_rng(seed)
        m, u, _ = spectral_matrix(rng, n, psd, spread)
        x = random_vector(rng, n)
        self.check(m, x - np.vdot(u[:, 0], x) * u[:, 0])

    @settings(max_examples=40)
    @given(**WARM_MATRICES, multiplicity=st.integers(2, 3), noise=st.sampled_from([0.0, 1e-6, 1e-2]))
    def test_degenerate_top_reaches_eigh(self, seed, n, psd, spread, multiplicity, noise):
        rng = np.random.default_rng(seed)
        m, u, _ = spectral_matrix(rng, n, psd, spread, top=(1.0,) * multiplicity)
        start = u[:, :multiplicity] @ random_vector(rng, multiplicity) + noise * random_vector(rng, n)
        w, v = np.linalg.eigh(m)
        idx = int(np.argmax(w))
        val, vec = top_eigenpair(m, start)
        assert val == w[idx]
        assert np.array_equal(vec, v[:, idx])

    def test_bare_tie_never_certified(self, ritz_answers):
        # A top pair tied with nothing else left: |m|_F^2 = 2 lo^2 up to
        # rounding, so only the rounding margin keeps the certificate out.
        rng = np.random.default_rng(33)
        for _ in range(300):
            n = int(rng.integers(17, 40))
            m, u, _ = spectral_matrix(rng, n, True, 0.0, top=(1.0, 1.0))
            top_eigenpair(m, u[:, :2] @ random_vector(rng, 2))
        assert ritz_answers == [False] * 300

    @settings(max_examples=40)
    @given(**WARM_MATRICES, gap=st.floats(1e-6, 0.5), turn=st.floats(0.0, 0.1))
    def test_previous_top_across_a_crossing(self, seed, n, psd, spread, gap, turn):
        # The top two eigenvalues swap, and the eigenvectors turn a little:
        # the start is the old top eigenvector, now nearly the second.
        rng = np.random.default_rng(seed)
        before, u, lam = spectral_matrix(rng, n, psd, spread, top=(1.0, 1.0 - gap))
        turned = u @ np.linalg.qr(np.eye(n) + turn * random_vector(rng, n * n).reshape(n, n))[0]
        after = with_eigenpairs(turned, np.concatenate([lam[1::-1], lam[2:]]))
        self.check(after, np.linalg.eigh(before)[1][:, -1])

    def test_dominant_negative_eigenvalue_is_not_the_top(self, ritz_answers):
        # Started on the eigenvector of -1.01, the Ritz pair is exact and
        # dominates |m|_F, but the top eigenvalue is -0.01.
        rng = np.random.default_rng(34)
        m, u, _ = spectral_matrix(rng, 40, True, 0.0, top=(-1.0,))
        m = m - 0.01 * np.eye(40)
        self.check(m, u[:, 0])
        assert ritz_answers == [False]

    def test_well_separated_top_answers_without_eigh(self, ritz_answers):
        rng = np.random.default_rng(31)
        m, u, _ = spectral_matrix(rng, 64, True, 0.01)
        self.check(m, u[:, 0] + 1e-3 * random_vector(rng, 64))
        assert ritz_answers == [True]

    @pytest.mark.parametrize("n, warm", [(8, True), (16, True), (40, False)])
    def test_cold_calls_are_eigh(self, ritz_answers, n, warm):
        # Without a start, or at 16 x 16 and below, the pair is eigh's
        # first-index top pair, bit for bit.
        rng = np.random.default_rng(32)
        m = random_hermitian(rng, n)
        w, v = np.linalg.eigh(m)
        idx = int(np.argmax(w))
        val, vec = top_eigenpair(m, random_vector(rng, n) if warm else None)
        assert val == w[idx]
        assert np.array_equal(vec, v[:, idx])
        assert ritz_answers == []


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
    """The protocol's matrix-free swap test against the explicit swap
    operator and projectors of the oracle."""

    def test_qubit_antisymmetric_rank_one(self):
        _, p_minus = sym_antisym_projectors(2)
        got = _project(np.eye(4, dtype=complex), 2, -1.0)
        assert np.abs(got - p_minus).max() < 1e-12
        assert np.linalg.matrix_rank(got) == 1

    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_subspace_dimensions(self, dim):
        p_sym, p_anti = _swap_probabilities(np.eye(dim * dim, dtype=complex) / dim ** 2, dim)
        assert p_sym * dim ** 2 == pytest.approx(dim * (dim + 1) // 2, abs=1e-12)
        assert p_anti * dim ** 2 == pytest.approx(dim * (dim - 1) // 2, abs=1e-12)

    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_projector_algebra(self, dim):
        p_plus, p_minus = sym_antisym_projectors(dim)
        rng = np.random.default_rng(20 + dim)
        dd = dim * dim
        m = rng.normal(size=(dd, dd)) + 1j * rng.normal(size=(dd, dd))
        plus, minus = _project(m, dim, 1.0), _project(m, dim, -1.0)
        assert np.abs(plus - p_plus @ m @ p_plus).max() < 1e-12
        assert np.abs(minus - p_minus @ m @ p_minus).max() < 1e-12
        assert np.abs(_project(plus, dim, 1.0) - plus).max() < 1e-12
        assert np.abs(_project(plus, dim, -1.0)).max() < 1e-12
        rho = random_density(rng, dd).matrix
        p_sym, p_anti = _swap_probabilities(rho, dim)
        assert p_sym == pytest.approx(float(np.real(np.trace(p_plus @ rho))), abs=1e-12)
        assert p_anti == pytest.approx(float(np.real(np.trace(p_minus @ rho))), abs=1e-12)

    def test_swap_operator_action(self):
        w = swap_operator(3)
        rng = np.random.default_rng(22)
        a = random_pure(rng, 3).amplitudes
        b = random_pure(rng, 3).amplitudes
        assert np.abs(w @ np.kron(a, b) - np.kron(b, a)).max() < 1e-12
        ab = np.outer(np.kron(a, b), np.kron(a, b).conj())
        assert _swap_probabilities(ab, 3)[1] == pytest.approx(
            (1 - abs(np.vdot(a, b)) ** 2) / 2, abs=1e-12
        )


class TestFromFactor:
    @settings(max_examples=60)
    @given(
        seed=st.integers(0, 2 ** 32 - 1),
        dim=st.integers(2, 8),
        width=st.sampled_from(["k < D", "k = D", "k > D"]),
    )
    def test_matches_full_validation(self, seed, dim, width):
        rng = np.random.default_rng(seed)
        k = {"k < D": int(rng.integers(1, dim)), "k = D": dim, "k > D": int(rng.integers(dim + 1, 2 * dim + 1))}[width]
        f = rng.normal(size=(dim, k)) + 1j * rng.normal(size=(dim, k))
        f /= np.linalg.norm(f)
        rho = DensityMatrix.from_factor(f)
        assert np.abs(rho.matrix - DensityMatrix(f @ f.conj().T).matrix).max() <= 1e-12
        assert np.abs(rho.matrix - rho.matrix.conj().T).max() <= 1e-14
        assert not rho.matrix.flags.writeable
        with pytest.raises(ValueError):
            rho.matrix[0, 0] = 0.0
        with pytest.raises(ValueError, match="trace"):
            DensityMatrix.from_factor(f * np.sqrt(1.0 + 1e-6))
        bad = f.copy()
        bad[int(rng.integers(dim)), int(rng.integers(k))] = np.nan
        with pytest.raises(ValueError, match="trace"):
            DensityMatrix.from_factor(bad)

    def test_infinite_entry_rejected(self):
        f = np.array([[np.inf], [0.0]])
        with pytest.raises(ValueError, match="trace"):
            DensityMatrix.from_factor(f)

    def test_skips_full_validation(self, full_validations):
        rng = np.random.default_rng(23)
        DensityMatrix.from_pure(random_pure(rng, 4))
        DensityMatrix.maximally_mixed(4)
        random_pure(rng, 4).density()
        assert full_validations == []


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
