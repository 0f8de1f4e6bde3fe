"""Dense complex linear algebra and purity functionals.

Conventions used across the package:

* matrices are dense row-major numpy arrays of complex dtype;
* tensor factor 0 is the leftmost slot, so ``|ij> = |i> (x) |j>`` lives at
  index ``i * d_j + j``;
* Hermitian spectra come from ``eigh``, norms from an SVD.

Tolerance policy: structural invariants (Hermiticity, trace, norms,
unitarity, Kraus completeness, the isometry condition) are checked at
``TOL`` = 1e-9, and algebraic identities are asserted at 1e-12 in the
tests. ``channels`` keeps the Kraus rank cut ``RANK_TOL`` = 1e-7 and,
beside it, the mixing search's constants ``SEARCH_*``: gain floor 1e-10,
squared-gradient floor 1e-20, Armijo constant 1e-4, 400 steps and a
quasi-Newton memory of 8; the search stops restarting once its best value
is within ``CERT_TOL`` = 1e-6 of its certified lower bound, whose
eigvalsh gives up d_in machine epsilons of the matrix's norm for rounding.
A warm-started top eigenpair must reach a residual of ``RITZ_TOL`` = 1e-12
relative to the Frobenius norm before it stands in for ``eigh``. The eigh noise floor ``_NOISE_FLOOR`` is 64
machine epsilons of the largest eigenvalue: the ``DensityMatrix``
constructor drops the eigenpairs at or below it from the factor it keeps,
and ``channels._isometry`` drops the environment directions at or below it.
The other cuts and slacks:

* ``protocol.PROB_FLOOR`` = 1e-12 is the outcome probability below which
  a swap test gives no post-state and the protocol stops after step 1;
* ``protocol.BOUNDS_SLACK`` = 1e-6 is the slack of both
  ``check_protocol_bounds`` checks;
* ``reduction.REDUCTION_SLACK`` = 1e-3 is the slack of ``check_reduction``;
* ``channels.NEAR_ISOMETRY_PROBE_FLOOR`` = 0.5: ``extract_approx_isometry``
  refuses a channel when the top eigenvalue of a basis probe's output, or
  of its Choi matrix, falls below it, and when the Choi top is degenerate
  to within ``_NOISE_FLOOR`` of it;
* ``channels.MAX_SEARCH_DIM_IN`` = 16 is the largest input dimension the
  mixing search accepts;
* ``channels._descend_opnorm`` ends a restart once its backtracked step
  falls to 1e-16 without passing the Armijo test;
* ``protocol.symmetric_witness_family`` redraws a symmetrized random
  vector whose norm is below 1e-8.

A matrix from outside the program is validated in full, once, where it
enters; states the program forms itself are built from a factor (see
``DensityMatrix``).
"""

from dataclasses import dataclass

import numpy as np

TOL = 1e-9
# Largest residual |m u - theta u| / |m|_F at which a warm-started Ritz
# pair answers for eigh (see top_eigenpair).
RITZ_TOL = 1e-12
_KRYLOV_MIN_DIM = 16
_KRYLOV_VECTORS = 8
_EPS = float(np.finfo(float).eps)
# Eigenvalues of a PSD matrix at or below this multiple of the largest are
# eigh rounding.
_NOISE_FLOOR = 64.0 * _EPS


def as_matrix(x) -> np.ndarray:
    """Coerce *x* (array-like or DensityMatrix) to a complex 2-D array."""
    if isinstance(x, DensityMatrix):
        return x.matrix
    m = np.asarray(x, dtype=complex)
    if m.ndim != 2:
        raise ValueError(f"expected a matrix, got array of ndim {m.ndim}")
    return m


def operator_norm(m) -> float:
    """Largest singular value."""
    m = as_matrix(m)
    if m.size == 0:
        return 0.0
    return float(np.linalg.svd(m, compute_uv=False).max())


def trace_norm(m) -> float:
    """Sum of singular values."""
    m = as_matrix(m)
    if m.size == 0:
        return 0.0
    return float(np.linalg.svd(m, compute_uv=False).sum())


def _clamp01(x: float) -> float:
    return min(max(x, 0.0), 1.0)


def _as_density(x) -> "DensityMatrix":
    """*x* as a DensityMatrix; an array is validated in full."""
    return x if isinstance(x, DensityMatrix) else DensityMatrix(x)


def fidelity(rho, sigma) -> float:
    """Root fidelity of two states: trace of sqrt(sqrt(rho) sigma sqrt(rho)),
    evaluated as the sum of singular values of A* B for the factors
    rho = A A* and sigma = B B*, which is the same quantity and
    numerically stable near rank deficiency. An array is validated in full.

    Symmetric in its arguments; when one argument is a pure state
    projector this reduces to the square root of the overlap.
    """
    a = _as_density(rho)
    b = _as_density(sigma)
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    return _clamp01(float(np.linalg.svd(a.factor.conj().T @ b.factor, compute_uv=False).sum()))


def top_eigenpair(m, start=None, return_certified=False) -> tuple:
    """Largest eigenvalue of a Hermitian matrix and its eigenvector.

    Given a *start* vector near the top eigenvector and a matrix larger
    than 16 x 16, a short Lanczos run from *start* answers instead of a
    full ``eigh`` whenever its top Ritz pair is certified: the residual is
    within ``RITZ_TOL`` and a moment bound shows that no other eigenvalue
    comes near the Ritz value. Otherwise, and always without *start*,
    ``eigh`` answers, and ties between numerically equal eigenvalues
    resolve to the first index, keeping downstream searches deterministic.
    A degenerate top eigenvalue is never certified. With
    *return_certified*, a third value says whether the Lanczos pair
    answered.
    """
    m = as_matrix(m)
    pair = None
    if start is not None and m.shape[0] > _KRYLOV_MIN_DIM:
        pair = _certified_ritz_pair(m, np.asarray(start, dtype=complex))
    certified = pair is not None
    if not certified:
        w, v = np.linalg.eigh(m)
        idx = int(np.argmax(w))
        pair = float(w[idx]), v[:, idx]
    return (*pair, certified) if return_certified else pair


def _certified_ritz_pair(m: np.ndarray, start: np.ndarray):
    """Top Ritz pair of Hermitian *m* over the Krylov space of *start*, or
    None unless it is certified.

    The space grows by Lanczos steps, each new vector orthogonalized in
    full against all earlier ones, until the Lanczos estimate of the
    residual is met or it holds ``_KRYLOV_VECTORS`` vectors. The Ritz pair
    is then checked directly. With r the residual |m u - theta u| and
    lo = theta - r less a rounding margin, some eigenvalue lies in
    [lo, theta + r]. For lo > 0 it is the largest, and simple, when no two
    eigenvalues can reach lo in magnitude: 2 lo^2 > |m|_F^2 = sum lambda^2,
    or failing that 2 lo^4 > |m m|_F^2 = sum lambda^4.
    """
    n = m.shape[0]
    fro2 = float(np.vdot(m, m).real)
    norm = float(np.linalg.norm(start))
    if not (norm > 0.0 and np.isfinite(norm) and np.isfinite(fro2)):
        return None
    fro = np.sqrt(fro2)
    q = np.empty((_KRYLOV_VECTORS, n), dtype=complex)
    mq = np.empty_like(q)
    t = np.zeros((_KRYLOV_VECTORS, _KRYLOV_VECTORS))  # the tridiagonal q* m q
    q[0] = start / norm
    for k in range(1, _KRYLOV_VECTORS + 1):
        mq[k - 1] = m @ q[k - 1]
        t[k - 1, k - 1] = np.vdot(q[k - 1], mq[k - 1]).real
        z = mq[k - 1]
        for _ in range(2):  # classical Gram-Schmidt, twice
            z = z - (q[:k].conj() @ z) @ q[:k]
        beta = float(np.linalg.norm(z))
        # Stop at the last vector, or where the space is invariant under m.
        done = k == _KRYLOV_VECTORS or beta <= n * _EPS * fro
        if done or k >= 3:
            w, y = np.linalg.eigh(t[:k, :k])
            # beta |y_k| estimates the residual of the top Ritz pair.
            if done or beta * abs(y[-1, -1]) <= 0.5 * RITZ_TOL * fro:
                break
        q[k] = z / beta
        t[k - 1, k] = t[k, k - 1] = beta
    theta, y = float(w[-1]), y[:, -1]
    u = y @ q[:k]
    r = float(np.linalg.norm(y @ mq[:k] - theta * u))
    if r > RITZ_TOL * fro:
        return None
    lo = theta - r - n * _EPS * fro
    if lo <= 0.0:
        return None
    if 2.0 * lo * lo <= fro2:
        mm = m @ m
        if 2.0 * lo ** 4 <= float(np.vdot(mm, mm).real):
            return None
    return theta, u / np.linalg.norm(u)


@dataclass(frozen=True)
class PurityMetrics:
    """The three equivalent purity measures of a state."""

    purity: float          # tr(rho^2)
    opnorm: float          # largest eigenvalue
    tdist_to_pure: float   # trace distance to the closest pure state


def purity_metrics(rho) -> PurityMetrics:
    """Purity, largest eigenvalue, and trace distance to the closest pure
    state, read off the nonzero spectrum of rho = F F*, that of F* F; an
    array is validated in full. The closest pure state is the top
    eigenvector, which gives the closed form ``tdist_to_pure = 2 (1 -
    opnorm)``. Both eigenvalue sums are clamped to [0, 1] against rounding."""
    f = _as_density(rho).factor
    w = np.linalg.eigvalsh(f.conj().T @ f)
    top = _clamp01(float(w[-1]))
    return PurityMetrics(
        purity=_clamp01(float((w * w).sum())),
        opnorm=top,
        tdist_to_pure=2.0 * (1.0 - top),
    )


def maximally_entangled_state(dim: int) -> "PureState":
    """The state sum_i |ii> / sqrt(dim) on two *dim*-dimensional factors."""
    return PureState(np.eye(dim, dtype=complex).reshape(-1) / np.sqrt(dim))


class PureState:
    """Unit vector in a finite-dimensional complex space.

    The norm must be within 1e-9 of one; the stored amplitudes are
    normalized exactly and frozen.
    """

    __slots__ = ("amplitudes",)

    def __init__(self, amplitudes):
        v = np.asarray(amplitudes, dtype=complex).reshape(-1)
        if v.size == 0:
            raise ValueError("state vector must be non-empty")
        if not np.all(np.isfinite(v)):
            raise ValueError("state vector entries must be finite")
        n = float(np.linalg.norm(v))
        if abs(n - 1.0) > TOL:
            raise ValueError(f"state vector norm {n!r} is not 1")
        v = v / n
        v.setflags(write=False)
        object.__setattr__(self, "amplitudes", v)

    def __setattr__(self, name, value):
        raise AttributeError("PureState is immutable")

    @property
    def dim(self) -> int:
        return self.amplitudes.shape[0]

    def projector(self) -> np.ndarray:
        return np.outer(self.amplitudes, self.amplitudes.conj())

    def density(self) -> "DensityMatrix":
        return DensityMatrix.from_pure(self)

    def __repr__(self):
        return f"PureState(dim={self.dim})"


class DensityMatrix:
    """Density matrix rho = F F*, stored frozen as its factor F, one row per
    basis state; ``matrix`` forms F F* when read. There are two ways in.
    The constructor validates a matrix from outside the program in full:
    it symmetrizes the input, clamps eigenvalues in ``[-1e-9, 0)`` to zero,
    renormalizes the trace and keeps v sqrt(w) for the eigenpairs (w, v)
    above ``_NOISE_FLOOR``; larger violations are rejected. ``from_factor``
    keeps a factor, positive semidefinite by construction, once its trace
    is checked.
    """

    __slots__ = ("factor",)

    def __init__(self, matrix):
        m = np.asarray(as_matrix(matrix), dtype=complex)
        if m.shape[0] != m.shape[1]:
            raise ValueError("density matrix must be square")
        if not np.all(np.isfinite(m)):
            raise ValueError("density matrix entries must be finite")
        dev = float(np.abs(m - m.conj().T).max())
        if dev > TOL:
            raise ValueError(f"density matrix is not Hermitian (deviation {dev:.3e})")
        m = (m + m.conj().T) / 2.0
        w, v = np.linalg.eigh(m)
        if float(w.min()) < -TOL:
            raise ValueError(f"density matrix has negative eigenvalue {float(w.min()):.3e}")
        w = np.clip(w, 0.0, None)
        tr = float(w.sum())
        if abs(tr - 1.0) > TOL:
            raise ValueError(f"density matrix trace {tr!r} is not 1")
        # A square root would blow 1e-17 rounding up to 3e-9-scale columns.
        keep = w > _NOISE_FLOOR * float(w[-1])
        f = v[:, keep] * np.sqrt(w[keep] / tr)
        f.setflags(write=False)
        object.__setattr__(self, "factor", f)

    def __setattr__(self, name, value):
        raise AttributeError("DensityMatrix is immutable")

    @property
    def dim(self) -> int:
        return self.factor.shape[0]

    @property
    def matrix(self) -> np.ndarray:
        """F F*, formed anew on each read, read-only."""
        m = self.factor @ self.factor.conj().T
        m.setflags(write=False)
        return m

    @classmethod
    def from_factor(cls, f) -> "DensityMatrix":
        """The state F F* / |F|_F^2, kept as F / |F|_F; the squared norm
        |F|_F^2 = tr F F* must be within TOL of one."""
        f = np.asarray(f, dtype=complex)
        tr = float(np.vdot(f, f).real)
        if not abs(tr - 1.0) <= TOL:
            raise ValueError(f"density matrix trace {tr!r} is not 1")
        f = f / np.sqrt(tr)
        f.setflags(write=False)
        rho = object.__new__(cls)
        object.__setattr__(rho, "factor", f)
        return rho

    @classmethod
    def from_pure(cls, state) -> "DensityMatrix":
        state = state if isinstance(state, PureState) else PureState(state)
        return cls.from_factor(state.amplitudes[:, None])

    def __repr__(self):
        return f"DensityMatrix(dim={self.dim})"
