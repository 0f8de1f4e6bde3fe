"""Dense complex linear algebra and purity functionals.

Conventions used across the package:

* matrices are dense row-major numpy arrays of complex dtype;
* tensor factor 0 is the leftmost slot, so ``|ij> = |i> (x) |j>`` lives at
  index ``i * d_j + j``;
* Hermitian spectra come from ``eigh``; general operators fall back to an
  SVD.

Tolerance policy: structural invariants (Hermiticity, trace, norms,
unitarity, Kraus completeness, the isometry condition) are checked at
``TOL`` = 1e-9, algebraic identities are asserted at 1e-12 in the tests,
and search outputs carry their own documented tolerances.

A matrix from outside the program is validated in full, once, where it
enters; states the program forms itself are built from a factor (see
``DensityMatrix``).
"""

from dataclasses import dataclass

import numpy as np

TOL = 1e-9


def as_matrix(x) -> np.ndarray:
    """Coerce *x* (array-like or DensityMatrix) to a complex 2-D array."""
    if isinstance(x, DensityMatrix):
        return x.matrix
    m = np.asarray(x, dtype=complex)
    if m.ndim != 2:
        raise ValueError(f"expected a matrix, got array of ndim {m.ndim}")
    return m


def is_hermitian(m) -> bool:
    m = as_matrix(m)
    if m.shape[0] != m.shape[1]:
        return False
    return float(np.abs(m - m.conj().T).max()) <= TOL


def partial_trace(m, dims, keep) -> np.ndarray:
    """Trace out all tensor factors of *m* except those listed in *keep*.

    Parameters
    ----------
    m : matrix on the full product space, row-major factor order
    dims : dimension of each tensor factor, factor 0 leftmost
    keep : indices of the factors to retain (order in the result is
        ascending regardless of the order given)
    """
    m = as_matrix(m)
    dims = [int(d) for d in dims]
    total = int(np.prod(dims)) if dims else 1
    if m.shape != (total, total):
        raise ValueError(
            f"dimension mismatch: matrix is {m.shape}, factors give {total}"
        )
    keep = sorted({int(k) for k in keep})
    if any(k < 0 or k >= len(dims) for k in keep):
        raise ValueError("factor index out of range")
    traced = [i for i in range(len(dims)) if i not in keep]
    t = m.reshape(dims + dims)
    n = len(dims)
    for idx in sorted(traced, reverse=True):
        t = np.trace(t, axis1=idx, axis2=idx + n)
        n -= 1
    d_keep = int(np.prod([dims[i] for i in keep])) if keep else 1
    return np.asarray(t, dtype=complex).reshape(d_keep, d_keep)


def operator_norm(m) -> float:
    """Largest singular value; for Hermitian input the largest |eigenvalue|."""
    m = as_matrix(m)
    if m.size == 0:
        return 0.0
    if is_hermitian(m):
        return float(np.abs(np.linalg.eigvalsh(m)).max())
    return float(np.linalg.svd(m, compute_uv=False).max())


def trace_norm(m) -> float:
    """Sum of singular values; for Hermitian input the sum of |eigenvalues|."""
    m = as_matrix(m)
    if m.size == 0:
        return 0.0
    if is_hermitian(m):
        return float(np.abs(np.linalg.eigvalsh(m)).sum())
    return float(np.linalg.svd(m, compute_uv=False).sum())


def _psd_sqrt(m: np.ndarray) -> np.ndarray:
    # Eigenvalues at the eigh noise floor are zeroed: the square root would
    # otherwise blow 1e-17 rounding up to 1e-8-scale entries.
    w, v = np.linalg.eigh(m)
    cut = 64.0 * np.finfo(float).eps * max(float(w[-1]), 0.0)
    w = np.where(w > cut, w, 0.0)
    return (v * np.sqrt(w)) @ v.conj().T


def fidelity(rho, sigma) -> float:
    """Root fidelity of two states: trace of sqrt(sqrt(rho) sigma sqrt(rho)),
    evaluated as the sum of singular values of sqrt(rho) sqrt(sigma), which
    is the same quantity and numerically stable near rank deficiency.

    Symmetric in its arguments; when one argument is a pure state
    projector this reduces to the square root of the overlap.
    """
    a = as_matrix(rho)
    b = as_matrix(sigma)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    prod = _psd_sqrt(a) @ _psd_sqrt(b)
    f = float(np.linalg.svd(prod, compute_uv=False).sum())
    return min(max(f, 0.0), 1.0)


def top_eigenpair(m) -> tuple[float, np.ndarray]:
    """Largest eigenvalue of a Hermitian matrix and its eigenvector.

    Ties between numerically equal eigenvalues resolve to the first index,
    keeping downstream searches deterministic.
    """
    w, v = np.linalg.eigh(as_matrix(m))
    idx = int(np.argmax(w))
    return float(w[idx]), v[:, idx]


@dataclass(frozen=True)
class PurityMetrics:
    """The three equivalent purity measures of a state."""

    purity: float          # tr(rho^2)
    opnorm: float          # largest eigenvalue
    tdist_to_pure: float   # trace distance to the closest pure state


def purity_metrics(rho) -> PurityMetrics:
    """Purity, largest eigenvalue, and trace distance to the closest pure
    state. The closest pure state is the top eigenvector, which gives the
    closed form ``tdist_to_pure = 2 (1 - opnorm)``."""
    m = as_matrix(rho)
    w = np.linalg.eigvalsh(m)
    top = float(w[-1])
    return PurityMetrics(
        purity=float((w * w).sum()),
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
    """Density matrix: Hermitian, positive semidefinite, unit trace, stored
    frozen. There are two ways in. The constructor validates a matrix from
    outside the program in full: it symmetrizes the input, clamps
    eigenvalues in ``[-1e-9, 0)`` to zero and renormalizes the trace;
    larger violations are rejected. ``from_factor`` builds F F* from a
    factor F, positive semidefinite by construction, and checks the trace.
    """

    __slots__ = ("matrix",)

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
        m = (v * (w / tr)) @ v.conj().T
        m = (m + m.conj().T) / 2.0
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    def __setattr__(self, name, value):
        raise AttributeError("DensityMatrix is immutable")

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @classmethod
    def from_factor(cls, f) -> "DensityMatrix":
        """F F* / |F|_F^2 for a factor F with one row per basis state; the
        squared norm |F|_F^2 = tr F F* must be within TOL of one."""
        f = np.asarray(f, dtype=complex)
        tr = float(np.vdot(f, f).real)
        if not abs(tr - 1.0) <= TOL:
            raise ValueError(f"density matrix trace {tr!r} is not 1")
        f = f / np.sqrt(tr)
        m = f @ f.conj().T
        m.setflags(write=False)
        rho = object.__new__(cls)
        object.__setattr__(rho, "matrix", m)
        return rho

    @classmethod
    def from_pure(cls, state) -> "DensityMatrix":
        state = state if isinstance(state, PureState) else PureState(state)
        return cls.from_factor(state.amplitudes[:, None])

    @classmethod
    def maximally_mixed(cls, dim: int) -> "DensityMatrix":
        return cls.from_factor(np.eye(dim, dtype=complex) / np.sqrt(dim))

    def __repr__(self):
        return f"DensityMatrix(dim={self.dim})"
