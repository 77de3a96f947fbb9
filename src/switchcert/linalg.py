"""Dense complex matrices and the spectral checks the certificates use.

``Operator`` is the validated dense storage of a process matrix: square,
finite and read-only.  Basis ordering is row-major over the factors, the
first factor being the most significant index, matching ``numpy.kron``.
Besides the Frobenius distance the module holds the two spectral checks the
certificates use: the smallest eigenvalue and the numerical rank of a
Hermitian operator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Hermiticity is checked relative to the Frobenius norm.
TOL_HERM = 1e-10


@dataclass(frozen=True)
class Operator:
    """Square, finite, read-only complex matrix."""

    entries: np.ndarray

    def __post_init__(self):
        arr = np.array(self.entries, dtype=np.complex128, copy=True, order="C")
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError(f"operator entries must be a square matrix, got {arr.shape}")
        if not np.all(np.isfinite(arr.real)) or not np.all(np.isfinite(arr.imag)):
            raise ValueError("operator entries must be finite")
        arr.flags.writeable = False
        object.__setattr__(self, "entries", arr)


def _as_matrix(op) -> np.ndarray:
    return op.entries if isinstance(op, Operator) else np.asarray(op, dtype=complex)


def frobenius(a, b=None) -> float:
    """Frobenius norm of a, or of a - b when b is given."""
    m = _as_matrix(a)
    if b is not None:
        m = m - _as_matrix(b)
    return float(np.linalg.norm(m))


def is_hermitian(op, tol: float = TOL_HERM) -> bool:
    m = _as_matrix(op)
    scale = max(np.linalg.norm(m), 1.0)
    return float(np.linalg.norm(m - m.conj().T)) <= tol * scale


def _hermitian_part(op, tol: float):
    m = _as_matrix(op)
    if not is_hermitian(m, tol):
        dev = np.linalg.norm(m - m.conj().T) / max(np.linalg.norm(m), 1.0)
        raise ValueError(f"operator is not Hermitian (relative deviation {dev:.3e})")
    return (m + m.conj().T) / 2


def min_eigenvalue(op, tol_herm: float = TOL_HERM) -> float:
    """Smallest eigenvalue of a Hermitian operator."""
    h = _hermitian_part(op, tol_herm)
    return float(np.linalg.eigvalsh(h)[0])


def numerical_rank(op, tol: float = 1e-10, tol_herm: float = TOL_HERM) -> int:
    """Number of eigenvalues with |lambda| > tol * max|lambda| (Hermitian input)."""
    h = _hermitian_part(op, tol_herm)
    w = np.abs(np.linalg.eigvalsh(h))
    top = w.max() if w.size else 0.0
    if top == 0.0:
        return 0
    return int(np.count_nonzero(w > tol * top))
