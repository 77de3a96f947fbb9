"""Dense complex matrices and the spectral checks the certificates use.

``Operator`` is the validated dense storage of a process matrix: square,
finite and read-only.  Basis ordering is row-major over the factors, the
first factor being the most significant index, matching ``numpy.kron``.
Besides the Frobenius distance, of one matrix or of each of a stack, the
module holds the two spectral checks the certificates use: the smallest
eigenvalue and the numerical rank of a Hermitian operator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Hermiticity is checked relative to the Frobenius norm.
TOL_HERM = 1e-10
RANK_TOL = 1e-10  # relative cut below which a singular value (|eigenvalue| if Hermitian) is zero


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
    """The entries of an Operator, a real floating array as float64 and
    anything else as complex, so a real symmetric matrix keeps its real
    eigensolve."""
    if isinstance(op, Operator):
        return op.entries
    m = np.asarray(op)
    return m.astype(float if m.dtype.kind == "f" else complex, copy=False)


def frobenius(a, b=None) -> float:
    """Frobenius norm of a, or of a - b when b is given: ``frobenius_each``
    of the one matrix, taken as complex."""
    m = _as_matrix(a)
    m = m if b is None else m - _as_matrix(b)
    return float(frobenius_each(m.astype(complex, copy=False)))


def frobenius_each(a, b=None) -> np.ndarray:
    """Frobenius norm of each matrix (the last two axes) of a stack a, or of
    a - b; ``b`` broadcasts.  A complex stack gives ``frobenius`` of each
    matrix bit for bit; a real one may differ from it in the last bit."""
    m = np.asarray(a) if b is None else np.asarray(a) - b
    f = m.reshape(m.shape[:-2] + (1, -1))
    re, im = f.real, f.imag
    return np.sqrt((re @ np.swapaxes(re, -1, -2) + im @ np.swapaxes(im, -1, -2))[..., 0, 0])


def is_hermitian(op) -> bool:
    m = _as_matrix(op)
    scale = max(np.linalg.norm(m), 1.0)
    return float(np.linalg.norm(m - m.conj().T)) <= TOL_HERM * scale


def _hermitian_part(op):
    m = _as_matrix(op)
    if not is_hermitian(m):
        dev = np.linalg.norm(m - m.conj().T) / max(np.linalg.norm(m), 1.0)
        raise ValueError(f"operator is not Hermitian (relative deviation {dev:.3e})")
    return (m + m.conj().T) / 2


def min_eigenvalue(op) -> float:
    """Smallest eigenvalue of a Hermitian operator."""
    return float(np.linalg.eigvalsh(_hermitian_part(op))[0])


def numerical_rank(op) -> int:
    """Number of eigenvalues with |lambda| > RANK_TOL * max|lambda| (Hermitian input)."""
    w = np.abs(np.linalg.eigvalsh(_hermitian_part(op)))
    top = w.max() if w.size else 0.0
    if top == 0.0:
        return 0
    return int(np.count_nonzero(w > RANK_TOL * top))
