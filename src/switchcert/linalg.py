"""Dense complex matrices and the spectral checks the certificates use.

``Operator`` is the validated dense matrix that ``Process.op`` builds:
square, finite and read-only.  Basis ordering is row-major over the factors, the
first factor being the most significant index, matching ``numpy.kron``.
Besides the Frobenius distance, of one matrix or of each of a stack, and
the real inner product, the module holds the two spectral checks the
certificates use: the smallest eigenvalue and the numerical rank of a
Hermitian operator.

Every norm and inner product of the package is summed here, one way: by
``np.einsum`` on one thread over the array's float view.  A BLAS product
splits such a sum by its thread count, and the reports would depend on it.
"""

from __future__ import annotations

import math
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


def frobenius(a, b=None, *, weights=None) -> float:
    """Frobenius norm of a, or of a - b when b is given: ``frobenius_each``
    of the one matrix, or with ``weights`` the root of ``real_dot`` of it
    with itself."""
    m = _as_matrix(a)
    m = m if b is None else m - _as_matrix(b)
    return float(frobenius_each(m)) if weights is None else math.sqrt(real_dot(m, m, weights))


def frobenius_each(a, b=None) -> np.ndarray:
    """Frobenius norm of each matrix (the last two axes) of a stack a, or of
    a - b; ``b`` broadcasts, and a 1-D array is one matrix."""
    m = np.asarray(a) if b is None else np.asarray(a) - b
    m = m.reshape(m.shape[:-2] + (-1,)) if m.ndim > 1 else m
    v = np.ascontiguousarray(m, dtype=complex if np.iscomplexobj(m) else float).view(float)
    return np.sqrt(np.einsum("...i,...i->...", v, v))


def real_dot(a: np.ndarray, b: np.ndarray, weights=None) -> float:
    """Re<a, b> of two float64 or complex128 arrays of one size, or with
    ``weights`` of two float64 vectors, each coordinate's product counted
    ``weights`` times: for vectors of orbit coordinates and the orbit sizes,
    the inner product of the matrices they store."""
    a, b = np.ravel(a).view(float), np.ravel(b).view(float)
    if weights is None:
        return float(np.einsum("i,i->", a, b))
    return float(np.einsum("i,i,i->", weights, a, b))


def _hermitian_part(op):
    """The Hermitian part of a matrix or of each of a stack, each checked."""
    m = _as_matrix(op)
    mh = np.swapaxes(m.conj(), -1, -2)
    dev = frobenius_each(m, mh) / np.maximum(frobenius_each(m), 1.0)
    if not (dev <= TOL_HERM).all():  # a NaN deviation raises too
        raise ValueError(f"operator is not Hermitian (relative deviation {np.max(dev):.3e})")
    return (m + mh) / 2


def min_eigenvalue(op) -> float:
    """Smallest eigenvalue of a Hermitian operator or stack (..., k, k) of them."""
    return float(np.linalg.eigvalsh(_hermitian_part(op))[..., 0].min())


def numerical_rank(op) -> int:
    """Number of eigenvalues with |lambda| > RANK_TOL * max|lambda| (Hermitian input)."""
    w = np.abs(np.linalg.eigvalsh(_hermitian_part(op)))
    top = w.max() if w.size else 0.0
    if top == 0.0:
        return 0
    return int(np.count_nonzero(w > RANK_TOL * top))
