"""Channels as Choi matrices: standard channels, composition, Haar sampling.

A channel is given either by Kraus operators (the standard channels are
built that way) or by its Choi matrix, a plain complex array; ``choi_from_kraus``
turns the first into the second, and every computation here and in ``switch``
runs on Choi matrices.  They follow the unnormalized convention ``J = sum_ij
|i><j| (x) Lambda(|i><j|)`` on I (x) O, so a trace-preserving channel on ``C^d``
has ``Tr J = d`` and the Choi matrix of a unitary channel has entries built
from plain products of matrix elements (0/1 patterns for permutation-like
unitaries).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt

import numpy as np

from .linalg import frobenius

PAULI = {
    "i": np.eye(2, dtype=complex),
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
}


@dataclass(frozen=True)
class KrausChannel:
    """Completely positive map given by Kraus operators K_i: C^din -> C^dout."""

    dim_in: int
    dim_out: int
    kraus: tuple[np.ndarray, ...]

    def __post_init__(self):
        if not self.kraus:
            raise ValueError("a KrausChannel needs at least one Kraus operator")
        ops = []
        for k in self.kraus:
            arr = np.array(k, dtype=complex, copy=True)
            if arr.shape != (self.dim_out, self.dim_in):
                raise ValueError(
                    f"Kraus operator shape {arr.shape} does not match "
                    f"({self.dim_out}, {self.dim_in})")
            arr.flags.writeable = False
            ops.append(arr)
        object.__setattr__(self, "kraus", tuple(ops))


def choi_from_kraus(ch: KrausChannel) -> np.ndarray:
    """J = sum_k |Phi_k><Phi_k| with Phi_k = (I (x) K_k) |I>>."""
    j = np.zeros((ch.dim_in * ch.dim_out,) * 2, dtype=complex)
    for k in ch.kraus:
        phi = k.T.reshape(-1)  # phi[(i, a)] = K[a, i]
        j += np.outer(phi, phi.conj())
    return j


def compose_channels(second: np.ndarray, first: np.ndarray) -> np.ndarray:
    """Choi matrix of ``second . first`` (first acts first) for channels on C^d."""
    a, b = np.asarray(first), np.asarray(second)
    d = isqrt(a.shape[0])
    if not a.shape == b.shape == (d * d, d * d):
        raise ValueError(f"cannot compose Choi matrices of shapes {b.shape} and {a.shape}")
    # a channel's output on rho is Tr_I[J (rho^t (x) 1_O)]
    a4 = a.reshape(d, d, d, d)
    b4 = b.reshape(d, d, d, d)
    j = np.zeros((d * d,) * 2, dtype=complex)
    basis = np.eye(d)
    for i in range(d):
        for k in range(d):
            e = np.outer(basis[i], basis[k])
            mid = np.einsum("iakb,ik->ab", a4, e)
            j += np.kron(e, np.einsum("iakb,ik->ab", b4, mid))
    return j


def unitary_choi(u: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    """Rank-1 Choi matrix of the unitary channel rho -> U rho U^dag."""
    u = np.asarray(u, dtype=complex)
    d = u.shape[0]
    # written so that a NaN deviation fails the test
    if u.shape != (d, d) or not frobenius(u.conj().T @ u, np.eye(d)) <= tol:
        raise ValueError("input is not unitary within tolerance")
    phi = u.T.reshape(-1)
    return np.outer(phi, phi.conj())


def haar_random_unitaries(d: int, n: int, seed) -> np.ndarray:
    """n Haar-distributed d x d unitaries, stacked, via QR of complex Ginibre matrices.

    ``seed`` may be an integer or a ``numpy.random.Generator``.  The draws and
    the generator's final state match n successive ``haar_random_unitary``
    calls bit-for-bit: each unitary takes its real part and then its
    imaginary part from the stream, and the QR runs matrix by matrix.
    """
    if d < 1:
        raise ValueError("dimension must be >= 1")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    g = rng.standard_normal((n, 2, d, d))
    q, r = np.linalg.qr((g[:, 0] + 1j * g[:, 1]) / np.sqrt(2))
    ph = np.diagonal(r, axis1=1, axis2=2).copy()
    ph /= np.abs(ph)
    return q * ph[:, None, :]


def haar_random_unitary(d: int, seed) -> np.ndarray:
    """One Haar-distributed unitary: the n = 1 case of ``haar_random_unitaries``.

    An integer seed makes the draw reproducible bit-for-bit.
    """
    return haar_random_unitaries(d, 1, seed)[0]


def fourier_matrix(d: int) -> np.ndarray:
    w = np.exp(2j * np.pi / d)
    jk = np.outer(np.arange(d), np.arange(d))
    return w ** jk / np.sqrt(d)


def standard_channel(kind: str, d: int) -> KrausChannel:
    """Named channel constructors used throughout the verification suites.

    Kinds: ``identity``, ``depolarizing`` (rho -> I/d Tr rho), ``replace_zero``
    (rho -> |0><0| Tr rho), ``fourier_unitary``, and ``pauli_x|y|z`` (d = 2).
    """
    if d < 1:
        raise ValueError("dimension must be >= 1")
    eye = np.eye(d, dtype=complex)
    if kind == "identity":
        return KrausChannel(d, d, (eye,))
    if kind == "depolarizing":
        ops = tuple(np.outer(eye[:, i], eye[:, j]) / np.sqrt(d)
                    for i in range(d) for j in range(d))
        return KrausChannel(d, d, ops)
    if kind == "replace_zero":
        ops = tuple(np.outer(eye[:, 0], eye[:, i]) for i in range(d))
        return KrausChannel(d, d, ops)
    if kind == "fourier_unitary":
        return KrausChannel(d, d, (fourier_matrix(d),))
    if kind in ("pauli_x", "pauli_y", "pauli_z"):
        if d != 2:
            raise ValueError(f"{kind} requires d = 2, got d = {d}")
        return KrausChannel(2, 2, (PAULI[kind[-1]],))
    raise ValueError(f"unknown channel kind {kind!r}")


def flip_operator(d: int) -> np.ndarray:
    """Swap operator F on C^d (x) C^d: F |psi phi> = |phi psi>."""
    if d < 1:
        raise ValueError("dimension must be >= 1")
    # F[(a, b), (c, e)] = delta_ae delta_bc: the identity with the row pair swapped
    return np.eye(d * d, dtype=complex).reshape(d, d, d * d).transpose(1, 0, 2).reshape(d * d, -1)
