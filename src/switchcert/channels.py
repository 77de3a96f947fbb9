"""Channels as Choi matrices: standard channels, composition, Haar sampling,
and the one seeded stream every sample of the package is drawn from.

A channel is given either by its Kraus operators, a plain (r, d_out, d_in)
stack (the standard channels are built that way), or by its Choi matrix, a
plain complex array.  ``choi_from_kraus`` turns the first into the second,
and ``switch.unitary_actions`` takes the stack as it is.  Choi matrices
follow the unnormalized convention ``J = sum_ij
|i><j| (x) Lambda(|i><j|)`` on I (x) O, so a trace-preserving channel on ``C^d``
has ``Tr J = d`` and the Choi matrix of a unitary channel has entries built
from plain products of matrix elements (0/1 patterns for permutation-like
unitaries).
"""

from __future__ import annotations

import operator
import random
from math import isqrt

import numpy as np

from .linalg import frobenius_each

PAULI = {
    "i": np.eye(2, dtype=complex),
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
}
UNITARY_TOL = 1e-10  # bound on ||U^dag U - 1||_F for the input of ``unitary_choi``
STREAM_BLOCK = 1 << 15  # 64-bit words ``SampleStream.normal`` reads and converts at a time


def choi_from_kraus(ks) -> np.ndarray:
    """J = sum_k |Phi_k><Phi_k| with Phi_k = (I (x) K_k) |I>>, for a stack
    of Kraus operators K_k: C^din -> C^dout of shape (r, dout, din)."""
    ks = np.asarray(ks, dtype=complex)
    if ks.ndim != 3 or not len(ks):
        raise ValueError(f"Kraus operators must be a non-empty (r, d_out, d_in) stack, "
                         f"not of shape {ks.shape}")
    j = np.zeros((ks.shape[1] * ks.shape[2],) * 2, dtype=complex)
    for k in ks:
        phi = k.T.reshape(-1)  # phi[(i, a)] = K[a, i]
        j += np.outer(phi, phi.conj())
    return j


def compose_channels(second: np.ndarray, first: np.ndarray) -> np.ndarray:
    """Choi matrix of ``second . first`` (first acts first) for channels on C^d;
    either argument may be a stack of Choi matrices, and stacks broadcast."""
    a, b = np.asarray(first), np.asarray(second)
    d = isqrt(a.shape[-1])
    if not a.shape[-2:] == b.shape[-2:] == (d * d, d * d):
        raise ValueError(f"cannot compose Choi matrices of shapes {b.shape} and {a.shape}")
    # J[(i, o), (j, s)] = sum_mn A[(i, m), (j, n)] B[(m, o), (n, s)]
    j = np.einsum("...imjn,...mons->...iojs", a.reshape(a.shape[:-2] + (d,) * 4),
                  b.reshape(b.shape[:-2] + (d,) * 4))
    return j.reshape(j.shape[:-4] + (d * d, d * d))


def unitary_choi(u: np.ndarray) -> np.ndarray:
    """Rank-1 Choi matrix |u><u|, u = vec U^T, of the unitary channel rho -> U rho U^dag;
    ``u`` may be a stack of d x d matrices, each of which must be finite and unitary."""
    u = np.asarray(u, dtype=complex)
    d = u.shape[-1]
    ut = np.swapaxes(u, -1, -2)
    # finite first, so that U^dag U never warns; a NaN deviation fails the test
    if (u.ndim < 2 or u.shape[-2] != d or not np.all(np.isfinite(u))
            or not np.all(frobenius_each(ut.conj() @ u, np.eye(d)) <= UNITARY_TOL)):
        raise ValueError("input is not unitary within tolerance")
    phi = ut.reshape(u.shape[:-2] + (d * d,))
    return phi[..., :, None] * phi[..., None, :].conj()


class SampleStream:
    """A seeded stream of samples: the standard library's MT19937
    (``random.Random``), read 64 bits at a time by ``randbytes``.

    Two draws read it.  ``uniform`` turns each little-endian 64-bit word into
    (k + 1) / 2^53, k its top 53 bits, a uniform in (0, 1].  ``normal`` takes
    two uniforms per sample, u then v, and returns sqrt(-2 ln u) cos(2 pi v)
    (Box & Muller, Ann. Math. Statist. 29, 1958).  Each sample reads only its
    own words, so a draw cut into blocks of any sizes gives the same bits,
    and leaves the stream in the same state, as the draw in one piece; a
    normal draw is read and converted STREAM_BLOCK words at a time, which
    bounds its temporaries.
    """

    def __init__(self, seed: int):
        self._random = random.Random(operator.index(seed))

    def uniform(self, shape) -> np.ndarray:
        """Uniforms in (0, 1] of the given shape, in C order."""
        words = np.frombuffer(self._random.randbytes(8 * int(np.prod(shape))), dtype="<u8")
        return (((words >> 11) + 1) * 2.0 ** -53).reshape(shape)

    def normal(self, shape) -> np.ndarray:
        """Standard normals of the given shape, in C order."""
        out = np.empty(shape)
        flat = out.reshape(-1)
        for k in range(0, flat.size, STREAM_BLOCK // 2):
            block = flat[k:k + STREAM_BLOCK // 2]
            u = self.uniform((block.size, 2))
            np.multiply(np.sqrt(-2.0 * np.log(u[:, 0])), np.cos(2 * np.pi * u[:, 1]), out=block)
        return out


def haar_random_unitaries(d: int, n: int, seed) -> np.ndarray:
    """n Haar-distributed d x d unitaries, stacked, via QR of complex Ginibre matrices.

    ``seed`` is an integer or a ``SampleStream``.  The draws and the stream's
    final state match n successive ``haar_random_unitary`` calls bit-for-bit:
    each unitary takes its real part and then its imaginary part from the
    stream, and the QR runs matrix by matrix.
    """
    if d < 1:
        raise ValueError("dimension must be >= 1")
    rng = seed if isinstance(seed, SampleStream) else SampleStream(seed)
    g = rng.normal((n, 2, d, d))
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


def standard_channel(kind: str, d: int) -> np.ndarray:
    """The Kraus operators, stacked, of the channels the certificates name:
    ``depolarizing`` (rho -> I/d Tr rho), the d^2 operators |i><j| / sqrt(d)
    with j fastest, and ``replace_zero`` (rho -> |0><0| Tr rho), the d
    operators |0><i|."""
    if d < 1:
        raise ValueError("dimension must be >= 1")
    eye = np.eye(d, dtype=complex)
    if kind == "depolarizing":
        return np.array([np.outer(eye[:, i], eye[:, j]) / np.sqrt(d)
                         for i in range(d) for j in range(d)])
    if kind == "replace_zero":
        return np.array([np.outer(eye[:, 0], eye[:, i]) for i in range(d)])
    raise ValueError(f"unknown channel kind {kind!r}")


def flip_operator(d: int) -> np.ndarray:
    """Swap operator F on C^d (x) C^d: F |psi phi> = |phi psi>."""
    if d < 1:
        raise ValueError("dimension must be >= 1")
    # F[(a, b), (c, e)] = delta_ae delta_bc: the identity with the row pair swapped
    return np.eye(d * d, dtype=complex).reshape(d, d, d * d).transpose(1, 0, 2).reshape(d * d, -1)
