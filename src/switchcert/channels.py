"""Quantum channels in Kraus and Choi form, standard constructors, Haar sampling.

Choi operators follow the unnormalized convention ``J = sum_ij |i><j| (x)
Lambda(|i><j|)``, so a trace-preserving channel on ``C^d`` has ``Tr J = d``
and the Choi operator of a unitary channel has entries built from plain
products of matrix elements (0/1 patterns for permutation-like unitaries).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import (
    Operator,
    SpaceLayout,
    _as_matrix,
    frobenius,
    hermitian_eigen,
    is_psd,
    min_eigenvalue,
)

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

    def is_trace_preserving(self, tol: float = 1e-9) -> bool:
        acc = sum(k.conj().T @ k for k in self.kraus)
        return frobenius(acc, np.eye(self.dim_in)) <= tol


@dataclass(frozen=True)
class ChoiChannel:
    """Choi operator of a channel, stored on the labeled space I (x) O."""

    op: Operator

    def __post_init__(self):
        if self.op.layout.labels != ("I", "O"):
            raise ValueError("ChoiChannel layout must be (('I', din), ('O', dout))")

    @property
    def dim_in(self) -> int:
        return self.op.layout.dim_of("I")

    @property
    def dim_out(self) -> int:
        return self.op.layout.dim_of("O")

    @property
    def matrix(self) -> np.ndarray:
        return self.op.entries

    def is_cp(self, tol_psd: float = 1e-9) -> bool:
        return is_psd(self.op, tol_psd=tol_psd)

    def is_trace_preserving(self, tol: float = 1e-9) -> bool:
        j4 = self.matrix.reshape(self.dim_in, self.dim_out,
                                 self.dim_in, self.dim_out)
        return frobenius(np.einsum("iaka->ik", j4), np.eye(self.dim_in)) <= tol


def choi_matrix(din: int, dout: int, entries: np.ndarray) -> ChoiChannel:
    return ChoiChannel(Operator(SpaceLayout((("I", din), ("O", dout))), entries))


def choi_from_kraus(ch: KrausChannel) -> ChoiChannel:
    """J = sum_k |Phi_k><Phi_k| with Phi_k = (I (x) K_k) |I>>."""
    j = np.zeros((ch.dim_in * ch.dim_out,) * 2, dtype=complex)
    for k in ch.kraus:
        phi = k.T.reshape(-1)  # phi[(i, a)] = K[a, i]
        j += np.outer(phi, phi.conj())
    return choi_matrix(ch.dim_in, ch.dim_out, j)


def kraus_from_choi(j: ChoiChannel, tol: float = 1e-10) -> KrausChannel:
    """Kraus operators from the eigendecomposition of a PSD Choi operator.

    Eigenvalues below ``tol * lambda_max`` are discarded, so the number of
    Kraus operators equals the numerical rank at the same cut.
    """
    if min_eigenvalue(j.op) < -1e-9:
        raise ValueError("Choi operator is not positive semidefinite")
    w, v = hermitian_eigen(j.op)
    top = max(w.max(), 0.0)
    ops = []
    for lam, vec in zip(w, v.T):
        if lam > tol * top:
            ops.append(np.sqrt(lam) * vec.reshape(j.dim_in, j.dim_out).T)
    if not ops:
        ops = [np.zeros((j.dim_out, j.dim_in), dtype=complex)]
    return KrausChannel(j.dim_in, j.dim_out, tuple(ops))


def apply_channel(ch, rho):
    """Apply a channel to a state (plain matrix or Operator accepted).

    Kraus route: sum_k K rho K^dag.  Choi route: Tr_I[J (rho^t (x) I_O)].
    """
    mat = _as_matrix(rho)
    if isinstance(ch, KrausChannel):
        if mat.shape != (ch.dim_in, ch.dim_in):
            raise ValueError(f"state dimension {mat.shape} != {ch.dim_in}")
        out = sum(k @ mat @ k.conj().T for k in ch.kraus)
    elif isinstance(ch, ChoiChannel):
        if mat.shape != (ch.dim_in, ch.dim_in):
            raise ValueError(f"state dimension {mat.shape} != {ch.dim_in}")
        j4 = ch.matrix.reshape(ch.dim_in, ch.dim_out, ch.dim_in, ch.dim_out)
        out = np.einsum("iakb,ik->ab", j4, mat)
    else:
        raise TypeError(f"not a channel: {type(ch).__name__}")
    if isinstance(rho, Operator):
        return Operator(rho.layout, out)
    return out


def _as_choi(ch) -> ChoiChannel:
    return choi_from_kraus(ch) if isinstance(ch, KrausChannel) else ch


def compose_channels(second, first) -> ChoiChannel:
    """Choi operator of ``second . first`` (first acts first)."""
    a, b = _as_choi(first), _as_choi(second)
    if a.dim_out != b.dim_in:
        raise ValueError(
            f"cannot compose: first outputs dim {a.dim_out}, second expects {b.dim_in}")
    d = a.dim_in
    j = np.zeros((d * b.dim_out,) * 2, dtype=complex)
    basis = np.eye(d)
    for i in range(d):
        for k in range(d):
            e = np.outer(basis[i], basis[k])
            out = apply_channel(b, apply_channel(a, e))
            j += np.kron(e, out)
    return choi_matrix(d, b.dim_out, j)


def unitary_choi(u: np.ndarray, tol: float = 1e-10) -> ChoiChannel:
    """Rank-1 Choi operator of the unitary channel rho -> U rho U^dag."""
    u = np.asarray(u, dtype=complex)
    d = u.shape[0]
    if u.shape != (d, d) or frobenius(u.conj().T @ u, np.eye(d)) > tol:
        raise ValueError("input is not unitary within tolerance")
    phi = u.T.reshape(-1)
    return choi_matrix(d, d, np.outer(phi, phi.conj()))


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


def random_kraus_channel(d: int, kraus_rank: int, seed) -> KrausChannel:
    """Random CPTP channel on C^d with the given number of Kraus operators.

    Built from a Haar-random isometry C^d -> C^(kraus_rank * d), the standard
    construction for sampling channels of bounded Kraus rank.
    """
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    g = (rng.standard_normal((kraus_rank * d, d))
         + 1j * rng.standard_normal((kraus_rank * d, d))) / np.sqrt(2)
    q, _ = np.linalg.qr(g)
    return KrausChannel(d, d, tuple(q[k * d:(k + 1) * d, :] for k in range(kraus_rank)))


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


def flip_operator(d: int) -> Operator:
    """Swap operator F on C^d (x) C^d: F |psi phi> = |phi psi>."""
    if d < 1:
        raise ValueError("dimension must be >= 1")
    # F[(a, b), (c, e)] = delta_ae delta_bc: the identity with the row pair swapped
    f = np.eye(d * d, dtype=complex).reshape(d, d, d * d).transpose(1, 0, 2).reshape(d * d, -1)
    return Operator(SpaceLayout((("A", d), ("B", d))), f)
