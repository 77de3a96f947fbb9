"""Process matrices, their action kernel, and the quantum switch.

A one-slot process acts on I (x) O (x) P (x) F.  A two-slot process, such
as the switch, acts on eight subsystems: the two operation slots
(I1, O1) and (I2, O2) of dimension d each, a d-dimensional target register
(PT past, FT future) and a control qubit (PC past, FC future).  Canonical
storage order is (I1, O1, I2, O2, PT, FT, PC, FC); the global past and
future spaces of the produced channel are P = PC (x) PT and F = FC (x) FT,
so the control qubit is the leading factor of the 2d-dimensional output
channel, and control state |0> means the slot-1 operation acts first.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .channels import haar_random_unitaries, unitary_choi
from .linalg import Operator, frobenius, frobenius_each
from .report import Timer, check_leq, check_close, make_report, nan_max

CANONICAL_ORDER = ("I1", "O1", "I2", "O2", "PT", "FT", "PC", "FC")
ACTION_BLOCK_ENTRIES = 2 ** 16  # output entries max_action_distance holds at once (1 MiB)


@dataclass(frozen=True, eq=False)
class Process:
    """Process matrix of a one- or two-slot supermap in canonical storage order.

    A pure process W = |w><w| is stored as its vector ``vector``; any other
    process as the dense Operator ``dense``.  Exactly one of the two is set.
    The number of slots is read off the size: d^4 for one slot on
    I (x) O (x) P (x) F, 4 d^6 for two slots in CANONICAL_ORDER.
    """

    d: int
    dense: Operator | None = None
    vector: np.ndarray | None = None
    slots: int = field(init=False, repr=False)

    def __post_init__(self):
        if (self.dense is None) == (self.vector is None):
            raise ValueError("a process is given by exactly one of dense or vector")
        if self.vector is None:
            n = self.dense.entries.shape[0]
        else:
            w = np.array(self.vector, dtype=complex, copy=True)
            if not np.all(np.isfinite(w)):
                raise ValueError("process vector entries must be finite")
            w.flags.writeable = False
            object.__setattr__(self, "vector", w)
            n = w.size if w.ndim == 1 else None
        slots = {self.d ** 4: 1, 4 * self.d ** 6: 2}.get(n)
        if slots is None:
            raise ValueError("process does not match the one- or two-slot "
                             f"size for d = {self.d}")
        object.__setattr__(self, "slots", slots)

    @property
    def op(self) -> Operator:
        """The dense process matrix, built from the vector on each call if pure."""
        if self.dense is not None:
            return self.dense
        return Operator(np.outer(self.vector, self.vector.conj()))

    @property
    def nin(self) -> int:
        """Dimension of the slot (input) systems, which come first."""
        return self.d ** (2 * self.slots)

    @property
    def size(self) -> int:
        """Side of the process matrix."""
        return self.vector.size if self.vector is not None else self.dense.entries.shape[0]

    @property
    def nout(self) -> int:
        """Dimension of the global past and future (output) systems, which come last."""
        return self.size // self.nin

    def nonzeros(self) -> tuple:
        """Row indices, column indices and values of the entries of W that may
        be nonzero: for a pure process the products of the nonzero entries of
        its vector, for a dense one the entries of modulus above 1e-14."""
        if self.vector is not None:
            idx = np.flatnonzero(self.vector)
            rows, cols = np.repeat(idx, idx.size), np.tile(idx, idx.size)
            return rows, cols, self.entry(rows, cols)
        rows, cols = np.nonzero(np.abs(self.dense.entries) > 1e-14)
        return rows, cols, self.dense.entries[rows, cols]

    def support(self) -> tuple:
        """Row and column indices of the entries of W that are not exactly 0."""
        if self.vector is None:
            return np.nonzero(self.dense.entries)
        rows, cols, values = self.nonzeros()
        return rows[values != 0], cols[values != 0]

    def entry(self, row, col):
        """W[row, col]; ``row`` and ``col`` may be index arrays, which broadcast."""
        if self.vector is not None:
            return self.vector[row] * np.conj(self.vector[col])
        return self.dense.entries[row, col]


def switch_choi_vector(d: int) -> np.ndarray:
    """The rank-1 process vector: sum_ijk (|ijjkik00> + |jkijik11>).

    Component order follows CANONICAL_ORDER; every amplitude is 0 or 1 and
    there are exactly 2 d^3 ones.
    """
    if d < 2:
        raise ValueError("the switch needs slot dimension d >= 2")
    w = np.zeros((d, d, d, d, d, d, 2, 2), dtype=complex)
    i, j, k = np.indices((d, d, d)).reshape(3, -1)
    w[i, j, j, k, i, k, 0, 0] = 1.0
    w[j, k, i, j, i, k, 1, 1] = 1.0
    return w.reshape(-1)


def build_switch_choi(d: int) -> Process:
    """Dense process matrix W0 = |W0><W0| of the quantum switch."""
    w = switch_choi_vector(d)
    return Process(d, Operator(np.outer(w, w.conj())))


def controlled_order_unitary(u1: np.ndarray, u2: np.ndarray) -> np.ndarray:
    """|0><0| (x) U2 U1 + |1><1| (x) U1 U2 on C^2 (x) C^d (control first);
    for stacks u1, u2 of n matrices ``np.kron`` gives the stack of n results."""
    u1 = np.asarray(u1, dtype=complex)
    u2 = np.asarray(u2, dtype=complex)
    p0 = np.diag([1.0, 0.0]).astype(complex)
    p1 = np.diag([0.0, 1.0]).astype(complex)
    return np.kron(p0, u2 @ u1) + np.kron(p1, u1 @ u2)


def _channel_order(out: np.ndarray, d: int) -> np.ndarray:
    """Reorder one two-slot output or a stack of them from (PT, FT, PC, FC)
    to P (x) F with P = (PC, PT)."""
    x = out.reshape(-1, d, d, 2, 2, d, d, 2, 2).transpose(0, 3, 1, 4, 2, 7, 5, 8, 6)
    return x.reshape(out.shape)


def unitary_actions(proc: Process, ks) -> np.ndarray:
    """Output Choi matrices of ``proc`` on a stack of rank-1 maps X -> K X K^dag.

    This is the one place where W is contracted.  ``ks`` is (n, d, d) for
    one slot and (n, 2, d, d), pairs (K1, K2), for two; the K need not be
    unitary, so a channel's output is the sum of the rows over its Kraus
    operators (over all Kraus pairs for two slots).  The Choi matrix of
    X -> K X K^dag is |k><k| with k = vec K^T (k1 (x) k2 for a pair), so the
    link Tr_in[W (|k><k|^t (x) 1_out)] of a pure W is |v><v| with
    v = Wm^T k, and all rows come from one product x @ Wm; a dense W is
    contracted as x @ W.reshape(nin, -1) and then with conj(x).  Two-slot
    outputs are ordered P (x) F with P = (PC, PT).
    """
    d, n = proc.d, len(ks)
    ks = np.asarray(ks, dtype=complex)
    if ks.shape[1:] != ((d, d) if proc.slots == 1 else (2, d, d)):
        raise ValueError(f"a stack of {proc.slots}-slot operators on C^{d} is needed")
    phi = np.swapaxes(ks, -1, -2).reshape(n, proc.slots, d * d)
    x = phi[:, 0] if proc.slots == 1 else \
        (phi[:, 0, :, None] * phi[:, 1, None, :]).reshape(n, -1)
    if proc.vector is not None:
        v = x @ proc.vector.reshape(proc.nin, -1)
        out = v[:, :, None] * v[:, None, :].conj()
    else:
        y = x @ proc.dense.entries.reshape(proc.nin, -1)
        out = np.einsum("nobp,nb->nop", y.reshape(n, proc.nout, proc.nin, proc.nout), x.conj())
    return out if proc.slots == 1 else _channel_order(out, d)


def max_action_distance(proc: Process, us, target) -> float:
    """Largest Frobenius distance from ``unitary_actions(proc, us)`` to ``target(us)``
    (NaN if any is NaN), over blocks of at most ACTION_BLOCK_ENTRIES output entries."""
    step = max(1, ACTION_BLOCK_ENTRIES // proc.nout ** 2)
    blocks = (us[k:k + step] for k in range(0, len(us), step))
    return nan_max(0.0, *(dist for blk in blocks for dist in
                          frobenius_each(unitary_actions(proc, blk), target(blk))))


def verify_unitary_action(d: int, seed, process: Process | None = None,
                          tol: float = 1e-9) -> "CertificateReport":
    """Check the switch turns Haar pairs (U1, U2) into the controlled-order unitary.

    For each pair, compares the output on (J_U1, J_U2) against the Choi
    operator of |0><0| (x) U2 U1 + |1><1| (x) U1 U2 in Frobenius norm; there
    are 200 pairs at d = 2 and 100 at any other d.
    """
    timer = Timer()
    trials = 200 if d == 2 else 100
    proc = process if process is not None else Process(d, vector=switch_choi_vector(d))
    us = haar_random_unitaries(d, 2 * trials, seed).reshape(trials, 2, d, d)
    worst = max_action_distance(
        proc, us, lambda blk: unitary_choi(controlled_order_unitary(blk[:, 0], blk[:, 1])))
    eye = np.broadcast_to(np.eye(d), (1, 2, d, d))
    exact = frobenius(unitary_actions(proc, eye)[0], unitary_choi(np.eye(2 * d)))
    checks = [
        check_leq("max_frobenius_distance", worst, tol),
        check_close("identity_pair_distance", exact, 0.0,
                    0.0 if process is None else tol),
    ]
    return make_report(f"switch_unitary_action_d{d}", checks, timer,
                       notes=(f"trials={trials}",))
