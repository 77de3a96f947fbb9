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
ACTION_TOL = 1e-9  # Frobenius bound on a Haar-sampled action distance


@dataclass(frozen=True, eq=False)
class Process:
    """Process matrix of a one- or two-slot supermap in canonical storage order.

    W = sum_k s_k |v_k><v_k|, stored as the (r, n) stack ``vectors`` (a 1-D
    vector is a stack of one) and the real ``weights`` s_k (default 1), is
    read in one pass over the stack (``_sum``).  The slot count is read off
    n: d^4 for one slot on I (x) O (x) P (x) F, 4 d^6 for two in CANONICAL_ORDER.
    """

    d: int
    vectors: np.ndarray
    weights: np.ndarray | None = None
    slots: int = field(init=False, repr=False)

    def __post_init__(self):
        v = np.array(self.vectors, dtype=complex, copy=True, ndmin=2)
        s = np.ones(len(v)) if self.weights is None else np.array(self.weights, dtype=float)
        if v.ndim != 2 or s.shape != (len(v),) or not len(v) \
                or not (np.all(np.isfinite(v)) and np.all(np.isfinite(s))):
            raise ValueError("a process is a stack of finite vectors with a finite weight each")
        slots = {self.d ** 4: 1, 4 * self.d ** 6: 2}.get(v.shape[1])
        if slots is None:
            raise ValueError("process does not match the one- or two-slot "
                             f"size for d = {self.d}")
        v.flags.writeable = s.flags.writeable = False
        object.__setattr__(self, "vectors", v)
        object.__setattr__(self, "weights", s)
        object.__setattr__(self, "slots", slots)

    def _sum(self, term) -> np.ndarray:
        """sum_k s_k term(v_k); s_k scales the real and imaginary parts as
        reals, so a weight of 1 keeps a term's bits, signed zeros included."""
        total = None
        for s, v in zip(self.weights, self.vectors):
            t = np.asarray(term(v))
            t.real *= s
            t.imag *= s
            total = t if total is None else np.add(total, t, out=total)
            del t  # so that the next term is not built beside this one
        return total

    @property
    def op(self) -> Operator:
        """The dense process matrix, built from the stack on each call."""
        return Operator(self._sum(lambda v: np.outer(v, v.conj())))

    @property
    def dims(self) -> tuple:
        """The factor dimensions in storage order: I, O, P, F or CANONICAL_ORDER."""
        return (self.d,) * 4 if self.slots == 1 else (self.d,) * 6 + (2, 2)

    @property
    def nin(self) -> int:
        """Dimension of the slot (input) systems, which come first."""
        return self.d ** (2 * self.slots)

    @property
    def size(self) -> int:
        """Side of the process matrix."""
        return self.vectors.shape[1]

    @property
    def nout(self) -> int:
        """Dimension of the global past and future (output) systems, which come last."""
        return self.size // self.nin

    def nonzeros(self) -> tuple:
        """Rows, columns and values of W on the pairs of indices where some vector is not 0."""
        idx = np.flatnonzero(np.any(self.vectors, axis=0))
        rows, cols = np.repeat(idx, idx.size), np.tile(idx, idx.size)
        return rows, cols, self.entry(rows, cols)

    def support(self) -> tuple:
        """Row and column indices of the entries of W that are not exactly 0."""
        rows, cols, values = self.nonzeros()
        return rows[values != 0], cols[values != 0]

    def entry(self, row, col):
        """W[row, col]; ``row`` and ``col`` may be index arrays, which broadcast."""
        return self._sum(lambda v: v[row] * np.conj(v[col]))


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
    """The quantum switch W0 = |w><w|, the stack of one vector; ``op`` is dense."""
    return Process(d, switch_choi_vector(d))


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
    link Tr_in[W (|k><k|^t (x) 1_out)] of W = sum_j s_j |w_j><w_j| is
    sum_j s_j |v_j><v_j| with v_j = Wm_j^T k, and all rows of one term come
    from one product x @ Wm_j, Wm_j = w_j.reshape(nin, nout).  Two-slot
    outputs are ordered P (x) F with P = (PC, PT).
    """
    d, n = proc.d, len(ks)
    ks = np.asarray(ks, dtype=complex)
    if ks.shape[1:] != ((d, d) if proc.slots == 1 else (2, d, d)):
        raise ValueError(f"a stack of {proc.slots}-slot operators on C^{d} is needed")
    phi = np.swapaxes(ks, -1, -2).reshape(n, proc.slots, d * d)
    x = phi[:, 0] if proc.slots == 1 else \
        (phi[:, 0, :, None] * phi[:, 1, None, :]).reshape(n, -1)

    def rank1(w):
        v = x @ w.reshape(proc.nin, -1)
        return v[:, :, None] * v[:, None, :].conj()
    out = proc._sum(rank1)
    return out if proc.slots == 1 else _channel_order(out, d)


def max_action_distance(proc: Process, us, target) -> float:
    """Largest Frobenius distance from ``unitary_actions(proc, us)`` to ``target(us)``
    (NaN if any is NaN), over blocks of at most ACTION_BLOCK_ENTRIES output entries."""
    step = max(1, ACTION_BLOCK_ENTRIES // proc.nout ** 2)
    blocks = (us[k:k + step] for k in range(0, len(us), step))
    return nan_max(0.0, *(dist for blk in blocks for dist in
                          frobenius_each(unitary_actions(proc, blk), target(blk))))


def verify_unitary_action(d: int, seed, process: Process | None = None) -> "CertificateReport":
    """Check the switch turns Haar pairs (U1, U2) into the controlled-order unitary.

    For each pair, compares the output on (J_U1, J_U2) against the Choi
    operator of |0><0| (x) U2 U1 + |1><1| (x) U1 U2 in Frobenius norm; there
    are 200 pairs at d = 2 and 100 at any other d.
    """
    timer = Timer()
    trials = 200 if d == 2 else 100
    proc = process if process is not None else Process(d, switch_choi_vector(d))
    us = haar_random_unitaries(d, 2 * trials, seed).reshape(trials, 2, d, d)
    worst = max_action_distance(
        proc, us, lambda blk: unitary_choi(controlled_order_unitary(blk[:, 0], blk[:, 1])))
    eye = np.broadcast_to(np.eye(d), (1, 2, d, d))
    exact = frobenius(unitary_actions(proc, eye)[0], unitary_choi(np.eye(2 * d)))
    checks = [
        check_leq("max_frobenius_distance", worst, ACTION_TOL),
        check_close("identity_pair_distance", exact, 0.0, 0.0 if process is None else ACTION_TOL),
    ]
    return make_report(f"switch_unitary_action_d{d}", checks, timer,
                       notes=(f"trials={trials}",))
