"""Process matrices, the link product, and the quantum switch.

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
from functools import cached_property

import numpy as np

from .channels import ChoiChannel, KrausChannel, choi_from_kraus, choi_matrix, \
    haar_random_unitaries, unitary_choi
from .linalg import Operator, SpaceLayout, frobenius
from .report import Timer, check_leq, check_close, make_report, nan_max

CANONICAL_ORDER = ("I1", "O1", "I2", "O2", "PT", "FT", "PC", "FC")


def process_layout(d: int) -> SpaceLayout:
    dims = {"PC": 2, "FC": 2}
    return SpaceLayout(tuple((lbl, dims.get(lbl, d)) for lbl in CANONICAL_ORDER))


def one_slot_layout(d: int) -> SpaceLayout:
    return SpaceLayout((("I", d), ("O", d), ("P", d), ("F", d)))


@dataclass(frozen=True, eq=False)
class Process:
    """Process matrix of a one- or two-slot supermap in canonical storage order.

    A pure process W = |w><w| is stored as its vector ``vector``; any other
    process as the dense Operator ``dense``.  Exactly one of the two is set.
    The layout (one slot on I, O, P, F or two slots in CANONICAL_ORDER) is
    read off the operator, or off the vector's length.
    """

    d: int
    dense: Operator | None = None
    vector: np.ndarray | None = None
    layout: SpaceLayout = field(init=False, repr=False)

    def __post_init__(self):
        if (self.dense is None) == (self.vector is None):
            raise ValueError("a process is given by exactly one of dense or vector")
        layouts = (process_layout(self.d), one_slot_layout(self.d))
        if self.vector is None:
            lay = self.dense.layout
        else:
            w = np.array(self.vector, dtype=complex, copy=True)
            if not np.all(np.isfinite(w)):
                raise ValueError("process vector entries must be finite")
            w.flags.writeable = False
            object.__setattr__(self, "vector", w)
            lay = next((x for x in layouts if w.shape == (x.dim,)), None)
        if lay not in layouts:
            raise ValueError("process does not match the one- or two-slot "
                             f"layout for d = {self.d}")
        object.__setattr__(self, "layout", lay)

    @property
    def op(self) -> Operator:
        """The dense process matrix, built from the vector on each call if pure."""
        if self.dense is not None:
            return self.dense
        return Operator(self.layout, np.outer(self.vector, self.vector.conj()))

    @property
    def data(self) -> np.ndarray:
        """What ``link`` contracts: the vector if pure, else the dense entries."""
        return self.vector if self.vector is not None else self.dense.entries

    @property
    def nin(self) -> int:
        """Dimension of the slot (input) systems, which come first."""
        return self.d ** (len(self.layout.dims) // 2)

    def block(self, row: int, col: int) -> np.ndarray:
        """The output block W[(row, .), (col, .)] at input basis indices row, col."""
        if self.vector is not None:
            wm = self.vector.reshape(self.nin, -1)
            return np.outer(wm[row], wm[col].conj())
        nout = self.layout.dim // self.nin
        return self.dense.entries[row * nout:(row + 1) * nout, col * nout:(col + 1) * nout]

    @cached_property
    def _row_entries(self) -> tuple:
        """Per row of Wm = w.reshape(nin, nout), its nonzero (column, value) pairs."""
        wm = self.vector.reshape(self.nin, -1)
        rows = [[] for _ in range(self.nin)]
        for r, o in zip(*np.nonzero(wm)):
            rows[r].append((int(o), complex(wm[r, o])))
        return tuple(rows)

    def block_entries(self, row: int, col: int) -> list:
        """The nonzero entries of ``block(row, col)`` as (o, p, value) triples.

        For a pure process these are the products of the nonzero entries of
        rows ``row`` and ``col`` of Wm (at most 2 x 2 for the switch); for a
        dense one, the block entries of modulus above 1e-14.
        """
        if self.vector is not None:
            rows = self._row_entries
            return [(o, p, a * b.conjugate()) for o, a in rows[row] for p, b in rows[col]]
        block = self.block(row, col)
        o, p = np.nonzero(np.abs(block) > 1e-14)
        return list(zip(o.tolist(), p.tolist(), block[o, p]))

    def entry(self, row: int, col: int) -> complex:
        if self.vector is not None:
            return complex(self.vector[row] * np.conj(self.vector[col]))
        return complex(self.dense.entries[row, col])

    def diagonal(self) -> np.ndarray:
        if self.vector is not None:
            return (self.vector * self.vector.conj()).real
        return np.diag(self.dense.entries).real.copy()


def link(w: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The link product Tr_in[W (X^t (x) 1_out)] for an input-space operator X.

    ``w`` is either the process vector of a pure W = |w><w|, contracted as
    Wm^T X conj(Wm) with Wm = w.reshape(nin, nout), or the dense matrix W.
    """
    nin = x.shape[0]
    if w.ndim == 1:
        wm = w.reshape(nin, -1)
        return wm.T @ x @ wm.conj()
    nout = w.shape[0] // nin
    return np.einsum("aobp,ab->op", w.reshape(nin, nout, nin, nout), x)


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
    return Process(d, Operator(process_layout(d), np.outer(w, w.conj())))


def controlled_order_unitary(u1: np.ndarray, u2: np.ndarray) -> np.ndarray:
    """|0><0| (x) U2 U1 + |1><1| (x) U1 U2 on C^2 (x) C^d (control first)."""
    u1 = np.asarray(u1, dtype=complex)
    u2 = np.asarray(u2, dtype=complex)
    p0 = np.diag([1.0, 0.0]).astype(complex)
    p1 = np.diag([0.0, 1.0]).astype(complex)
    return np.kron(p0, u2 @ u1) + np.kron(p1, u1 @ u2)


def _slot_matrix(x, d: int, slot: int) -> np.ndarray:
    if isinstance(x, ChoiChannel):
        if x.dim_in != d or x.dim_out != d:
            raise ValueError(f"slot-{slot} channel must act on dimension {d}")
        return x.matrix
    m = np.asarray(x, dtype=complex)
    if m.shape != (d * d, d * d):
        raise ValueError(f"slot-{slot} operator must be {d * d} x {d * d}")
    return m


def apply_two_slot(proc: Process, a, b) -> ChoiChannel:
    """Choi operator of the output channel, Tr_in[W (I (x) A (x) B (x) I)^t].

    Only the slot systems are transposed; the identity factors on the global
    past/future are transpose-invariant, so this equals the full transpose.
    ``a`` and ``b`` may be ChoiChannel objects or plain d^2 x d^2 matrices
    (linearity in each slot holds for arbitrary operators).
    """
    d = proc.d
    if proc.layout != process_layout(d):
        raise ValueError("apply_two_slot needs a two-slot process")
    amat = _slot_matrix(a, d, 1)
    bmat = _slot_matrix(b, d, 2)
    out = link(proc.data, np.kron(amat, bmat))
    # reorder output from (PT, FT, PC, FC) to P (x) F with P = (PC, PT)
    out = out.reshape(d, d, 2, 2, d, d, 2, 2)
    out = out.transpose(2, 0, 3, 1, 6, 4, 7, 5).reshape(4 * d * d, 4 * d * d)
    return choi_matrix(2 * d, 2 * d, out)


def apply_one_slot(proc: Process, j) -> ChoiChannel:
    """Output Choi operator Tr_IO[C (J^t (x) I_PF)] on the past/future pair."""
    d = proc.d
    if proc.layout != one_slot_layout(d):
        raise ValueError("apply_one_slot needs a one-slot process")
    return choi_matrix(d, d, link(proc.data, _slot_matrix(j, d, 1)))


def switch_kraus_output(k: KrausChannel, l: KrausChannel) -> ChoiChannel:
    """Kraus-level switch output: W_ij = |0><0| (x) L_j K_i + |1><1| (x) K_i L_j."""
    if not (k.dim_in == k.dim_out == l.dim_in == l.dim_out):
        raise ValueError("both slot channels must be square and equal-dimensional")
    d = k.dim_in
    ops = []
    for ki in k.kraus:
        for lj in l.kraus:
            w = np.zeros((2 * d, 2 * d), dtype=complex)
            w[:d, :d] = lj @ ki
            w[d:, d:] = ki @ lj
            ops.append(w)
    return choi_from_kraus(KrausChannel(2 * d, 2 * d, tuple(ops)))


def verify_unitary_action(d: int, trials: int, seed, process: Process | None = None,
                          tol: float = 1e-9) -> "CertificateReport":
    """Check the switch turns Haar pairs (U1, U2) into the controlled-order unitary.

    For each pair, compares apply_two_slot(W0, J_U1, J_U2) against the Choi
    operator of |0><0| (x) U2 U1 + |1><1| (x) U1 U2 in Frobenius norm.
    """
    timer = Timer()
    proc = process if process is not None else Process(d, vector=switch_choi_vector(d))
    us = haar_random_unitaries(d, 2 * trials, seed)  # u1 then u2 per trial
    worst = 0.0
    for u1, u2 in zip(us[0::2], us[1::2]):
        got = apply_two_slot(proc, unitary_choi(u1), unitary_choi(u2))
        want = unitary_choi(controlled_order_unitary(u1, u2))
        worst = nan_max(worst, frobenius(got.matrix, want.matrix))
    eye = np.eye(d)
    exact = frobenius(
        apply_two_slot(proc, unitary_choi(eye), unitary_choi(eye)).matrix,
        unitary_choi(np.eye(2 * d)).matrix)
    checks = [
        check_leq("max_frobenius_distance", worst, tol),
        check_close("identity_pair_distance", exact, 0.0,
                    0.0 if process is None else tol),
    ]
    return make_report(f"switch_unitary_action_d{d}", checks, timer,
                       notes=(f"trials={trials}",))
