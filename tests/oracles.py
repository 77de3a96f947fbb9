"""Independent reference routes that the tests check the package against.

None of this is used by the certificates.  The dense label route (tensor
with identities, partial-transpose, multiply, partial-trace, permute by
subsystem label) is the textbook link product that ``switch.link`` is
checked against; it works on ``Labeled`` matrices, whose ``SpaceLayout``
names each tensor factor.  The Kraus route builds the switch's output
channel from the Kraus operators of its slots without any process matrix;
``is_cptp`` checks a channel's Choi matrix.
"""

from __future__ import annotations

import string
from dataclasses import dataclass
from math import isqrt

import numpy as np

from switchcert.channels import KrausChannel, choi_from_kraus
from switchcert.linalg import Operator, frobenius, min_eigenvalue
from switchcert.switch import CANONICAL_ORDER, Process

# --- labeled spaces ------------------------------------------------------------


class LayoutError(ValueError):
    """Inconsistent subsystem labels or dimensions."""


@dataclass(frozen=True)
class SpaceLayout:
    """Ordered labeled subsystems of a tensor-product Hilbert space."""

    systems: tuple[tuple[str, int], ...]

    def __post_init__(self):
        systems = tuple((str(lbl), int(dim)) for lbl, dim in self.systems)
        if not systems:
            raise LayoutError("empty layout is forbidden")
        labels = [lbl for lbl, _ in systems]
        if len(set(labels)) != len(labels):
            raise LayoutError(f"duplicate labels in layout: {labels}")
        if any(dim < 1 for _, dim in systems):
            raise LayoutError("all subsystem dimensions must be positive")
        object.__setattr__(self, "systems", systems)

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(lbl for lbl, _ in self.systems)

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(dim for _, dim in self.systems)

    @property
    def dim(self) -> int:
        n = 1
        for _, d in self.systems:
            n *= d
        return n

    def position(self, label: str) -> int:
        for k, (lbl, _) in enumerate(self.systems):
            if lbl == label:
                return k
        raise LayoutError(f"unknown label {label!r}; layout has {self.labels}")


@dataclass(frozen=True)
class Labeled:
    """A square, finite, read-only matrix on the tensor-product space of ``layout``."""

    layout: SpaceLayout
    entries: np.ndarray

    def __post_init__(self):
        arr = Operator(self.entries).entries
        n = self.layout.dim
        if arr.shape != (n, n):
            raise LayoutError(
                f"entries shape {arr.shape} does not match layout dimension {n}")
        object.__setattr__(self, "entries", arr)


def labeled_process(proc: Process) -> Labeled:
    """A two-slot process matrix W labeled in CANONICAL_ORDER."""
    dims = {"PC": 2, "FC": 2}
    lay = SpaceLayout(tuple((lbl, dims.get(lbl, proc.d)) for lbl in CANONICAL_ORDER))
    return Labeled(lay, proc.op.entries)


# --- dense label route ---------------------------------------------------------


def identity_operator(lay: SpaceLayout) -> Labeled:
    return Labeled(lay, np.eye(lay.dim, dtype=complex))


def tensor_product(a: Labeled, b: Labeled) -> Labeled:
    """Kronecker product with concatenated layouts; labels must be disjoint."""
    clash = set(a.layout.labels) & set(b.layout.labels)
    if clash:
        raise LayoutError(f"duplicate labels across factors: {sorted(clash)}")
    lay = SpaceLayout(a.layout.systems + b.layout.systems)
    return Labeled(lay, np.kron(a.entries, b.entries))


def _tensorized(op: Labeled) -> np.ndarray:
    dims = op.layout.dims
    return op.entries.reshape(dims + dims)


def partial_trace(op: Labeled, labels) -> Labeled:
    """Trace out the named subsystems, keeping the rest in layout order."""
    labels = set([labels] if isinstance(labels, str) else labels)
    for lbl in labels:
        op.layout.position(lbl)
    keep = [s for s in op.layout.systems if s[0] not in labels]
    if not keep:
        raise LayoutError("cannot trace out every subsystem")
    n = len(op.layout.systems)
    letters = string.ascii_letters
    row = list(letters[:n])
    col = list(letters[n:2 * n])
    out = []
    for k, (lbl, _) in enumerate(op.layout.systems):
        if lbl in labels:
            col[k] = row[k]
        else:
            out.append(k)
    subscripts = "".join(row + col) + "->" + "".join(row[k] for k in out) + \
        "".join(col[k] for k in out)
    m = int(np.prod([op.layout.dims[k] for k in out]))
    return Labeled(SpaceLayout(tuple(keep)),
                   np.einsum(subscripts, _tensorized(op)).reshape(m, m))


def partial_transpose(op: Labeled, labels) -> Labeled:
    """Transpose the selected subsystems in the computational basis."""
    labels = set([labels] if isinstance(labels, str) else labels)
    for lbl in labels:
        op.layout.position(lbl)
    n = len(op.layout.systems)
    axes = list(range(2 * n))
    for k, (lbl, _) in enumerate(op.layout.systems):
        if lbl in labels:
            axes[k], axes[n + k] = axes[n + k], axes[k]
    out = _tensorized(op).transpose(axes).reshape(op.layout.dim, op.layout.dim)
    return Labeled(op.layout, out)


def permute_systems(op: Labeled, new_order) -> Labeled:
    """Reindex entries so subsystems appear in ``new_order``."""
    new_order = tuple(new_order)
    if sorted(new_order) != sorted(op.layout.labels):
        raise LayoutError(
            f"{new_order} is not a permutation of {op.layout.labels}")
    perm = [op.layout.position(lbl) for lbl in new_order]
    n = len(perm)
    axes = perm + [n + p for p in perm]
    out = _tensorized(op).transpose(axes).reshape(op.layout.dim, op.layout.dim)
    systems = tuple(op.layout.systems[p] for p in perm)
    return Labeled(SpaceLayout(systems), out)


# --- Kraus route -----------------------------------------------------------------


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


def switch_kraus_output(k: KrausChannel, l: KrausChannel) -> np.ndarray:
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


def is_cptp(ch, tol: float = 1e-9) -> bool:
    """Whether a channel on C^d, given by Kraus operators or by its Choi matrix
    J, is completely positive (J >= -tol) and trace preserving (Tr_O J = 1_I)."""
    j = choi_from_kraus(ch) if isinstance(ch, KrausChannel) else np.asarray(ch)
    d = isqrt(j.shape[0])
    j4 = j.reshape(d, d, d, d)
    return (min_eigenvalue(j) >= -tol
            and frobenius(np.einsum("iaka->ik", j4), np.eye(d)) <= tol)
