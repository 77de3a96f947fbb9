"""Independent reference routes that the tests check the package against.

None of this is used by the certificates.  ``link``, ``apply_one_slot``
and ``apply_two_slot`` contract W with a dense d^2 x d^2 input operator per
slot; they are the reference that ``switch.unitary_actions``, the package's
only contraction of W, is checked against, one Kraus operator (or Kraus
pair) at a time.  The dense label route (tensor with identities,
partial-transpose, multiply, partial-trace, permute by subsystem label) is
the textbook link product that ``link`` is checked against in turn; it
works on ``Labeled`` matrices, whose ``SpaceLayout`` names each tensor
factor.  The Kraus route builds the switch's output
channel from the Kraus operators of its slots without any process matrix;
``is_cptp`` checks a channel's Choi matrix.  ``build_group`` writes the
G1/G2/G3 grouping out element by element, and ``grouped_sums_by_pair``
replays the switch's grouped 1-norm sums with it pair by pair on dense
blocks.  ``same_side_lone_ketbras`` lists the ket-bras |xy><xz| and
|xy><zy| that lie outside span{J_U}.
``minor_pairs_by_family`` lists the tight 2 x 2 minors of the diagonal
certificate family by family, written out tuple by tuple.
``dykstra_start`` runs the probe's alternating projections, with the
secant step or plain, with fresh arrays at every step and the PSD
projection made sector by sector, on the probe's block vectors or on dense
matrices.  ``constraint_residual`` is the probe's affine residual of a
dense matrix, and ``pair_table_layout`` builds the probe's block storage
from the dense reference and a table of every entry's slot-pair position.
"""

from __future__ import annotations

import itertools
import string
from dataclasses import dataclass
from functools import partial
from math import isqrt, sqrt

import numpy as np

from switchcert.channels import KrausChannel, choi_from_kraus
from switchcert.linalg import Operator, frobenius, min_eigenvalue
from switchcert import probe
from switchcert.probe import MAX_ITER, TOL, _Layout, affine_project, psd_project
from switchcert.report import nan_max
from switchcert.switch import CANONICAL_ORDER, Process, _channel_order

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


# --- dense link product ------------------------------------------------------------


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


def _process_data(proc: Process) -> np.ndarray:
    """What ``link`` contracts: the vector if pure, else the dense entries."""
    return proc.vector if proc.vector is not None else proc.dense.entries


def _slot_matrix(x, d: int, slot: int) -> np.ndarray:
    m = np.asarray(x, dtype=complex)
    if m.shape != (d * d, d * d):
        raise ValueError(f"slot-{slot} operator must be {d * d} x {d * d}")
    return m


def apply_two_slot(proc: Process, a, b) -> np.ndarray:
    """Choi matrix of the output channel, Tr_in[W (I (x) A (x) B (x) I)^t].

    Only the slot systems are transposed; the identity factors on the global
    past/future are transpose-invariant, so this equals the full transpose.
    ``a`` and ``b`` are d^2 x d^2 matrices: Choi matrices of slot channels or
    arbitrary operators (linearity in each slot holds for any operator).
    """
    d = proc.d
    if proc.slots != 2:
        raise ValueError("apply_two_slot needs a two-slot process")
    amat = _slot_matrix(a, d, 1)
    bmat = _slot_matrix(b, d, 2)
    return _channel_order(link(_process_data(proc), np.kron(amat, bmat)), d)


def apply_one_slot(proc: Process, j) -> np.ndarray:
    """Output Choi matrix Tr_IO[C (J^t (x) I_PF)] on the past/future pair."""
    if proc.slots != 1:
        raise ValueError("apply_one_slot needs a one-slot process")
    return link(_process_data(proc), _slot_matrix(j, proc.d, 1))


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


# --- the G1/G2/G3 grouping, element by element -------------------------------------


@dataclass(frozen=True)
class GroupElement:
    """One element of the G1/G2/G3 grouping, as a signed sum of ket-bras."""

    group_id: str
    d: int
    indices: tuple[int, ...]
    terms: tuple[tuple[float, tuple[int, int, int, int]], ...]


def _g1_index_tuples(d: int):
    rng = range(d)
    for tup in itertools.product(rng, repeat=4):
        i, j, i2, j2 = tup
        distinct = len(set(tup))
        if distinct == 4:
            yield tup
        elif distinct == 3:
            yield tup
        elif i == j and i2 == j2 and i != i2:
            yield tup
        elif i == j2 and j == i2 and i != j:
            yield tup


def build_group(group_id: str, d: int) -> list[GroupElement]:
    """Elements of one group; sizes follow the closed forms.

    |G1| = d(d-1)(d^2+d-4), |G2| = d, |G3| = 2d(d-1); G3' and G3'' are the
    two halves of G3 (available as ids "G3p" and "G3pp").
    """
    if d < 2:
        raise ValueError("groups need d >= 2")
    rng = range(d)
    out = []
    if group_id == "G1":
        for tup in _g1_index_tuples(d):
            out.append(GroupElement("G1", d, tup, ((1.0, tup),)))
    elif group_id == "G2":
        for k in rng:
            terms = tuple((1.0, (i, (i + k) % d, i, (i + k) % d)) for i in rng)
            out.append(GroupElement("G2", d, (k,), terms))
    elif group_id in ("G3", "G3p", "G3pp"):
        if group_id in ("G3", "G3p"):
            for i, j in itertools.permutations(rng, 2):
                terms = ((1.0, (i, j, i, i)), (-1.0, (j, j, j, i)))
                out.append(GroupElement("G3p", d, (i, j), terms))
        if group_id in ("G3", "G3pp"):
            for i, j in itertools.permutations(rng, 2):
                terms = ((1.0, (j, i, i, i)), (-1.0, (j, j, i, j)))
                out.append(GroupElement("G3pp", d, (i, j), terms))
    else:
        raise ValueError(f"unknown group id {group_id!r}")
    return out


def same_side_lone_ketbras(d: int) -> list[tuple[int, int, int, int]]:
    """|xy><xz| (repeated input index) and |xy><zy| (repeated output index)
    for every ordered triple of distinct x, y, z."""
    out = []
    for x, y, z in itertools.permutations(range(d), 3):
        out += [(x, y, x, z), (x, y, z, y)]
    return out


# --- grouped sums, one element pair at a time -------------------------------------


def grouped_sums_by_pair(proc: Process) -> tuple[dict, float]:
    """Sum of output 1-norms per ordered G1/G2/G3 group pair, and the largest
    deviation of the accumulated output entries from integers.

    For every ordered pair of group elements, accumulates the entries of
    modulus above 1e-14 of the dense output blocks W[(row, .), (col, .)] of
    its ket-bra terms in a dict keyed by output entry, then rounds.
    """
    d, nout = proc.d, proc.nout
    w = proc.op.entries
    groups = {gid: build_group(gid, d) for gid in ("G1", "G2", "G3")}
    sums = {}
    nonint = 0.0
    for a, b in itertools.product(groups, repeat=2):
        total = 0
        for ea in groups[a]:
            for eb in groups[b]:
                acc: dict = {}
                for ca, ta in ea.terms:
                    for cb, tb in eb.terms:
                        row = (ta[0] * d + ta[1]) * d * d + tb[0] * d + tb[1]
                        col = (ta[2] * d + ta[3]) * d * d + tb[2] * d + tb[3]
                        block = w[row * nout:(row + 1) * nout, col * nout:(col + 1) * nout]
                        o, p = np.nonzero(np.abs(block) > 1e-14)
                        for key, v in zip(zip(o.tolist(), p.tolist()), block[o, p]):
                            acc[key] = acc.get(key, 0.0) + ca * cb * v
                for v in acc.values():
                    av = abs(v)
                    if not av < 2.0 ** 53:
                        nonint = np.nan
                        continue
                    nonint = nan_max(nonint, abs(av - round(av)))
                    total += int(round(av))
        sums[(a, b)] = total
    return sums, nonint


# --- probe start, one fresh array per step ---------------------------------------


def minor_pairs_by_family(d: int) -> dict:
    """The two 8-tuples of each tight principal minor, keyed by the family of
    the first: S1 pairs first- with second-kind tuples; S2..S7 swap the two
    index values of a tuple, or (S6, S7) pair two constant tuples."""
    pairs = {name: [] for name in ("S1", "S2", "S3", "S4", "S5", "S6", "S7")}
    for i, k, l in itertools.product(range(d), repeat=3):
        if i != k and k != l:
            pairs["S1"].append(((i, k, k, l, i, l, 0, 0), (k, i, l, k, l, i, 1, 1)))
    for i, k in itertools.permutations(range(d), 2):
        pairs["S2"].append(((i, k, k, k, i, k, 0, 0), (k, i, i, i, k, i, 0, 0)))
        pairs["S3"].append(((k, i, k, k, k, i, 1, 1), (i, k, i, i, i, k, 1, 1)))
        pairs["S4"].append(((i, i, i, k, i, k, 0, 0), (k, k, k, i, k, i, 0, 0)))
        pairs["S5"].append(((i, i, k, i, k, i, 1, 1), (k, k, i, k, i, k, 1, 1)))
        pairs["S6"].append(((i,) * 6 + (0, 0), (k,) * 6 + (0, 0)))
        pairs["S7"].append(((i,) * 6 + (1, 1), (k,) * 6 + (1, 1)))
    return pairs


def _real_dot(a: np.ndarray, b: np.ndarray) -> float:
    """<a, b> of two real arrays, summed by ``np.einsum`` as the probe sums it."""
    return float(np.einsum("i,i->", a.ravel(), b.ravel()))


def _dense_sector_clip(sys, x: np.ndarray) -> np.ndarray:
    """The PSD projection of each sector block of the matrix x, 0 off them."""
    y = np.zeros_like(x)
    for s in sys.sectors:
        y[np.ix_(s, s)] = psd_project(x[np.ix_(s, s)])
    return y


def _block_sector_clip(sys, v: np.ndarray) -> np.ndarray:
    """The PSD projection of each sector block of a block vector, the blocks
    cut by the sector sizes alone."""
    sizes = [len(s) for s in sys.sectors]
    parts = np.split(v, np.cumsum([b * b for b in sizes])[:-1])
    return np.concatenate([psd_project(part.reshape(b, b)).ravel()
                           for part, b in zip(parts, sizes)])


def dykstra_start(sys, start: np.ndarray, secant: bool = True, dense: bool = False):
    """Dykstra's alternating projections from the real matrix ``start``,
    allocating the shifted point, the correction, every projection and the
    secant point anew at each step; returns the last plain affine iterate,
    its distance to the reference and the iterations run.  The iterates are
    the probe's block vectors of ``sys.layout``, or with ``dense`` n x n
    matrices; either way the PSD projection clips each sector block of the
    shifted point and leaves 0 off them.

    With ``secant`` the next iterate is g - gamma (g - g_prev), gamma =
    <df, f> / ||df||^2 for f = g - x and df = f - f_prev, unless df = 0 or
    that point is not finite; without it, and at the first step, it is the
    plain point g."""
    if dense:
        reference = sys.process.op.entries.real
        clip, affine = _dense_sector_clip, partial(affine_project, sys)
    else:
        reference, clip = sys.layout.reference, _block_sector_clip
        affine = partial(probe._affine, sys, sys.layout)
        start = start.reshape(-1)[sys.layout.entries]
    x = affine(start)
    p = np.zeros_like(x)
    f_prev = g_prev = None
    dist = sqrt(_real_dot(x - reference, x - reference))
    iters = 0
    for iters in range(1, MAX_ITER + 1):
        shifted = x + p
        y = clip(sys, shifted)
        p = shifted - y
        g = affine(y)
        f = g - x
        step = sqrt(_real_dot(f, f))
        dist = sqrt(_real_dot(g - reference, g - reference))
        if step <= 1e-13 or dist <= TOL:
            return g, dist, iters
        x = g
        if secant and f_prev is not None:
            df = f - f_prev
            denom = _real_dot(df, df)
            if denom > 0:
                mixed = g - (_real_dot(df, f) / denom) * (g - g_prev)
                if np.isfinite(mixed).all():
                    x = mixed
        f_prev, g_prev = f, g
    return g_prev, dist, iters


# --- the probe's storage and residual, from the dense process ----------------------


def constraint_residual(sys, x: np.ndarray) -> float:
    """||P_in(x - reference)||_F, the root sum of squared action deviations over
    any orthonormal spanning family: at least the largest single deviation."""
    layout = probe._layout(sys, (np.arange(len(x)),))
    return probe._norm(probe._project(sys, layout, x.reshape(-1) - layout.reference))


# Axis orders that bring each slot's row and column input index together,
# (a, [b,] o, a', [b',] o') -> (a, a', [b, b',] o, o'), and back.
_SLOT_PAIR_AXES = {1: ((0, 2, 1, 3), (0, 2, 1, 3)),
                   2: ((0, 3, 1, 4, 2, 5), (0, 2, 4, 1, 3, 5))}


def pair_table_layout(sys, sectors) -> _Layout:
    """``probe._layout`` on ``sectors``, read off the dense reference and an
    n^2 table of the slot-pair position of every matrix entry."""
    reference = sys.process.op.entries.real
    n, slots, k = len(reference), sys.process.slots, isqrt(len(sys.slot_projector))
    order, inverse = _SLOT_PAIR_AXES[slots]
    dims = ((k,) * slots + (n // k ** slots,)) * 2
    pair = np.arange(n * n).reshape([dims[a] for a in order]).transpose(inverse).reshape(-1)
    offsets = np.cumsum([0] + [len(s) ** 2 for s in sectors])
    entries = np.concatenate([(s[:, None] * n + s).ravel() for s in sectors])
    transpose = np.concatenate([o + np.arange(len(s) ** 2).reshape(len(s), -1).T.ravel()
                                for o, s in zip(offsets, sectors)])
    return _Layout(entries, pair[entries], transpose, reference.reshape(-1)[entries],
                   tuple(offsets.tolist()))
