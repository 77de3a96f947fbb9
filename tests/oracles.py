"""Independent reference routes that the tests check the package against.

None of this is used by the certificates.  ``link``, ``apply_one_slot``
and ``apply_two_slot`` contract W with a dense d^2 x d^2 input operator per
slot, or with a stack of them in one contraction, vector by vector or as
the dense matrix; they are the reference that ``switch.unitary_actions``,
the package's only contraction of W, is checked against, one Kraus
operator (or Kraus pair) at a time.  ``eigen_stack`` gives a Hermitian
matrix as a process, its eigenvectors weighted by its eigenvalues, and
``with_entries`` a process with edited entry pairs, exactly.  The dense
label route (tensor with identities,
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
secant step or plain, with fresh arrays at every step, on the probe's
orbit coordinates with its own kernels or on dense matrices with the PSD
projection made sector by sector.  ``constraint_residual`` is the probe's
affine residual of a dense matrix.  ``slot_pair_product`` and
``full_buffer_project`` multiply a dense matrix or a block vector by the
d^4 x d^4 ``span_projector`` through a buffer of all n^2 slot-pair
entries, every output pair included, which the probe's partial traces
must match.
``sectors_of`` and ``entries_of`` give a system's charge sectors and the
matrix index of each stored block entry, and ``random_hermitian_direction``
draws a dense unit Hermitian direction from a numpy generator, as test
input.  ``SIGN_TABLES`` holds the hand-written charge signs of each unique
kind, and ``table_sectors`` the sectors they give: the independent
reference for the sectors the probe derives from the process.
``switch_involutions`` writes the switch's slot swap with the control flip
and its qudit reversal as index permutations from the basis digits, and
``offered_involutions`` the qudit reversal of any process besides;
``involutions_of`` keeps those a system's reference keeps, ``group_twirl``
averages a dense matrix over the group they generate, and
``invariant_dimension`` counts the invariant sector-block matrices by
Burnside's lemma.
"""

from __future__ import annotations

import itertools
import string
from dataclasses import dataclass
from functools import partial
from math import isqrt, sqrt

import numpy as np

from switchcert.channels import choi_from_kraus
from switchcert.linalg import Operator, frobenius, min_eigenvalue
from switchcert import probe
from switchcert.probe import MAX_ITER, TOL, psd_project
from switchcert.span import span_projector
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
    """The link product Tr_in[W (X^t (x) 1_out)] for an input-space operator X,
    or for each of a stack of them along leading axes.

    ``w`` is either the process vector of a pure W = |w><w|, contracted as
    Wm^T X conj(Wm) with Wm = w.reshape(nin, nout), or the dense matrix W,
    contracted with a stack in one BLAS product, which copies W once, and
    with a single X in place.
    """
    nin = x.shape[-1]
    if w.ndim == 1:
        wm = w.reshape(nin, -1)
        return wm.T @ x @ wm.conj()
    nout = w.shape[0] // nin
    return np.einsum("aobp,...ab->...op", w.reshape(nin, nout, nin, nout), x,
                     optimize=x.ndim > 2)


def _link_process(proc: Process, x: np.ndarray, dense: bool) -> np.ndarray:
    """``link`` of each vector of the stack, weighted and summed, or with
    ``dense`` of the dense matrix ``proc.op``."""
    if dense:
        return link(proc.op.entries, x)
    return sum(s * link(v, x) for s, v in zip(proc.weights, proc.vectors))


def eigen_stack(d: int, matrix: np.ndarray) -> Process:
    """The process of a Hermitian matrix: its eigenvectors, weighted by its
    eigenvalues."""
    w, v = np.linalg.eigh(matrix)
    return Process(d, v.T, w)


def with_entries(proc: Process, edits) -> Process:
    """``proc`` with W[r, c] = value and W[c, r] = conj(value) for each
    (r, c, value) of ``edits``, r != c, a pair listed twice counting once.
    The change e = value - W[r, c] is added as (x x^H - y y^H) / 2 with
    x, y = e_r +- conj(e) e_c: W[r, c] reads (W[r, c] + e/2) + e/2, W[r, r]
    and W[c, c] gain a term and lose it again, and every entry off rows and
    columns r and c is as it was.  So the edits the tests make, to 0, 0.5,
    1 or 1e-300 (times 1 or i) from 0 or 1, are exact, and the diagonal
    keeps its exact values."""
    vectors, weights = [proc.vectors], [proc.weights]
    for (r, c), value in {(min(r, c), max(r, c)): v if r < c else np.conj(v)
                          for r, c, v in edits}.items():
        e = value - proc.entry(r, c)
        pair = np.zeros((2, proc.size), dtype=complex)
        pair[:, r], pair[:, c] = 1.0, (np.conj(e), -np.conj(e))
        vectors.append(pair)
        weights.append((0.5, -0.5))
    return Process(proc.d, np.concatenate(vectors), np.concatenate(weights))


def _slot_matrix(x, d: int, slot: int) -> np.ndarray:
    m = np.asarray(x, dtype=complex)
    if m.shape[-2:] != (d * d, d * d):
        raise ValueError(f"slot-{slot} operator must be {d * d} x {d * d}")
    return m


def apply_two_slot(proc: Process, a, b, dense: bool = False) -> np.ndarray:
    """Choi matrix of the output channel, Tr_in[W (I (x) A (x) B (x) I)^t].

    Only the slot systems are transposed; the identity factors on the global
    past/future are transpose-invariant, so this equals the full transpose.
    ``a`` and ``b`` are d^2 x d^2 matrices: Choi matrices of slot channels or
    arbitrary operators (linearity in each slot holds for any operator), or
    stacks of them along a leading axis, which give the stack of outputs.
    W is contracted vector by vector, or as its dense matrix with ``dense``.
    """
    d = proc.d
    if proc.slots != 2:
        raise ValueError("apply_two_slot needs a two-slot process")
    amat = _slot_matrix(a, d, 1)[..., :, None, :, None]
    bmat = _slot_matrix(b, d, 2)[..., None, :, None, :]
    x = (amat * bmat).reshape(*np.broadcast_shapes(amat.shape, bmat.shape)[:-4], d ** 4, d ** 4)
    return _channel_order(_link_process(proc, x, dense), d)


def apply_one_slot(proc: Process, j, dense: bool = False) -> np.ndarray:
    """Output Choi matrix Tr_IO[C (J^t (x) I_PF)] on the past/future pair,
    contracted as ``apply_two_slot`` contracts it."""
    if proc.slots != 1:
        raise ValueError("apply_one_slot needs a one-slot process")
    return _link_process(proc, _slot_matrix(j, proc.d, 1), dense)


# --- Kraus route -----------------------------------------------------------------


def random_kraus_channel(d: int, kraus_rank: int, seed) -> np.ndarray:
    """Random CPTP channel on C^d with the given number of Kraus operators,
    stacked.

    Built from a Haar-random isometry C^d -> C^(kraus_rank * d), the standard
    construction for sampling channels of bounded Kraus rank.
    """
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    g = (rng.standard_normal((kraus_rank * d, d))
         + 1j * rng.standard_normal((kraus_rank * d, d))) / np.sqrt(2)
    q, _ = np.linalg.qr(g)
    return q.reshape(kraus_rank, d, d)


def switch_kraus_output(k: np.ndarray, l: np.ndarray) -> np.ndarray:
    """Kraus-level switch output of two Kraus stacks:
    W_ij = |0><0| (x) L_j K_i + |1><1| (x) K_i L_j."""
    d = k.shape[-1]
    if not k.shape[1:] == l.shape[1:] == (d, d):
        raise ValueError("both slot channels must be square and equal-dimensional")
    ops = []
    for ki in k:
        for lj in l:
            w = np.zeros((2 * d, 2 * d), dtype=complex)
            w[:d, :d] = lj @ ki
            w[d:, d:] = ki @ lj
            ops.append(w)
    return choi_from_kraus(ops)


def is_cptp(ch, tol: float = 1e-9) -> bool:
    """Whether a channel on C^d, given by a Kraus stack or by its Choi matrix
    J, is completely positive (J >= -tol) and trace preserving (Tr_O J = 1_I)."""
    j = choi_from_kraus(ch) if np.ndim(ch) == 3 else np.asarray(ch)
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


def _real_dot(a: np.ndarray, b: np.ndarray, weights=None) -> float:
    """<a, b> of two real arrays, summed by ``np.einsum`` as the probe sums
    it, each product counted ``weights`` times if given."""
    if weights is None:
        return float(np.einsum("i,i->", a.ravel(), b.ravel()))
    return float(np.einsum("i,i,i->", weights, a.ravel(), b.ravel()))


def _dense_sector_clip(sys, x: np.ndarray) -> np.ndarray:
    """The PSD projection of each sector block of the matrix x, 0 off them."""
    y = np.zeros_like(x)
    for s in sectors_of(sys):
        y[np.ix_(s, s)] = psd_project(x[np.ix_(s, s)])
    return y


def dykstra_start(sys, start: np.ndarray, secant: bool = True, dense: bool = False):
    """Dykstra's alternating projections from the real matrix ``start``,
    allocating the shifted point, the correction, every projection and the
    secant point anew at each step; returns the last plain affine iterate,
    its distance to the reference and the iterations run.  The iterates are
    the probe's orbit coordinates of ``sys.layout``, read off ``start`` at
    each orbit's first entry and clipped and projected by the probe's own
    kernels, with norms weighted by the orbit sizes; or with ``dense`` n x n
    matrices, whose PSD projection clips each whole sector block and leaves
    0 off them.

    With ``secant`` the next iterate is g - gamma (g - g_prev), gamma =
    <df, f> / ||df||^2 for f = g - x and df = f - f_prev, unless df = 0 or
    that point is not finite; without it, and at the first step, it is the
    plain point g."""
    if dense:
        reference, clip, weights = sys.process.op.entries.real, _dense_sector_clip, None

        def affine(x):
            return probe._affine(sys.dense_layout, x.reshape(-1)).reshape(x.shape)
    else:
        layout = sys.layout
        reference, clip, weights = layout.reference, probe._clip, layout.weights
        affine = partial(probe._affine, layout)
        start = start.reshape(-1)[entries_of(sys)][np.unique(layout.orbits, return_index=True)[1]]
    x = affine(start)
    p = np.zeros_like(x)
    f_prev = g_prev = None
    dist = sqrt(_real_dot(x - reference, x - reference, weights))
    iters = 0
    for iters in range(1, MAX_ITER + 1):
        shifted = x + p
        y = clip(sys, shifted)
        p = shifted - y
        g = affine(y)
        f = g - x
        step = sqrt(_real_dot(f, f, weights))
        dist = sqrt(_real_dot(g - reference, g - reference, weights))
        if step <= 1e-13 or dist <= TOL:
            return g, dist, iters
        x = g
        if secant and f_prev is not None:
            df = f - f_prev
            denom = _real_dot(df, df, weights)
            if denom > 0:
                mixed = g - (_real_dot(df, f, weights) / denom) * (g - g_prev)
                if np.isfinite(mixed).all():
                    x = mixed
        f_prev, g_prev = f, g
    return g_prev, dist, iters


# --- the probe's storage and residual, from the dense process ----------------------


def random_hermitian_direction(n: int, rng) -> np.ndarray:
    """A random n x n Hermitian matrix of unit Frobenius norm: g + g^H for
    complex normals g, the real parts drawn before the imaginary ones."""
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    h = np.conjugate(g.T, order="C")  # 2x the Hermitian part; a copy beats a view
    h += g
    return h / frobenius(h)


def switch_involutions(d: int) -> tuple:
    """The switch's slot swap with both control qubits flipped, and its
    reversal of every qudit digit, as index permutations g of the basis in
    CANONICAL_ORDER: g[i] is the index of the image of basis state i."""
    digits = np.indices((d,) * 6 + (2, 2)).reshape(8, -1)
    i1, o1, i2, o2, pt, ft, pc, fc = digits
    swapped = (i2, o2, i1, o1, pt, ft, 1 - pc, 1 - fc)
    reversed_ = tuple(d - 1 - x for x in digits[:6]) + (pc, fc)
    shape = (d,) * 6 + (2, 2)
    return tuple(np.ravel_multi_index(image, shape) for image in (swapped, reversed_))


def offered_involutions(process: Process) -> tuple:
    """The reversal of every qudit digit and, for two slots, first the slot
    swap with the control flip (``switch_involutions``), as index
    permutations from the basis digits: every process is offered these."""
    if process.slots == 2:
        return switch_involutions(process.d)
    dims = (process.d,) * 4  # I, O, P, F
    return (np.ravel_multi_index(process.d - 1 - np.indices(dims).reshape(4, -1), dims),)


def involutions_of(sys) -> tuple:
    """The involutions the probe's start and clip twirl over: those of
    ``offered_involutions`` that fix the process's matrix exactly on every
    stored entry and map each sector onto a sector, read entry by entry
    through ``Process.entry``."""
    sectors, n = sectors_of(sys), sys.process.size
    rows, cols = np.divmod(entries_of(sys), n)
    kept = {tuple(s) for s in sectors}
    return tuple(g for g in offered_involutions(sys.process)
                 if np.array_equal(sys.process.entry(g[rows], g[cols]),
                                   sys.process.entry(rows, cols))
                 and all(tuple(np.sort(g[s])) in kept for s in sectors))


def group_of(sys) -> list:
    """Every element of the group the involutions of ``involutions_of``
    generate, the identity first, as index permutations."""
    group = [np.arange(sys.process.size)]
    for g in involutions_of(sys):
        group += [g[e] for e in group]
    return group


def group_twirl(sys, x: np.ndarray) -> np.ndarray:
    """The average of the n x n matrix x over the group of
    ``involutions_of``, made one involution g at a time as (x + x[g, g]) / 2,
    the order in which a probe start twirls its draw."""
    for g in involutions_of(sys):
        x = (x + x[np.ix_(g, g)]) / 2
    return x


def invariant_dimension(sys) -> int:
    """The real dimension of the group-invariant Hermitian sector-block
    matrices, the number of orbits of the block entries, by Burnside's
    count: the mean over the group of the entries an element fixes."""
    fixed = [sum(np.count_nonzero(g[s] == s) ** 2 for s in sectors_of(sys))
             for g in group_of(sys)]
    return sum(fixed) // len(fixed)


def sectors_of(sys) -> tuple:
    """The basis indices of each charge sector of ``sys``'s block storage:
    one sector of every kept index for the cp_family."""
    kept = probe._kept(sys.process)
    return (kept,) if sys.kind == "cp_family" else probe._charge_sectors(sys.process, kept)


# Per unique kind, the hand-written charge signs of the tensor factors in
# storage order: a diagonal unitary with phases t acts on each factor as t,
# conj(t) or not at all, and fixes the kind's reference.  The switch's
# control qubit is uncharged.
SIGN_TABLES = {"identity": (1, -1, -1, 1), "switch": (1, -1, 1, -1, -1, 1, 0, 0),
               "transpose": (1, -1, 1, -1), "conjugate_qubit": (1, -1, 1, -1)}


def table_sectors(kind: str, process: Process) -> tuple:
    """The kept indices of each nonempty charge sector of the kind's sign
    table, in the order of their charge vectors: an index's charge is the
    signed count of each of its digit values."""
    d, signs = process.d, SIGN_TABLES[kind]
    dims = (d,) * 4 if len(signs) == 4 else (d,) * 6 + (2, 2)
    digits = np.indices(dims).reshape(len(dims), -1, 1) == np.arange(d)
    charge = (np.reshape(signs, (-1, 1, 1)) * digits).sum(axis=0)
    label = np.unique(charge, axis=0, return_inverse=True)[1].reshape(-1)
    kept = probe._kept(process)
    return tuple(kept[label[kept] == q] for q in np.flatnonzero(np.bincount(label[kept])))


def entries_of(sys) -> np.ndarray:
    """The flat matrix index of each entry of ``sys``'s block vectors."""
    n = sys.process.size
    return np.concatenate([(s[:, None] * n + s).ravel() for s in sectors_of(sys)])


def constraint_residual(sys, x: np.ndarray) -> float:
    """||P_in(x - reference)||_F, the root sum of squared action deviations over
    any orthonormal spanning family: at least the largest single deviation."""
    layout = sys.dense_layout
    return frobenius(probe._project(layout, x.reshape(-1) - layout.reference))


def _buffer_product(slot, slots: int, n: int, flat: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The d^4 x d^4 matrix ``slot`` on each slot's input index pair of the
    n x n matrix with entries v at the flat indices ``flat`` and 0 elsewhere,
    at those indices: v is scattered into a zeroed slot-pair buffer
    (a, a', [b, b',] o, o') of all n^2 entries, multiplied there, slot by
    slot, and gathered back."""
    kk = len(slot)
    dims = (isqrt(kk),) * slots + (n // isqrt(kk) ** slots,)
    rows, cols = np.divmod(flat, n)
    digits = zip(np.unravel_index(rows, dims), np.unravel_index(cols, dims))
    positions = np.ravel_multi_index([x for pair in digits for x in pair],
                                     [x for x in dims for _ in range(2)])
    t = np.zeros(n * n, dtype=v.dtype)
    t[positions] = v
    for j in range(slots):  # slot j: batched over the pairs before it
        t = np.matmul(slot, t.reshape(kk ** j, kk, -1))
    return t.reshape(-1)[positions]


def slot_pair_product(slot, slots: int, y: np.ndarray) -> np.ndarray:
    """``_buffer_product`` on every entry of the n x n matrix y; a complex y
    is multiplied as one."""
    n = len(y)
    return _buffer_product(slot, slots, n, np.arange(n * n), y.reshape(-1)).reshape(n, n)


def full_buffer_project(sys, v: np.ndarray) -> np.ndarray:
    """``_buffer_product`` of span{J_U}'s projector on the matrix stored as v
    in ``sys.layout``, every output pair included.  A complex v is
    projected as its real and imaginary parts, as the projector is real."""
    if np.iscomplexobj(v):
        return full_buffer_project(sys, v.real) + 1j * full_buffer_project(sys, v.imag)
    return _buffer_product(span_projector(sys.process.d), sys.process.slots,
                           sys.process.size, entries_of(sys), v)
