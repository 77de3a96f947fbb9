"""Empirical uniqueness probe via alternating projections (Dykstra scheme).

A process is pinned down by two convex constraints: positivity of its matrix
and an affine set fixing its action on a spanning family of unitary-channel
Choi operators.  Starting from random perturbations of a reference process,
alternating projections converge to a point of the intersection.  Each
iteration adds a secant step, Anderson acceleration with memory 1
(``_secant_point``), to the affine iterate and keeps Dykstra's correction;
a d = 2 switch start then takes about 20 iterations.
Every start stops within TOL of the reference and is checked against both
constraints within FEAS_TOL.  It ends on an affine point, whose residual is
rounding, and, every reference being PSD, Weyl's inequality gives it a least
eigenvalue >= -TOL if it stopped on TOL: so, as FEAS_TOL >= TOL, the two
checks can fail only for a start that stops on the 1e-13 step rule, at
MAX_ITER, or on a non-finite value.  Only the kinds that claim uniqueness
run starts: the deliberately non-unique C_p family is certified by its
witness, a feasible point far from the reference, found by secant-mixed
polishes of a generic affine point, each after the first following the
last witness out while it lies short of WITNESS_THRESHOLD, at most
WITNESS_POLISHES in all (``_find_witness``).

A probe problem is a ``ConstraintSystem``: a process and its kind.  The
reference is the process's matrix, read (``Process.entry``) only at the
entries the probe stores; the slot count and dimensions are read off the
process.  As the row space of the constraint map is (slot span)^(x slots)
(x) L(out), the orthogonal projection onto the affine set applies to the
difference from the reference, slot by slot, the projector onto span{J_U}
= C 1 (+) (traceless (x) traceless): three partial traces (``_slot_map``),
each a sum over segments of the stored entries (``_project``).  The PSD
projection clips a stack of matrices in one stacked eigensolve
(``psd_project``), and the probe's clip makes one such call per block size.

The starts of the kinds that claim uniqueness run in real symmetric
arithmetic, and lose nothing by it.  With a real reference and a real
projector, X -> conj(X) maps the feasible set onto itself, and so does
X -> Re X = (X + conj(X)) / 2, by convexity.
Lemma: if W = |w><w| is pure and X != W is feasible, then Re X is a real
feasible point other than W.  Proof: if Re X = W, then X <= X + conj(X) =
2W, as conj(X) is PSD, so the range of X lies in span{w} and X = cW; the
identity lies in each slot's span{J_U}, so the constraints fix the trace
of X to that of W, c = 1 and X = W.  So a pure process has a second
feasible point iff it has a real one, and a probe over real symmetric
iterates tests the same claim.  The reference must therefore be real.  The
C_p witness, which is feasible whether it is real or not, stays complex.

The kinds that claim uniqueness also run in charge sectors.  A product V
of per-factor phase diagonals scales basis index r by exp(i t.e(r)), e(r)
the indicator of r's digits, and fixes W if t.(e(r) - e(r0)) = 0 for all
r, r0 on one stack vector's support.  Such t form a torus; an index's
charge is e(r) in an integer basis of them, and a sector the indices of
one charge (``_charge_sectors``; Gatermann & Parrilo, J. Pure Appl.
Algebra 192, 2004).  The torus twirl T(X) = int V X V^H dV
keeps X on the sector blocks and zeroes it off them.  V acts on a slot as
A_I (x) B_O, which keeps 1 and the traceless parts, so the slot projector
commutes with T; the reference is T-invariant, so T maps the feasible set
onto itself.
Lemma: if W = |w><w| is pure and T-invariant and X != W is feasible, then
T(X) is a feasible point other than W.  Proof: V w is a multiple of w, so
V^H u is orthogonal to w whenever u is; if T(X) = W, then for such u the integral
of <V^H u, X V^H u> over V is <u, W u> = 0, with a continuous non-negative
integrand, so <u, X u> = 0 and, X being PSD, X u = 0; the range of X lies
in span{w}, and X = W as above.  With the Re-lemma, a pure process has a
second feasible point iff it has a real sector-block-diagonal one.  So the
probe stores a matrix as the vector of its sector blocks' entries
(``_Layout``): a start's direction is drawn on the blocks alone, the PSD
projection clips each block, and the affine map keeps them.  The C_p
family keeps one sector: the lemmas are for a reference that claims
uniqueness, and its witness needs none, as it is checked as it is.

Every kind stores only the outputs o that the slot marginal of W reaches.
The identity lies in each slot's span{J_U}, so the constraints fix
Tr_slots X = Tr_slots W.  Lemma: if X is feasible and (Tr_slots W)_oo = 0,
then X is 0 on every row and column (a, o).  Proof: the diagonal entries
X_(a,o),(a,o) of the PSD X are non-negative and sum over a to 0, so each
is 0, and a PSD matrix is 0 on the row and column of a zero diagonal
entry.  So every feasible point, W included, lies on the kept indices
K = {(a, o) : (Tr_slots W)_oo != 0} (facial reduction: Borwein &
Wolkowicz, 1981), and as the slot projector acts on the input index pairs
alone, it maps the matrices on K x K onto themselves: the probe loses
nothing by storing, clipping and projecting there alone (``_kept``).  The
sectors partition K, involutions are kept only if they map K onto itself,
and a process whose exact support leaves K is refused.  The switch keeps
PC = FC, half its indices, C_1 P F in {00, 11}, the others every index.

The probe twirls further, over G = T x H (the product is semidirect, as R
reverses the torus's phases).  Every process is offered R, which maps every
qudit digit i to d - 1 - i, and a two-slot one also S, which swaps the
slots (I1, O1) and (I2, O2) and flips both control qubits
(``_involutions``); H is generated by those that fix the stored reference
exactly and map each sector onto a sector (``_symmetry``).  S maps the
U1U2 branch of the switch's w onto the U2U1 branch, and R maps each branch
onto itself.  Each is a real permutation P of the basis that commutes with
the slot projector (S exchanges two slots that carry the same projector,
and R acts on each slot as V (x) V for the real reversal V, which maps
every J_U onto J_(V U V^T)), so a kept P maps the feasible set onto
itself.  Lemma: if W = |w><w| is pure and G-invariant and X != W is
feasible, then the average Z of P T(X) P^T over H is a G-invariant
sector-block-diagonal feasible point other than W.  Proof: Y = T(X) is
feasible and not W by the torus lemma, each P Y P^T is feasible and
sector-block-diagonal, and so is their mean Z, by convexity; if Z = W,
then Y <= |H| W, as the other terms are PSD, so the range of Y lies in
span{w} and Y = W as above, which it is not.  So a pure G-invariant
process has a second feasible point iff it has a real,
sector-block-diagonal, G-invariant one.  The C_p family keeps R too, with
no lemma: R fixes C_1, so the twirled search seeks an R-invariant witness
of the same problem, and the final checks certify whatever it finds as it
is; it stays complex, as a real search missed the witness at some seeds.

The probe stores a G-invariant matrix as one coordinate per G-orbit of its
block entries (``_Layout``): 924 coordinates for the 3,696 entries of the
d = 2 switch.  A norm or inner product weights each coordinate by its
orbit size, and the transpose maps orbits onto orbits.  The slot maps
commute with each other, and their product with G, but S exchanges the
two slots, so the first slot's map alone would leave the invariant
matrices; the sum B of the slot maps less 1 does not, and their product
is a polynomial in B (``_project``), applied in the coordinates by one
fixed sparse map.  On
a G-invariant matrix a sector's stabiliser in H acts by permuting its
indices; in a real orthogonal basis of character sums over the index
orbits the sector's block splits into one isotypic block per character,
and a sector that H maps onto an earlier one holds a copy of that one's
block.  So the clip (``_clip``) reads each isotypic block of each
representative sector off the coordinates through one fixed sparse map,
clips them in one stacked solve per block size, and takes them back
through the transpose of that map, each coordinate divided by the number
of its entries the representative sector holds: for the switch 10 blocks
of at most 15 at d = 2 and 46 of at most 60 at d = 3.  The start is
twirled over H, and the affine map, Dykstra's correction and the secant
step keep G-invariance, as the reference is invariant and the projector
commutes with each element of G.  The final checks expand the coordinates
to every whole sector block and take its least eigenvalue there: the
clip's bases, cuts and maps play no part in them, so a fault in that plan
could slow the search but not pass a matrix that is not PSD.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .channels import SampleStream
from .linalg import frobenius, min_eigenvalue, real_dot
from .report import CertificateReport, Timer, check_leq, check_true, make_report, nan_max
from .span import span_dimension_formula, span_projector, vec_kron
# The probe never calls build_switch_choi: bench/test_tracer.py:71 traces this alias.
from .switch import Process, build_switch_choi, switch_choi_vector  # noqa: F401
from .uniqueness import (
    build_cp_family,
    build_derived_one_slot,
    build_identity_process,
)

# Per kind: its default process and the slot dimensions d its probe supports.
# The builders are looked up when called, so rebinding their names takes effect.
KINDS = {
    "identity": (lambda d: build_identity_process(d), range(2, 5)),
    "switch": (lambda d: Process(d, switch_choi_vector(d)), range(2, 3)),
    "transpose": (lambda d: build_derived_one_slot("transpose", d), range(2, 5)),
    "conjugate_qubit": (lambda d: build_derived_one_slot("conjugate_qubit", d), range(2, 3)),
    "cp_family": (lambda d: build_cp_family(1.0), range(2, 3)),
}
MAX_ITER = 5000  # Dykstra iterations per start
TOL = 1e-6  # distance to the reference at which a start has converged
FEAS_TOL = 1e-6  # feasibility bound of the final checks and of the witness polish's stop
WITNESS_AMPLITUDE = 0.25  # norm of the escape direction the witness polish starts from
WITNESS_THRESHOLD = 0.1  # distance from the reference a cp_family witness must reach
WITNESS_MAX_ITER = 400_000  # evaluations the witness polishes may take in all
WITNESS_POLISHES = 4  # polishes the witness search may run


@dataclass(frozen=True)
class ConstraintSystem:
    """The probe problem of a process: the PSD cone and the affine set of
    Hermitian matrices whose action on span{J_U} in each slot is the
    process's.  ``kind`` names it; the rest is read off ``process``, whose
    matrix must be real: ``symmetry`` holds the involutions it keeps and
    the clip's plan, and ``layout`` stores a matrix on its charge sectors,
    which must partition the kept indices, one coordinate per orbit of the
    group they generate (module docstring).
    """

    kind: str
    process: Process
    symmetry: _Symmetry = field(init=False, repr=False)
    layout: _Layout = field(init=False, repr=False)

    def __post_init__(self):
        _row(self.kind)
        kept = _kept(self.process)
        if not np.isin(np.concatenate(self.process.support()), kept).all():
            raise ValueError(f"the {self.kind} process has entries off its kept outputs")
        sectors = (kept,) if self.kind == "cp_family" else _charge_sectors(self.process, kept)
        if not np.array_equal(np.sort(np.concatenate(sectors)), kept):
            raise ValueError(f"the {self.kind} sectors do not partition the kept indices")
        symmetry = _symmetry(self.process, sectors, _involutions(self.process))
        object.__setattr__(self, "symmetry", symmetry)
        object.__setattr__(self, "layout", _layout(self, sectors, symmetry.orbits))

    @functools.cached_property
    def dense_layout(self) -> _Layout:
        """The layout of one sector of every index and no involution, whose
        coordinates are a matrix's ravel: ``affine_project``'s, built on
        its first use and kept."""
        return _layout(self, (np.arange(self.process.size),))

    @property
    def family_rank(self) -> int:
        """Rank of the constraint family: the one-slot map's trace (a part of k
        traced digits meets d^(4 - k) entries) to the slot count's power."""
        d, slots = self.process.d, self.process.slots
        return round(d ** 4 + sum(c * d ** (4 - len(t)) for t, c in _slot_map(d))) ** slots

    @property
    def in_projector(self) -> np.ndarray:
        """The dense projector on the whole input index pair (the tensor square
        of the slot projector for the switch); a reference, never formed by
        the probe itself."""
        slot = span_projector(self.process.d).astype(complex)
        return slot if self.process.slots == 1 else vec_kron(slot, slot)


def build_constraint_system(kind: str, d: int, process: Process | None = None, *,
                            seed=None) -> ConstraintSystem:
    """The constraint system of ``process``, by default the kind's own
    process at slot dimension d.

    A given process must have slot dimension d, the slot count of the
    kind's own process and a real matrix.  The system is exact, so ``seed``
    is unused.  d must lie in the kind's range in ``KINDS``.
    """
    default, dims = _row(kind)
    if d not in dims:
        raise ValueError(f"the {kind} probe supports d = {', '.join(map(str, dims))}, not {d}")
    if process is not None and (process.d, process.slots) != (d, default(d).slots):
        raise ValueError(f"the {kind} probe needs a {default(d).slots}-slot process at d = {d}")
    return ConstraintSystem(kind, default(d) if process is None else process)


def _row(kind: str) -> tuple:
    """The kind's row of ``KINDS``."""
    if kind not in KINDS:
        raise ValueError(f"unknown probe kind {kind!r}; choose from {tuple(KINDS)}")
    return KINDS[kind]


def _kept(process: Process) -> np.ndarray:
    """The basis indices (a, o), ascending, of the outputs o whose diagonal
    entries W[(a, o), (a, o)] are not all exactly 0, read through
    ``Process.entry``: every other output has (Tr_slots W)_oo = 0 exactly,
    with no sum that could round or overflow."""
    index = np.arange(process.size).reshape(process.nin, process.nout)
    return index[:, (process.entry(index, index) != 0).any(axis=0)].reshape(-1)


def _charge_sectors(process: Process, kept: np.ndarray) -> tuple:
    """The ``kept`` indices of each charge sector (module docstring) in the
    order of their charges, e(r) being row r of ``e``, one column per factor
    and digit.  Each distinct torus row goes to the elimination once, in
    the order of its first appearance.  A process whose support leaves the
    sectors is refused."""
    dims, n = process.dims, process.size
    digits = np.indices(dims).reshape(len(dims), -1)  # (factor, index)
    e = np.zeros((n, sum(dims)), dtype=np.int64)
    e[np.arange(n), digits + np.cumsum((0, *dims[:-1]))[:, None]] = 1
    torus = np.concatenate([e[s[1:]] - e[s[:1]] for s in map(np.flatnonzero, process.vectors)])
    torus = torus.astype(np.int8)  # entries -1, 0 and 1, a row one byte string
    first = np.unique(torus.view(np.dtype((np.void, torus.shape[1]))), return_index=True)[1]
    basis = np.array(_null_basis(torus[np.sort(first)].tolist(), sum(dims)), dtype=np.int64)
    _, label = np.unique(e @ basis.T, axis=0, return_inverse=True)
    label, (rows, cols) = label.reshape(-1), process.support()
    if not np.array_equal(label[rows], label[cols]):
        raise ValueError("the process's support leaves its charge sectors")
    return tuple(kept[label[kept] == q] for q in np.flatnonzero(np.bincount(label[kept])))


def _null_basis(rows: list, n: int) -> list:
    """An integer basis of the null space of the integer ``rows`` of length
    n, one vector per free column, ascending: fraction-free Gauss-Jordan
    elimination in Python ints, each new row divided by its entries' gcd."""
    pivots = {}  # pivot column -> its row, 0 at every other pivot column
    for row in rows:
        for p, r in pivots.items():
            row = [r[p] * x - row[p] * y for x, y in zip(row, r)] if row[p] else row
        if any(row):
            j, g = next(j for j, x in enumerate(row) if x), math.gcd(*row)
            row = [x // g for x in row]
            for p, r in pivots.items():
                pivots[p] = [row[j] * x - r[j] * y for x, y in zip(r, row)] if r[j] else r
            pivots[j] = row
    lcm = math.lcm(*(r[p] for p, r in pivots.items()))
    basis = [[-lcm // pivots[i][i] * pivots[i][f] if i in pivots else lcm * (i == f)
              for i in range(n)] for f in range(n) if f not in pivots]
    return [[v // g for v in x] for x in basis for g in (math.gcd(*x),)]


@dataclass(frozen=True)
class _Map:
    """A fixed sparse linear map: output r is the sum of coef * x[cols] over
    the terms whose row is r, and 0 with none, of ``size`` outputs.  The
    terms are summed by ``np.bincount`` in their stored order, a complex x
    as its real and imaginary parts."""

    rows: np.ndarray
    cols: np.ndarray
    coef: np.ndarray
    size: int

    def __call__(self, x: np.ndarray) -> np.ndarray:
        if np.iscomplexobj(x):
            return self(x.real) + 1j * self(x.imag)
        return np.bincount(self.rows, self.coef * x[self.cols], minlength=self.size)


def _sparse(rows: np.ndarray, cols: np.ndarray, coef: np.ndarray, size: int) -> _Map:
    """The ``_Map`` of the terms (rows, cols, coef), sorted by row and then
    column, a repeated pair's coefficients summed in the terms' order and
    a pair whose sum is exactly 0 dropped."""
    width = int(cols.max()) + 1 if len(cols) else 1
    keys, inverse = np.unique(rows * width + cols, return_inverse=True)
    coef = np.bincount(inverse.reshape(-1), coef, minlength=len(keys))
    keys, coef = keys[coef != 0], coef[coef != 0]
    rows, cols = np.divmod(keys, width)
    for a in (rows, cols, coef):
        a.flags.writeable = False
    return _Map(rows, cols, coef, size)


def _entries(sectors: tuple) -> tuple:
    """The row and column index of each entry of the block vector, the
    sector blocks' entries block by block, each block row-major, and the
    block offsets."""
    offsets = np.cumsum([0] + [len(s) ** 2 for s in sectors])
    rows, cols = (np.concatenate([f(s, len(s)) for s in sectors]) for f in (np.repeat, np.tile))
    return rows, cols, tuple(offsets.tolist())


@dataclass(frozen=True)
class _Layout:
    """A G-invariant matrix that is 0 off the sector blocks, stored as one
    coordinate per G-orbit of the block vector's entries (``_entries``),
    the orbits in the order of their first entry: each entry's coordinate
    (``orbits``), so that v[orbits] is the block vector, the block offsets,
    the orbit sizes (``weights``), each coordinate's transposed one, the
    reference's values, the slot count and the map of the slot sum B
    (``_project``).  With no involution every entry is an orbit; one
    sector of every index is then the ravel."""

    orbits: np.ndarray
    offsets: tuple
    weights: np.ndarray
    transpose: np.ndarray
    reference: np.ndarray
    slots: int
    slot_sum: _Map


def _slot_map(d: int) -> tuple:
    """One slot's projector onto span{J_U}, X - 1_I/d (x) Tr_I X - Tr_O X (x)
    1_O/d + (2/d^2) Tr_IO X (x) 1: per part, its traced digits and coefficient."""
    return ((0,), -1 / d), ((1,), -1 / d), ((0, 1), 2 / d ** 2)


def _layout(sys: ConstraintSystem, sectors: tuple, orbits: np.ndarray | None = None) -> _Layout:
    """The read-only storage on ``sectors`` of the process's matrices in
    the coordinates of ``orbits``, by default one per entry.

    Per slot and traced part of ``_slot_map``, the members are the entries
    whose traced digits (0 = I, 1 = O) agree, and a segment the members
    whose other digits match; B adds to each member its segment's sum
    times the part's coefficient.  B commutes with the group, so B of an
    invariant matrix is read at each orbit's first entry alone: one term
    per member of that entry's segment in each part, at the member's
    coordinate, the terms of one coordinate pair summed.  The reference,
    which must be real, is read at each orbit's first entry."""
    n, d = sys.process.size, sys.process.d
    rows, cols, offsets = _entries(sectors)
    orbits = np.arange(len(rows)) if orbits is None else orbits
    first = np.unique(orbits, return_index=True)[1]
    reference = sys.process.entry(rows[first], cols[first])
    if np.any(reference.imag):
        raise ValueError(f"the {sys.kind} probe needs a real process matrix")
    flip = np.concatenate([o + np.arange(len(s) ** 2).reshape(len(s), -1).T.ravel()
                           for o, s in zip(offsets, sectors)])
    is_first = np.zeros(len(rows), dtype=bool)
    is_first[first] = True
    terms = []  # (coordinate of a first entry, coordinate of a member of its segment, coefficient)
    for j in range(sys.process.slots):  # slot j's I, O digits: strides n/d^(2j+1), n/d^(2j+2)
        for traced, coeff in _slot_map(d):
            strides = [n // d ** (2 * j + 1 + t) for t in traced]
            r, c = (sum((x // s % d * s for s in strides), 0 * x) for x in (rows, cols))
            members = np.flatnonzero(r == c)
            keys = (rows * n + cols - r * (n + 1))[members]
            order = np.argsort(keys, kind="stable")
            members, keys = members[order], keys[order]
            starts = np.searchsorted(keys, keys)  # each member's segment: a run of keys
            sizes = np.searchsorted(keys, keys, side="right") - starts
            own = is_first[members]
            count = sizes[own]
            at = np.repeat(starts[own] - np.cumsum(count) + count, count) + np.arange(count.sum())
            terms.append((np.repeat(orbits[members[own]], count), orbits[members[at]],
                          np.full(count.sum(), coeff)))
    slot_sum = _sparse(*(np.concatenate(a) for a in zip(*terms)), len(first))
    arrays = (orbits, np.bincount(orbits).astype(float), orbits[flip[first]], reference.real.copy())
    for a in arrays:
        a.flags.writeable = False
    return _Layout(arrays[0], offsets, *arrays[1:], sys.process.slots, slot_sum)


def _blocks(layout: _Layout, v: np.ndarray) -> list:
    """The whole sector blocks of the matrix stored as v."""
    x, o = v[layout.orbits], layout.offsets
    return [x[a:b].reshape(2 * (math.isqrt(b - a),)) for a, b in zip(o, o[1:])]


def _involutions(process: Process) -> tuple:
    """Index permutations g of the basis, g[i] the index of the image of
    basis state i, that may fix the reference: for two slots the slot swap
    (I1, O1) <-> (I2, O2) with both control qubits flipped, and for every
    process the reversal i -> d - 1 - i of every qudit digit."""
    index = np.arange(process.size).reshape(process.dims)
    reverse = index[(slice(None, None, -1),) * (2 * process.slots + 2)].reshape(-1)
    if process.slots == 1:
        return (reverse,)
    return index.transpose(2, 3, 0, 1, 4, 5, 6, 7)[..., ::-1, ::-1].reshape(-1), reverse


@dataclass(frozen=True)
class _Symmetry:
    """The group G of the involutions a system keeps and the clip's plan
    for it: the kept involutions, as index permutations; the coordinate of
    each block-vector entry, one per G-orbit, in the order of each orbit's
    first entry (``orbits``); per representative of each orbit of sectors
    under G, its sector number, a real orthogonal basis adapted to its
    stabiliser, or None for a trivial one, and the cuts of the isotypic
    blocks in it (``clips``); per isotypic block size, ascending, the count
    and size of the blocks of that size (``stacks``); and the fixed maps
    from the coordinates to the stacked isotypic blocks, each stack's
    blocks one after another, row-major (``gather``), and back
    (``scatter``)."""

    involutions: tuple
    orbits: np.ndarray
    clips: tuple
    stacks: tuple
    gather: _Map
    scatter: _Map


def _symmetry(process: Process, sectors: tuple, involutions: tuple) -> _Symmetry:
    """The plan of the ``involutions`` that fix the process's matrix
    exactly on the stored entries and map each sector onto a sector, and
    so the kept set onto itself; with none kept, every entry is an orbit
    and every sector its own representative with one block."""
    n = process.size
    rows, cols, starts = _entries(sectors)
    reference = process.entry(rows, cols)
    label, where = np.full(n, -1, dtype=np.intp), np.empty(n, dtype=np.intp)
    for q, s in enumerate(sectors):
        label[s], where[s] = q, np.arange(len(s))

    def image(g):  # the block-vector position of g's image of each entry
        return np.concatenate([starts[label[g[s[0]]]] + (where[g[s]][:, None] * len(s)
                                                          + where[g[s]]).ravel()
                               for s in sectors])

    kept = []
    for g in involutions:
        # the sector each one must map onto, and -1 off the kept set: g must
        # map that onto itself, and so the kept set too
        onto = np.append(label[g[[s[0] for s in sectors]]], -1)
        if np.array_equal(label[g], onto[label]) and \
                np.array_equal(reference[image(g)], reference):
            kept.append(g)
    group = [(0, np.arange(n))]  # (bits of the kept involutions composed, permutation)
    for bit, g in enumerate(kept):
        group += [(b | 1 << bit, g[e]) for b, e in group]
    orbits = np.unique(np.minimum.reduce([image(g) for _, g in group]), return_inverse=True)[1]
    orbits = orbits.reshape(-1)
    clips, orbit_of = [], np.full(len(sectors), -1)
    for q, s in enumerate(sectors):
        if orbit_of[q] >= 0:
            continue
        stabiliser = []
        for bits, g in group:
            t = label[g[s[0]]]
            if t == q:
                stabiliser.append((bits, where[g[s]]))
            orbit_of[t] = q
        basis, cuts = _isotypic_basis(stabiliser, len(group), len(s))
        clips.append((q, basis, cuts))
    by_size = {}
    for q, basis, cuts in clips:
        k = len(sectors[q])
        basis = np.eye(k) if basis is None else basis
        for a, b in zip(cuts, cuts[1:]):
            by_size.setdefault(b - a, []).append((q, basis[:, a:b]))
    terms, stacks, base = [], [], 0
    for k in sorted(by_size):
        stacks.append((len(by_size[k]), k))
        for q, part in by_size[k]:  # block entry (a, b) = sum of part[i, a] part[j, b] X[i, j]
            i, a = np.nonzero(part)
            pos = starts[q] + i[:, None] * len(sectors[q]) + i
            terms.append((base + a[:, None] * k + a, orbits[pos], np.outer(part[i, a], part[i, a])))
            base += k * k
    rows, cols, coef = (np.concatenate([t.ravel() for t in a]) for a in zip(*terms))
    # the transposed map sums a clipped matrix over an orbit's entries in
    # its representative sector, which it holds in equal parts
    size = orbits.max() + 1
    held = np.bincount(orbits[np.concatenate([np.arange(starts[q], starts[q + 1])
                                              for q, _, _ in clips])], minlength=size)
    for a in [b for _, b, _ in clips if b is not None] + [orbits]:
        a.flags.writeable = False
    return _Symmetry(tuple(kept), orbits, tuple(clips), tuple(stacks),
                     _sparse(rows, cols, coef, base), _sparse(cols, rows, coef / held[cols], size))


def _isotypic_basis(stabiliser: list, characters: int, k: int) -> tuple:
    """A real orthogonal basis of R^k in which the matrices fixed by the
    stabiliser, given as (bits, permutation of range(k)) with the identity
    first, are block diagonal, and the block cuts; (None, (0, k)) for the
    identity alone.  A character c of the kept group takes the sign
    (-1)^popcount(bits & c) on an element; the columns of one character
    restricted to the stabiliser are its normalised sums over each orbit of
    indices, orbit by orbit in the order of their least index, and vanish
    on an orbit whose point stabiliser the character does not fix."""
    if len(stabiliser) == 1:
        return None, (0, k)
    perms = np.stack([p for _, p in stabiliser])
    reps = np.flatnonzero(perms.min(axis=0) == np.arange(k))
    signs = dict.fromkeys(tuple((-1) ** (bits & c).bit_count() for bits, _ in stabiliser)
                          for c in range(characters))
    parts = []
    for chi in signs:
        q = np.zeros((k, len(reps)))
        for p, sign in zip(perms, chi):
            q[p[reps], np.arange(len(reps))] += sign
        norms = np.sqrt(np.einsum("ij,ij->j", q, q))
        parts.append(q[:, norms > 0] / norms[norms > 0])
    return np.hstack(parts), tuple(np.cumsum([0] + [p.shape[1] for p in parts]).tolist())


def _project(layout: _Layout, v: np.ndarray) -> np.ndarray:
    """``_slot_map``, slot by slot, of the matrix stored as v in ``layout``,
    stored alike.  Slot j's map is 1 + A_j, where A_j adds to each member
    of a traced part its segment's sum times the part's coefficient; the
    A_j commute, and A_j^2 = -A_j as 1 + A_j is a projector, so on the
    common eigenvectors the slot sum B = sum_j A_j takes the value minus
    the number of slots that remove the vector, and the product of the k
    slot maps is prod_{i=1..k} (B + i) / i.  B commutes with the group,
    as the product does and a kept involution permutes the slots, so it
    is applied in the coordinates (``_Layout.slot_sum``)."""
    for i in range(1, layout.slots + 1):
        v = (layout.slot_sum(v) + i * v) / i
    return v


def _affine(layout: _Layout, v: np.ndarray) -> np.ndarray:
    """``affine_project`` of the matrix stored as v in ``layout``."""
    y = v - _project(layout, v - layout.reference)
    return (y + y[layout.transpose].conj()) / 2


def affine_project(sys: ConstraintSystem, x: np.ndarray) -> np.ndarray:
    """Exact orthogonal projection onto {X Hermitian : action constraints hold}."""
    return _affine(sys.dense_layout, x.reshape(-1)).reshape(x.shape)


def psd_project(x: np.ndarray) -> np.ndarray:
    """Projection onto the PSD cone by eigenvalue clipping, of each matrix
    of a stack (..., k, k), a 2-D matrix being a stack of one.

    One stacked eigensolve of the Hermitian parts, V diag(w) V^H, and each
    matrix rebuilt as V diag(max(w, 0)) V^H; a matrix's clip has the same
    bits in a stack as alone; a 1 x 1 stack is max(Re x, 0), the same bits.
    """
    h = (x + np.swapaxes(x.conj(), -1, -2)) / 2
    if h.shape[-1] == 1:
        return np.maximum(h.real, 0.0).astype(h.dtype)
    w, v = np.linalg.eigh(h)
    return (v * np.maximum(w, 0.0)[..., None, :]) @ np.swapaxes(v.conj(), -1, -2)


def _clip(sys: ConstraintSystem, v: np.ndarray) -> np.ndarray:
    """The PSD projection of the G-invariant matrix stored as v: each
    isotypic block of each representative sector, read off the
    coordinates by ``_Symmetry.gather``, clipped by one ``psd_project``
    call per block size, and the clipped blocks taken back to coordinates
    by ``_Symmetry.scatter``.  A G-invariant matrix is block diagonal in
    the adapted bases, so its clip is the blocks' clips; with no
    involutions kept, every sector block is clipped as it is."""
    plan = sys.symmetry
    z, parts, a = plan.gather(v), [], 0
    for count, k in plan.stacks:
        b = a + count * k * k
        parts.append(psd_project(z[a:b].reshape(count, k, k)).reshape(-1))
        a = b
    return plan.scatter(np.concatenate(parts))


def _secant_point(g, g_prev, f, f_prev, weights):
    """The next iterate after the plain point g, made in g_prev's buffer:
    the secant (Anderson, memory 1) point g - gamma (g - g_prev), with
    gamma = Re<df, f> / ||df||^2 for df = f - f_prev, inner products
    weighted by the orbit sizes ``weights``, or g itself when df = 0 or the
    secant point is not finite.  f_prev is overwritten."""
    df = np.subtract(f, f_prev, out=f_prev)
    denom = real_dot(df, df, weights)
    x = np.subtract(g, g_prev, out=g_prev)
    if denom > 0:
        x *= real_dot(df, f, weights) / denom
        np.subtract(g, x, out=x)
        if np.isfinite(x).all():
            return x
    np.copyto(x, g)
    return x


def _run_single(sys: ConstraintSystem, x: np.ndarray):
    """Dykstra's alternating projections from the affine start ``x`` in
    ``sys.layout``, whose buffer is reused, with a secant step: the last
    plain affine iterate, its distance to the reference and the iterations.

    A plain step maps x_k to g_k = affine(psd(x_k + p_k)), with the PSD
    projection made block by block (``_clip``), and updates
    Dykstra's correction p; x_{k+1} is the ``_secant_point`` after g_k, an
    affine combination of affine points, or g_k itself at the first step.
    Mixing x but not p gives up Dykstra's guarantee that the run ends on the
    feasible point nearest its start; for the kinds that run starts every
    feasible point is the reference.
    The stopping rules read the plain step ||g_k - x_k|| and the distance
    of g_k; a non-finite distance or step, which meets no stopping rule,
    ends the run at once.  p holds the shifted point and then the next
    correction in place, and the secant history reuses spent buffers, so
    the loop holds four coordinate vectors: x, p, g_{k-1} and f_{k-1}.
    Norms and inner products weight each coordinate by its orbit size.
    """
    layout = sys.layout
    w = layout.weights
    p = np.zeros_like(x)
    f_prev = g_prev = None
    dist = frobenius(x - layout.reference, weights=w)
    iters = 0
    while iters < MAX_ITER and math.isfinite(dist):
        iters += 1
        p += x
        y = _clip(sys, p)
        p -= y
        g = _affine(layout, y)
        del y
        f = np.subtract(g, x, out=x)
        step = frobenius(f, weights=w)
        dist = frobenius(g - layout.reference, weights=w)
        if not math.isfinite(step) or step <= 1e-13 or dist <= TOL:
            return g, dist, iters
        x = g.copy() if g_prev is None else _secant_point(g, g_prev, f, f_prev, w)
        f_prev, g_prev = f, g
    return (x if g_prev is None else g_prev), dist, iters


def _start_point(sys: ConstraintSystem, stream: SampleStream) -> np.ndarray:
    """The reference plus a random twirled Hermitian direction, the next
    draw of ``stream``, in ``sys.layout``: a probe start begins at the affine
    projection of its real part, the witness polish at that of the whole.

    Complex normals g are drawn for the m stored block entries alone and
    made Hermitian as g + g^H; its G-twirl is its mean over each orbit,
    which is a + a^H for the orbit means a of g.  The direction is scaled
    to sqrt(D) / n, the expected norm of the G-twirl of a unit direction
    on all n^2 entries, with D the dimension of the G-invariant block
    matrices, the number of coordinates; on one sector of k indices and
    no involution that is k / n."""
    layout = sys.layout
    re, im = stream.normal((2, len(layout.orbits)))
    a = (np.bincount(layout.orbits, re) + 1j * np.bincount(layout.orbits, im)) / layout.weights
    h = a + a[layout.transpose].conj()
    scale = math.sqrt(len(layout.reference)) / sys.process.size
    return layout.reference + h / frobenius(h, weights=layout.weights) * scale


def _run_start(sys: ConstraintSystem, stream: SampleStream):
    """One probe start from the affine projection of the real part of
    ``_start_point``, in real symmetric arithmetic, which the lemmas of the
    module docstring say lose nothing: (distance, iterations, constraint
    residual, minus the least eigenvalue).  The distance is NaN for a
    non-finite iterate, and so are the checks."""
    x, dist, iters = _run_single(sys, _affine(sys.layout, _start_point(sys, stream).real))
    resid, neg_eig = _final_checks(sys, x)
    return (dist if np.isfinite(x).all() else math.nan), iters, resid, neg_eig


def _final_checks(sys: ConstraintSystem, x: np.ndarray) -> tuple[float, float]:
    """The constraint residual of the matrix stored as x and minus its least
    eigenvalue, the least over the whole sector blocks, read off the
    coordinates without the clip's plan.  Both are NaN, without an
    eigensolve, which may raise on them, if x is not finite."""
    if not np.isfinite(x).all():
        return math.nan, math.nan
    layout = sys.layout
    return (frobenius(_project(layout, x - layout.reference), weights=layout.weights),
            -min(map(min_eigenvalue, _blocks(layout, x))))


def _polish_witness(sys: ConstraintSystem, start: np.ndarray, max_iter: int):
    """The plain map g = affine o psd, mixed by ``_secant_point``, from the
    affine projection of ``start`` in ``sys.layout`` until g is feasible.

    Every feasible witness sits on the boundary of the cone, where plain
    alternating projections crawl in tangentially; the secant point after
    each g (Anderson acceleration with memory 1: Walker & Ni, SIAM J.
    Numer. Anal. 49(4), 2011; Fu, Zhang & Boyd, arXiv:1908.11482) cuts the
    evaluations from about 148,000 to a few dozen.  Returns the first g
    with min eigenvalue >= -FEAS_TOL over the whole sector blocks, or the
    last one, and the evaluations.
    """
    layout = sys.layout
    x = g = _affine(layout, start)
    evals, f_prev, g_prev = 0, None, None
    for evals in range(1, max_iter + 1):
        g = _affine(layout, _clip(sys, x))
        if min(map(min_eigenvalue, _blocks(layout, g))) >= -FEAS_TOL:
            break
        f = np.subtract(g, x, out=x)
        x = g.copy() if g_prev is None else _secant_point(g, g_prev, f, f_prev, layout.weights)
        f_prev, g_prev = f, g
    return g, evals


def _find_witness(sys: ConstraintSystem, point: np.ndarray):
    """A feasible point far from the reference, and the polish evaluations
    spent on it, out of WITNESS_MAX_ITER in all.

    Each polish starts from the reference moved WITNESS_AMPLITUDE along
    the displacement of ``point``, and then of the last polish's witness
    while that lies short of WITNESS_THRESHOLD, at most WITNESS_POLISHES
    in all.  The first direction is a generic affine one, so the first
    witness lies off the reference but, on the C_p family, mostly short of
    the threshold; its displacement points into the feasible set, and the
    next polish follows it out towards WITNESS_AMPLITUDE.  A first witness
    may also land within rounding of the reference, and its displacement
    then points anywhere: the polish after it draws no conclusion from it
    but starts afresh along it.  A non-finite polish start is not
    polished: it is returned as it is, and fails the witness checks.
    """
    layout = sys.layout
    evals, reference, w = 0, layout.reference, layout.weights
    for _ in range(WITNESS_POLISHES):
        escape = point - reference
        scale = frobenius(escape, weights=w)
        point = reference + WITNESS_AMPLITUDE * (escape / scale if scale > 0 else escape)
        if not np.isfinite(point).all():
            break
        point, used = _polish_witness(sys, point, WITNESS_MAX_ITER - evals)
        evals += used
        if frobenius(point - reference, weights=w) >= WITNESS_THRESHOLD:
            break
    return point, evals


def alternating_projection_probe(sys: ConstraintSystem, starts: int = 10,
                                 seed: int = 0) -> CertificateReport:
    """Certify a kind that claims uniqueness by its starts, and the cp_family
    kind by its witness.

    Each start is the reference plus a random Hermitian perturbation on
    the sector blocks, twirled over the kept involutions and scaled to the
    expected norm of a twirled unit direction (``_start_point``), taken
    to its real part and projected onto the affine set; the starts
    run one after another, each drawing its direction in turn from one
    ``SampleStream`` of ``seed``.  Their final iterates must meet both
    constraints within FEAS_TOL and lie within TOL of the reference.  The
    cp_family kind runs no starts: it certifies a non-uniqueness witness, a
    feasible point whose distance from the reference must exceed
    WITNESS_THRESHOLD, which ``_find_witness`` polishes from the complex
    affine point of the first start's draw.
    """
    timer = Timer()
    stream = SampleStream(seed)
    expected_rank = span_dimension_formula(sys.process.d) ** sys.process.slots
    checks = [check_true("family_rank_full", sys.family_rank == expected_rank)]
    if sys.kind == "cp_family":
        point = _affine(sys.layout, _start_point(sys, stream))
        witness, polish_iters = _find_witness(sys, point)
        wdist = frobenius(witness - sys.layout.reference, weights=sys.layout.weights)
        resid, neg_eig = _final_checks(sys, witness)
        checks += [
            check_true("witness_distance_exceeds_threshold",
                       wdist >= WITNESS_THRESHOLD),
            check_leq("witness_constraint_residual", resid, FEAS_TOL),
            check_leq("witness_negative_eigenvalue", neg_eig, FEAS_TOL),
        ]
        notes = (f"witness_distance={wdist:.4f} polish_iterations={polish_iters}",)
    else:
        dists, iters_used, resids, neg_eigs = zip(*(_run_start(sys, stream) for _ in range(starts)))
        checks += [
            check_leq("final_constraint_residual", nan_max(*resids), FEAS_TOL),
            check_leq("final_negative_eigenvalue", nan_max(*neg_eigs), FEAS_TOL),
            check_leq("max_distance_to_reference", nan_max(*dists), TOL),
        ]
        notes = (f"starts={starts}", f"iterations={list(iters_used)}",
                 f"distances=[{', '.join(f'{v:.3e}' for v in dists)}]")
    return make_report(f"probe_{sys.kind}_d{sys.process.d}", checks, timer, notes=notes)
