"""Empirical uniqueness probe via alternating projections (Dykstra scheme).

A process is pinned down by two convex constraints: positivity of its matrix
and an affine set fixing its action on a spanning family of unitary-channel
Choi operators.  Starting from random perturbations of a reference process,
alternating projections converge to a point of the intersection.  Each
iteration adds a secant step, Anderson acceleration with memory 1
(``_secant_point``), to the affine iterate and keeps Dykstra's correction;
a d = 2 switch start then takes about 22 iterations instead of about 71.
Every start stops within TOL of the reference and is checked against both
constraints.  Only the kinds that claim uniqueness run starts: the
deliberately non-unique C_p family is certified by its witness, a feasible
point far from the reference, found by two secant-mixed polishes of a
generic affine point (``_find_witness``).

A probe problem is a ``ConstraintSystem``: a process and its kind.  The
reference is the process's matrix, read (``Process.entry``) only at the
entries the probe stores; the slot count and dimensions are read off the
process.  The affine projection uses the tensor-factor structure of the
constraints: the row space of the constraint map is (slot span)^(x slots)
(x) L(out), so applying the closed-form span{J_U} projector of one slot, a
real d^4 x d^4 matrix, to each slot's input index pair of the difference
from the reference is the exact orthogonal projection onto the affine
set.  For the switch that is two small real products instead of one with
the dense d^8 projector.  That map (``_project``) reads the output
dimension off the process's size, so it runs at any d.  The PSD projection
rebuilds the clipped matrix from its positive eigenpairs only.

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

The kinds that claim uniqueness also run in charge sectors.  A diagonal
unitary V with phases t acts on each tensor factor as t, conj(t) or not at
all, by the kind's sign table (``_CHARGE_SIGNS``); a basis index's charge
is the signed count of each of its digit values, and a sector is the set of
indices of one charge.  The torus twirl T(X) = int V X V^H dV keeps X on
the sector blocks and zeroes it off them.  The slot projector commutes with
T and the reference is T-invariant, so T maps the feasible set onto itself.
Lemma: if W = |w><w| is pure and T-invariant and X != W is feasible, then
T(X) is a feasible point other than W.  Proof: V w is a multiple of w, so
V^H u is orthogonal to w whenever u is; if T(X) = W, then for such u the integral
of <V^H u, X V^H u> over V is <u, W u> = 0, with a continuous non-negative
integrand, so <u, X u> = 0 and, X being PSD, X u = 0; the range of X lies
in span{w}, and X = W as above.  With the Re-lemma, a pure process has a
second feasible point iff it has a real sector-block-diagonal one.  So the
probe stores a matrix as the vector of its sector blocks' entries
(``_Layout``): a start's direction is twirled by keeping those, the PSD
projection clips each block, and the affine map gathers the blocks back
from the product, which is exactly 0 off them.  The C_p family, whose kind
has no sign table, and a reference that is not exactly 0 off its kind's
sectors get one sector holding every index: the whole matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .linalg import min_eigenvalue
from .report import CertificateReport, Timer, check_leq, check_true, make_report, nan_max
from .span import span_dimension_formula, span_projector, vec_kron
# The probe never calls build_switch_choi: bench/test_tracer.py:71 traces this alias.
from .switch import Process, build_switch_choi, switch_choi_vector  # noqa: F401
from .uniqueness import (
    build_cp_family,
    build_derived_one_slot,
    build_identity_process,
)

# The process each kind probes unless one is given.  The builders are looked
# up when called, so that rebinding one of their names here takes effect.
_DEFAULT_PROCESS = {
    "identity": lambda d: build_identity_process(d),
    "switch": lambda d: Process(d, vector=switch_choi_vector(d)),
    "transpose": lambda d: build_derived_one_slot("transpose", d),
    "conjugate_qubit": lambda d: build_derived_one_slot("conjugate_qubit", d),
    "cp_family": lambda d: build_cp_family(1.0),
}
KINDS = tuple(_DEFAULT_PROCESS)
MAX_ITER = 5000  # Dykstra iterations per start
TOL = 1e-6  # distance to the reference at which a start has converged
WITNESS_AMPLITUDE = 0.25  # norm of the escape direction the witness polish starts from
WITNESS_THRESHOLD = 0.1  # distance from the reference a cp_family witness must reach
WITNESS_MAX_ITER = 400_000  # evaluations the witness polish may take
# Charge signs of the tensor factors, in storage order, of the kinds that
# claim uniqueness; the switch's control qubit is uncharged.
_CHARGE_SIGNS = {
    "switch": (1, -1, 1, -1, -1, 1, 0, 0),
    "identity": (1, -1, -1, 1),
    "transpose": (1, -1, 1, -1),
    "conjugate_qubit": (1, -1, 1, -1),
}


@dataclass(frozen=True)
class ConstraintSystem:
    """The probe problem of a process: the PSD cone and the affine set of
    Hermitian matrices whose action on span{J_U} in each slot is the
    process's.  ``kind`` names the problem and fixes the slot count, two for
    the switch and one otherwise; everything else is read off ``process``,
    whose matrix must be real.  ``sectors`` holds the basis indices of each
    charge sector of the kind (``_charge_sectors``), which must partition
    the basis, and ``layout`` the probe's storage of a matrix on them.
    """

    kind: str
    process: Process
    slot_projector: np.ndarray = field(init=False, repr=False)
    sectors: tuple = field(init=False, repr=False)
    layout: _Layout = field(init=False, repr=False)

    def __post_init__(self):
        slots = 2 if self.kind == "switch" else 1
        if self.process.slots != slots:
            raise ValueError(f"the {self.kind} probe needs a {slots}-slot process, "
                             f"not a {self.process.slots}-slot one")
        slot = span_projector(self.process.d)
        slot.flags.writeable = False
        object.__setattr__(self, "slot_projector", slot)
        sectors = _charge_sectors(self.kind, self.process)
        if not np.array_equal(np.sort(np.concatenate(sectors)), np.arange(self.process.size)):
            raise ValueError(f"the {self.kind} sectors do not partition the basis")
        object.__setattr__(self, "sectors", sectors)
        object.__setattr__(self, "layout", _layout(self, sectors))

    @property
    def family_rank(self) -> int:
        """Rank of the constraint family: the slot projector's trace to the
        power of the slot count."""
        return round(float(np.trace(self.slot_projector))) ** self.process.slots

    @property
    def in_projector(self) -> np.ndarray:
        """The dense projector on the whole input index pair (the tensor square
        of the slot projector for the switch); a reference, never formed by
        the probe itself."""
        slot = self.slot_projector.astype(complex)
        return slot if self.process.slots == 1 else vec_kron(slot, slot)


def build_constraint_system(kind: str, d: int, process: Process | None = None, *,
                            seed=None) -> ConstraintSystem:
    """The constraint system of ``process``, by default the kind's own
    process at slot dimension d.

    A given process must have slot dimension d, the kind's slot count and
    a real matrix.  The system is exact, so ``seed`` is unused.  The switch
    probe supports d = 2 only: its affine map scatters the sector blocks
    into a dense slot-pair buffer, 68 MB at d = 3: 0.12 s a ``_project``
    call and 5.7-6.1 s a start there (2 cores, one BLAS thread).
    """
    if kind not in KINDS:
        raise ValueError(f"unknown probe kind {kind!r}; choose from {KINDS}")
    if kind == "switch" and d != 2:
        raise ValueError("the switch probe supports d = 2 only")
    if process is None:
        process = _DEFAULT_PROCESS[kind](d)
    if process.d != d:
        raise ValueError(f"the process has slot dimension {process.d}, not {d}")
    return ConstraintSystem(kind, process)


def _charge_sectors(kind: str, process: Process) -> tuple:
    """The basis indices of each charge sector of the kind's sign table, in
    the order of their charge vectors; one sector of every index for a kind
    without a sign table or a process whose support leaves them."""
    signs = _CHARGE_SIGNS.get(kind)
    if signs is not None:
        d = process.d
        dims = (d,) * 6 + (2, 2) if process.slots == 2 else (d,) * 4
        digits = np.indices(dims).reshape(len(dims), -1, 1) == np.arange(d)
        charge = (np.reshape(signs, (-1, 1, 1)) * digits).sum(axis=0)
        _, label = np.unique(charge, axis=0, return_inverse=True)
        label = label.reshape(-1)
        rows, cols = process.support()
        if np.array_equal(label[rows], label[cols]):
            return tuple(np.flatnonzero(label == s) for s in range(label.max() + 1))
    return (np.arange(process.size),)


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """Re<a, b>, summed by ``np.einsum`` on one thread: a BLAS dot splits the
    sum by its thread count, and the reports would depend on it."""
    return float(np.einsum("i,i->", np.ravel(a).view(float), np.ravel(b).view(float)))


def _norm(x: np.ndarray) -> float:
    """The Frobenius norm of x, summed as in ``_dot``."""
    v = np.ravel(x).view(float)
    return math.sqrt(np.einsum("i,i->", v, v))


@dataclass(frozen=True)
class _Layout:
    """A matrix that is 0 off the sector blocks, stored as the vector of the
    blocks' entries, each block row-major: per entry its flat index in the
    matrix and in ``_project``'s slot-pair layout and its transpose's index;
    the reference's entries; the block offsets.  One sector is the ravel."""

    entries: np.ndarray
    positions: np.ndarray
    transpose: np.ndarray
    reference: np.ndarray
    offsets: tuple


def _layout(sys: ConstraintSystem, sectors: tuple) -> _Layout:
    """The read-only storage on ``sectors`` of the process's matrices.  Entry
    (row, col) sits at row_part[row] + col_part[col] of the slot-pair layout
    (a, a', [b, b',] o, o'), and the reference, which must be real, is read
    there alone: it is exactly 0 off the sectors, or one sector holds it."""
    n, slots, k = sys.process.size, sys.process.slots, math.isqrt(len(sys.slot_projector))
    shape = (k, k) * slots + (n // k ** slots,) * 2
    strides = [math.prod(shape[j + 1:]) for j in range(len(shape))]
    digits = np.indices(shape[::2]).reshape(slots + 1, -1)
    row_part, col_part = (np.dot(strides[side::2], digits) for side in (0, 1))
    offsets = np.cumsum([0] + [len(s) ** 2 for s in sectors])
    rows, cols = (np.concatenate([f(s, len(s)) for s in sectors]) for f in (np.repeat, np.tile))
    transpose = np.concatenate([o + np.arange(len(s) ** 2).reshape(len(s), -1).T.ravel()
                                for o, s in zip(offsets, sectors)])
    reference = sys.process.entry(rows, cols)
    if np.any(reference.imag):
        raise ValueError(f"the {sys.kind} probe needs a real process matrix")
    arrays = rows * n + cols, row_part[rows] + col_part[cols], transpose, reference.real.copy()
    for a in arrays:
        a.flags.writeable = False
    return _Layout(*arrays, tuple(offsets.tolist()))


def _blocks(layout: _Layout, v: np.ndarray) -> list:
    """The sector blocks of the matrix stored as v, as square views of v."""
    o = layout.offsets
    return [v[a:b].reshape(2 * (math.isqrt(b - a),)) for a, b in zip(o, o[1:])]


def _project(sys: ConstraintSystem, layout: _Layout, v: np.ndarray) -> np.ndarray:
    """The slot projector on each slot's input index pair of the matrix
    stored as v in ``layout``, stored alike: v is scattered into a zeroed
    slot-pair buffer, multiplied there and gathered back.  A real v stays
    real; a complex one, as in the witness polish, is projected as one."""
    t = np.zeros(sys.process.size ** 2, dtype=v.dtype)
    t[layout.positions] = v
    kk = len(sys.slot_projector)
    for j in range(sys.process.slots):  # slot j: batched over the pairs before it
        t = np.matmul(sys.slot_projector, t.reshape(kk ** j, kk, -1))
    return t.reshape(-1)[layout.positions]


def _affine(sys: ConstraintSystem, layout: _Layout, v: np.ndarray) -> np.ndarray:
    """``affine_project`` of the matrix stored as v in ``layout``."""
    y = v - _project(sys, layout, v - layout.reference)
    return (y + y[layout.transpose].conj()) / 2


def affine_project(sys: ConstraintSystem, x: np.ndarray) -> np.ndarray:
    """Exact orthogonal projection onto {X Hermitian : action constraints hold}."""
    return _affine(sys, _layout(sys, (np.arange(len(x)),)), x.reshape(-1)).reshape(x.shape)


def psd_project(x: np.ndarray) -> np.ndarray:
    """Projection onto the PSD cone by eigenvalue clipping.

    The clip V diag(max(w, 0)) V^H is rebuilt from the eigenpairs with
    w > 0 alone: the rest contribute exact zeros.
    """
    w, v = np.linalg.eigh((x + x.conj().T) / 2)
    cut = int(np.searchsorted(w, 0.0, side="right"))  # w[:cut] <= 0 < w[cut:]
    pos = v[:, cut:]
    return (pos * w[cut:]) @ pos.conj().T


def _clip(layout: _Layout, v: np.ndarray) -> np.ndarray:
    """``psd_project`` of each sector block of the matrix stored as v."""
    y = np.empty_like(v)
    for block, out in zip(_blocks(layout, v), _blocks(layout, y)):
        out[...] = psd_project(block)
    return y


def random_hermitian_direction(n: int, rng) -> np.ndarray:
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    h = np.conjugate(g.T, order="C")  # 2x the Hermitian part; a copy beats a view
    h += g
    return h / _norm(h)


def _secant_point(g, g_prev, f, f_prev):
    """The next iterate after the plain point g, made in g_prev's buffer:
    the secant (Anderson, memory 1) point g - gamma (g - g_prev), with
    gamma = Re<df, f> / ||df||^2 for df = f - f_prev, or g itself when
    df = 0 or the secant point is not finite.  f_prev is overwritten."""
    df = np.subtract(f, f_prev, out=f_prev)
    denom = _dot(df, df)
    x = np.subtract(g, g_prev, out=g_prev)
    if denom > 0:
        x *= _dot(df, f) / denom
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
    projection made block by block on the sectors, and updates
    Dykstra's correction p; x_{k+1} is the ``_secant_point`` after g_k, an
    affine combination of affine points, or g_k itself at the first step.
    Mixing x but not p gives up Dykstra's guarantee that the run ends on the
    feasible point nearest its start; for the kinds that run starts every
    feasible point is the reference.
    The stopping rules read the plain step ||g_k - x_k|| and the distance
    of g_k; a non-finite distance or step, which meets no stopping rule,
    ends the run at once.  p holds the shifted point and then the next
    correction in place, and the secant history reuses spent buffers, so
    the loop holds four block vectors: x, p, g_{k-1} and f_{k-1}.
    """
    layout = sys.layout
    p = np.zeros_like(x)
    f_prev = g_prev = None
    dist = _norm(x - layout.reference)
    iters = 0
    while iters < MAX_ITER and math.isfinite(dist):
        iters += 1
        p += x
        y = _clip(layout, p)
        p -= y
        g = _affine(sys, layout, y)
        del y
        f = np.subtract(g, x, out=x)
        step = _norm(f)
        dist = _norm(g - layout.reference)
        if not math.isfinite(step) or step <= 1e-13 or dist <= TOL:
            return g, dist, iters
        x = g.copy() if g_prev is None else _secant_point(g, g_prev, f, f_prev)
        f_prev, g_prev = f, g
    return (x if g_prev is None else g_prev), dist, iters


def _affine_start(sys: ConstraintSystem, seed) -> np.ndarray:
    """The affine projection of the reference plus the twirl (the block
    entries) of a random unit Hermitian direction drawn from ``seed``, in
    ``sys.layout``: where a probe start and the witness polish begin."""
    direction = random_hermitian_direction(sys.process.size, np.random.default_rng(seed))
    return _affine(sys, sys.layout,
                   sys.layout.reference + direction.reshape(-1)[sys.layout.entries])


def _run_start(sys: ConstraintSystem, seed):
    """One probe start from the real part of ``_affine_start``, in real
    symmetric arithmetic, which the lemmas of the module docstring say lose
    nothing: (distance, iterations, constraint residual, minus the least
    eigenvalue).  Only the real start is kept through the run.  The
    distance is NaN for a non-finite iterate, and so are the checks."""
    x, dist, iters = _run_single(sys, _affine_start(sys, seed).real.copy())
    resid, neg_eig = _final_checks(sys, x)
    return (dist if np.isfinite(x).all() else math.nan), iters, resid, neg_eig


def _final_checks(sys: ConstraintSystem, x: np.ndarray) -> tuple[float, float]:
    """The constraint residual of the matrix stored as x and minus its least
    eigenvalue, the least over the sector blocks.  Both are NaN, without an
    eigensolve, which may raise on them, if x is not finite."""
    if not np.isfinite(x).all():
        return math.nan, math.nan
    return (_norm(_project(sys, sys.layout, x - sys.layout.reference)),
            -min(map(min_eigenvalue, _blocks(sys.layout, x))))


def _polish_witness(sys: ConstraintSystem, start: np.ndarray, feas_tol: float,
                    max_iter: int):
    """The plain map g = affine o psd, mixed by ``_secant_point``, from the
    affine projection of ``start`` in ``sys.layout`` until g is feasible.

    Every feasible witness sits on the boundary of the cone, where plain
    alternating projections crawl in tangentially; the secant point after
    each g (Anderson acceleration with memory 1: Walker & Ni, SIAM J.
    Numer. Anal. 49(4), 2011; Fu, Zhang & Boyd, arXiv:1908.11482) cuts the
    evaluations from about 148,000 to a few hundred.  Returns the first g
    with min eigenvalue >= -feas_tol, or the last one, and the evaluations.
    """
    layout = sys.layout
    x = g = _affine(sys, layout, start)
    evals, f_prev, g_prev = 0, None, None
    for evals in range(1, max_iter + 1):
        g = _affine(sys, layout, _clip(layout, x))
        if min(map(min_eigenvalue, _blocks(layout, g))) >= -feas_tol:
            break
        f = np.subtract(g, x, out=x)
        x = g.copy() if g_prev is None else _secant_point(g, g_prev, f, f_prev)
        f_prev, g_prev = f, g
    return g, evals


def _find_witness(sys: ConstraintSystem, point: np.ndarray, feas_tol: float):
    """A feasible point far from the reference, and the polish evaluations
    spent on it, out of WITNESS_MAX_ITER in all.

    Two polishes run, each from the reference moved WITNESS_AMPLITUDE along
    the displacement of ``point`` and then of the first polish's witness.
    The first direction is a generic affine one, so the first witness lies
    off the reference but, on the C_p family, short of WITNESS_THRESHOLD;
    its displacement points into the feasible set, and the second polish
    follows it out to WITNESS_AMPLITUDE.  A non-finite polish start is not
    polished: it is returned as it is, and fails the witness checks.
    """
    evals, reference = 0, sys.layout.reference
    for _ in range(2):
        escape = point - reference
        scale = _norm(escape)
        point = reference + WITNESS_AMPLITUDE * (escape / scale if scale > 0 else escape)
        if not np.isfinite(point).all():
            break
        point, used = _polish_witness(sys, point, feas_tol, WITNESS_MAX_ITER - evals)
        evals += used
    return point, evals


def alternating_projection_probe(sys: ConstraintSystem, starts: int = 10, seed: int = 0,
                                 feas_tol: float = 1e-6) -> CertificateReport:
    """Certify a kind that claims uniqueness by its starts, and the cp_family
    kind by its witness.

    Each start is the reference plus the twirl of a random Hermitian
    perturbation of unit Frobenius norm, projected onto the affine set and
    taken to its real part; the starts run one after another.  Their final
    iterates must meet both constraints
    within feas_tol and lie within TOL of the reference.  The cp_family kind
    runs no starts: it certifies a non-uniqueness witness, a feasible point
    whose distance from the reference must exceed WITNESS_THRESHOLD, which
    ``_find_witness`` polishes from the complex affine point of the first
    start's seed.
    """
    timer = Timer()
    seeds = np.random.SeedSequence(seed).spawn(starts)
    expected_rank = span_dimension_formula(sys.process.d) ** sys.process.slots
    checks = [check_true("family_rank_full", sys.family_rank == expected_rank)]
    if sys.kind == "cp_family":
        witness, polish_iters = _find_witness(sys, _affine_start(sys, seeds[0]), feas_tol)
        wdist = _norm(witness - sys.layout.reference)
        resid, neg_eig = _final_checks(sys, witness)
        checks += [
            check_true("witness_distance_exceeds_threshold",
                       wdist >= WITNESS_THRESHOLD),
            check_leq("witness_constraint_residual", resid, feas_tol),
            check_leq("witness_negative_eigenvalue", neg_eig, feas_tol),
        ]
        notes = (f"witness_distance={wdist:.4f} polish_iterations={polish_iters}",)
    else:
        dists, iters_used, resids, neg_eigs = zip(*(_run_start(sys, s) for s in seeds))
        checks += [
            check_leq("final_constraint_residual", nan_max(*resids), feas_tol),
            check_leq("final_negative_eigenvalue", nan_max(*neg_eigs), feas_tol),
            check_leq("max_distance_to_reference", nan_max(*dists), TOL),
        ]
        notes = (f"starts={starts}", f"iterations={list(iters_used)}",
                 f"distances=[{', '.join(f'{v:.3e}' for v in dists)}]")
    return make_report(f"probe_{sys.kind}_d{sys.process.d}", checks, timer, notes=notes)
