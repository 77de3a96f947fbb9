import dataclasses
import functools
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from switchcert import probe
from switchcert.channels import SampleStream, haar_random_unitary, unitary_choi
from switchcert.linalg import frobenius, min_eigenvalue, real_dot
from switchcert.probe import (
    ConstraintSystem,
    _project,
    affine_project,
    alternating_projection_probe,
    build_constraint_system,
    psd_project,
)
from switchcert.span import span_dimension_formula, span_projector, vec_kron
from switchcert.switch import Process, build_switch_choi, switch_choi_vector
from switchcert.uniqueness import build_cp_family, build_derived_one_slot, build_identity_process

from oracles import (SIGN_TABLES, _dense_sector_clip, constraint_residual, dykstra_start,
                     eigen_stack, entries_of, full_buffer_project, group_of, group_twirl,
                     invariant_dimension, involutions_of, link, offered_involutions,
                     random_hermitian_direction, sectors_of, slot_pair_product,
                     switch_involutions, table_sectors, with_entries)


def test_constraint_system_shapes():
    sys2 = build_constraint_system("identity", 2)
    assert sys2.family_rank == 10 == span_dimension_formula(2)
    assert round(np.trace(span_projector(2))) == 10
    assert sys2.process.slots == 1
    assert sys2.in_projector.shape == (16, 16)
    sys3 = build_constraint_system("identity", 3)
    assert sys3.family_rank == 65 == round(np.trace(span_projector(3)))
    sw = build_constraint_system("switch", 2)
    assert sw.family_rank == 100 == span_dimension_formula(2) ** 2
    assert sw.process.slots == 2
    assert sw.in_projector.shape == (256, 256)
    # the layout holds the reference: the real part of the process's matrix
    # at each orbit's first block entry
    stored = sw.layout.reference
    assert stored.dtype == float and stored.flags.c_contiguous
    assert np.array_equal(stored, coordinates(sw, reference(sw)))
    assert not stored.flags.writeable
    maps = (sw.layout.slot_sum, sw.symmetry.gather, sw.symmetry.scatter)
    tables = [sw.layout.orbits, sw.layout.weights, sw.layout.transpose, sw.symmetry.orbits]
    assert not any(a.flags.writeable for a in tables + [a for m in maps
                                                        for a in (m.rows, m.cols, m.coef)])
    assert not hasattr(sw, "reference") and not hasattr(sw, "slot_projector")


def reference(sys):
    """The probe's reference as a dense matrix: the real part of the
    process's matrix."""
    return sys.process.op.entries.real


def dense_project(in_projector, y, nin):
    """The dense reference: ``in_projector`` on the whole vectorized input
    index pair of y, in matrix layout."""
    n, m = nin, y.shape[0] // nin
    d4 = y.reshape(n, m, n, m).transpose(0, 2, 1, 3).reshape(n * n, m * m)
    if np.isrealobj(in_projector):  # a large real projector is not made complex
        real, imag = (in_projector @ part.astype(in_projector.dtype)
                      for part in (d4.real, d4.imag))
        prod = real + 1j * imag
    else:
        prod = in_projector @ d4
    return prod.reshape(n, n, m, m).transpose(0, 2, 1, 3).reshape(n * m, n * m)


@functools.cache
def stand_in_layout(d, slots, n):
    """``probe._layout`` of one sector of every index for a stand-in system
    whose zero process holds only the slot dimension, the slot count and
    the size n; its arrays are read-only, so one serves every call."""
    process = SimpleNamespace(d=d, slots=slots, size=n, entry=lambda r, c: np.zeros(len(r)))
    return probe._layout(SimpleNamespace(process=process), (np.arange(n),))


def slot_map(d, slots, y):
    """``probe._project`` of the matrix y, stored as one sector of every
    index in ``stand_in_layout``."""
    return _project(stand_in_layout(d, slots, len(y)), y.reshape(-1)).reshape(y.shape)


def constrained_part(sys, x):
    return slot_map(sys.process.d, sys.process.slots, x - reference(sys))


@pytest.mark.parametrize("kind,d", [("identity", 2), ("cp_family", 2),
                                    ("transpose", 2), ("identity", 3)])
def test_one_slot_constrained_part_is_the_dense_product(kind, d):
    # a complex y gets the complex product of the dense path, bit for bit,
    # from the slot-pair product, and to rounding from the partial traces
    sys = build_constraint_system(kind, d)
    x = random_hermitian_direction(sys.process.size, np.random.default_rng(6))
    want = dense_project(sys.in_projector, x - reference(sys), sys.process.nin)
    assert np.array_equal(slot_pair_product(span_projector(d), 1, x - reference(sys)), want)
    assert frobenius(constrained_part(sys, x), want) <= 1e-14 * np.linalg.norm(want)


def test_switch_constrained_part_matches_dense_product_d2():
    sw = build_constraint_system("switch", 2)
    rng = np.random.default_rng(7)
    for _ in range(3):
        x = reference(sw) + random_hermitian_direction(256, rng)
        dense = dense_project(sw.in_projector, x - reference(sw), sw.process.nin)
        assert frobenius(constrained_part(sw, x), dense) \
            <= 1e-14 * np.linalg.norm(dense)
        # a real y is projected in real arithmetic
        real = constrained_part(sw, x.real)
        assert np.isrealobj(real)
        assert frobenius(real, dense.real) <= 1e-14 * np.linalg.norm(dense)


def test_switch_constrained_part_matches_dense_product_d3():
    # the projection needs no process: at d = 3 it runs on a random y with
    # two output dimensions, so that no two axis lengths coincide.  The
    # dense projector is 6561 x 6561; in single precision it takes 172 MB.
    rng = np.random.default_rng(8)
    y = random_hermitian_direction(3 ** 4 * 2, rng)
    slot = span_projector(3)
    single = slot.astype(np.float32)
    dense = dense_project(vec_kron(single, single), y, 3 ** 4)
    assert frobenius(slot_map(3, 2, y), dense) <= 1e-6 * np.linalg.norm(dense)
    assert round(np.trace(slot)) == span_dimension_formula(3) == 65


def test_switch_projection_d4_without_a_dense_projector():
    # d = 4, nout = 2: y is 512 x 512, where the dense projector would be
    # 65536 x 65536.  _project must be the orthogonal projection onto
    # span{J_U} (x) span{J_U} (x) L(out) in the input index pairs.
    d, nout = 4, 2
    rng = np.random.default_rng(9)

    def project(y):
        return slot_map(d, 2, y)

    def random_y():
        g = rng.standard_normal((2, d ** 4 * nout, d ** 4 * nout))
        return g[0] + 1j * g[1]

    a, b = random_y(), random_y()
    pa = project(a)
    assert frobenius(project(pa), pa) <= 1e-12 * np.linalg.norm(pa)
    assert abs(np.vdot(pa, b) - np.vdot(a, project(b))) \
        <= 1e-10 * np.linalg.norm(a) * np.linalg.norm(b)
    stream = SampleStream(9)
    j1, j2 = (unitary_choi(haar_random_unitary(d, stream)) for _ in range(2))
    x = rng.standard_normal((nout, nout)) + 1j * rng.standard_normal((nout, nout))
    fixed = np.kron(np.kron(j1, j2), x)
    assert frobenius(project(fixed), fixed) <= 1e-12 * np.linalg.norm(fixed)
    # |xy><xz| in a slot is 1/d (x) |y><z| plus a traceless (x) traceless
    # part; the projection removes the first, of norm 1/sqrt(d) = 0.5.  The
    # other slot holds a J_U, which it keeps.
    ket_bra = np.zeros((d * d, d * d))
    ket_bra[1 * d + 0, 1 * d + 2] = 1.0
    for lone in (np.kron(np.kron(ket_bra, j2), x), np.kron(np.kron(j1, ket_bra), x)):
        assert frobenius(project(lone), lone) > 0.1


def spectrum_matrix(eigenvalues, rng, real=False):
    g = random_hermitian_direction(len(eigenvalues), rng)
    q, _ = np.linalg.qr(g.real if real else g)
    return (q * np.asarray(eigenvalues, dtype=float)) @ q.conj().T


def random_spectrum(n, positive, rng):
    """n eigenvalues in random order, ``positive`` of them positive."""
    eigenvalues = np.concatenate([-rng.uniform(0.1, 2.0, n - positive),
                                  rng.uniform(0.1, 2.0, positive)])
    return rng.permutation(eigenvalues)


def assert_full_clip(h, clipped, positive):
    """clipped is V diag(max(w, 0)) V^H of h, which has ``positive``
    positive eigenvalues."""
    w, v = np.linalg.eigh(h)
    assert np.count_nonzero(w > 0) == positive
    full = (v * np.clip(w, 0.0, None)) @ v.conj().T
    assert frobenius(clipped, full) <= 1e-14 * max(1.0, np.linalg.norm(h))


@pytest.mark.parametrize("positive", [0, 3, 4, 5, 8, "stack"])
def test_psd_project_positive_rebuild_matches_full_clip(positive):
    # n = 8, with none, fewer than half, half, more than half and all of the
    # eigenvalues positive; and real and complex stacks of such 8 x 8
    # matrices and of 1 x 1 ones, an all-negative one in each: every matrix
    # of a stack is clipped bit for bit as it is alone
    if positive != "stack":
        rng = np.random.default_rng(positive)
        h = spectrum_matrix(random_spectrum(8, positive, rng), rng)
        assert_full_clip(h, psd_project(h), positive)
        return
    rng = np.random.default_rng(9)
    for real in (True, False):
        for n, counts in ((8, (0, 3, 4, 5, 8)), (1, (1, 0, 1))):
            stack = np.stack([spectrum_matrix(random_spectrum(n, p, rng), rng, real)
                              for p in counts])
            clipped = psd_project(stack)
            assert clipped.shape == stack.shape and clipped.dtype == stack.dtype
            for h, c, p in zip(stack, clipped, counts):
                assert np.array_equal(c, psd_project(h))
                assert_full_clip(h, c, p)


def haar_slot_basis(d, seed=0):
    """Orthonormal d^2 x d^2 operators spanning sampled span{J_U}, via an SVD."""
    stream = SampleStream(seed)
    mat = np.array([unitary_choi(haar_random_unitary(d, stream)).reshape(-1)
                    for _ in range(4 * span_dimension_formula(d))])
    _, s, vh = np.linalg.svd(mat, full_matrices=False)
    rank = int(np.count_nonzero(s > 1e-10 * s[0]))
    return [row.reshape(d * d, d * d) for row in vh[:rank]]


def family_gram(family):
    rows = np.array([b.reshape(-1) for b in family])
    return rows.conj().T @ rows


def test_switch_in_projector_is_product_family_gram():
    slot = haar_slot_basis(2)
    family = [np.kron(a, b) for a in slot for b in slot]
    sw = build_constraint_system("switch", 2)
    assert frobenius(sw.in_projector, family_gram(family)) <= 1e-12
    ident = build_constraint_system("identity", 2)
    assert frobenius(ident.in_projector, family_gram(slot)) <= 1e-12


@pytest.mark.parametrize("kind", ["identity", "switch"])
def test_constraint_residual_bounds_family_maximum(kind):
    slot = haar_slot_basis(2)
    family = slot if kind == "identity" else \
        [np.kron(a, b) for a in slot for b in slot]
    sys = build_constraint_system(kind, 2)
    rng = np.random.default_rng(5)
    for _ in range(3):
        x = reference(sys) + random_hermitian_direction(sys.process.size, rng)
        per_family = max(np.linalg.norm(link(x, b) - link(reference(sys), b))
                         for b in family)
        assert constraint_residual(sys, x) >= per_family - 1e-12
        assert per_family > 1e-3


def test_constraint_system_errors():
    # the table states the envelope: each kind builds at both ends of its
    # range and refuses just outside it, naming the kind, before its builder
    # runs (conjugate_qubit and cp_family have no d = 3 process to build)
    assert {kind: (dims.start, dims[-1]) for kind, (_, dims) in probe.KINDS.items()} == {
        "identity": (2, 4), "switch": (2, 2), "transpose": (2, 4),
        "conjugate_qubit": (2, 2), "cp_family": (2, 2)}
    with pytest.raises(ValueError, match="unknown probe kind"):
        build_constraint_system("nope", 2)
    with pytest.raises(ValueError, match="unknown probe kind"):
        ConstraintSystem("nope", build_identity_process(2))
    for kind, (_, dims) in probe.KINDS.items():
        for d in (dims.start, dims[-1]):
            assert build_constraint_system(kind, d).process.d == d
        for d in (dims.start - 1, dims.stop):
            with pytest.raises(ValueError, match=f"^the {kind} probe supports d = 2"):
                build_constraint_system(kind, d)


def test_complex_override_process_is_refused():
    # negative control: the identity process conjugated by a diagonal phase
    # unitary is a process with complex entries, which the probe, working in
    # real arithmetic, must refuse instead of projecting to its real part
    phases = np.exp(0.3j * np.arange(16))
    rotated = Process(2, phases * build_identity_process(2).vectors[0])
    assert np.abs(rotated.op.entries.imag).max() > 0.1
    with pytest.raises(ValueError, match="real"):
        build_constraint_system("identity", 2, rotated)


def plus_identity(proc):
    """``proc`` plus the identity matrix, as its stack with the basis vectors."""
    return Process(proc.d, np.concatenate([proc.vectors, np.eye(proc.size)]),
                   np.concatenate([proc.weights, np.ones(proc.size)]))


def hermitian_part(m):
    return (m + m.conj().T) / 2


def test_real_part_of_a_complex_feasible_point_is_feasible():
    # The lemma of the probe's docstring, on a point built by hand: X = W + tH
    # for a complex Hermitian H in the kernel of the constraint map.  W is
    # made positive definite, the identity process plus white noise, so a
    # small enough step stays PSD.
    w = build_identity_process(2).op.entries.real + np.eye(16)
    sys = build_constraint_system("identity", 2, plus_identity(build_identity_process(2)))
    g = random_hermitian_direction(16, np.random.default_rng(11))
    h = hermitian_part(g - slot_map(2, 1, g))
    assert np.linalg.norm(slot_map(2, 1, h)) <= 1e-14
    t = 0.5 * np.linalg.eigvalsh(w)[0] / np.linalg.norm(h, 2)
    x = w + t * h
    assert np.linalg.norm(x.imag) >= 0.1 * t
    assert constraint_residual(sys, x) <= 1e-12
    assert np.linalg.eigvalsh(x)[0] >= 0.0
    real = x.real
    assert np.array_equal(real, real.T)
    assert constraint_residual(sys, real) <= 1e-12
    assert np.linalg.eigvalsh(real)[0] >= 0.0
    assert np.linalg.norm(real - w) > 0.0


def twirl(sys, x):
    """x's sector blocks, 0 off them: the torus twirl of x."""
    y = np.zeros_like(x)
    for s in sectors_of(sys):
        y[np.ix_(s, s)] = x[np.ix_(s, s)]
    return y


def off_sector(sys, x):
    """x with its sector blocks zeroed: what the torus twirl removes."""
    return x - twirl(sys, x)


def blocks(sys, x):
    """The block vector of the matrix x: its sector block entries."""
    return x.reshape(-1)[entries_of(sys)]


def first_entries(sys):
    """The block-vector position of each orbit's first entry."""
    return np.unique(sys.layout.orbits, return_index=True)[1]


def coordinates(sys, x):
    """The probe's coordinates of the G-invariant matrix x: its entries at
    each orbit's first block entry."""
    return blocks(sys, x)[first_entries(sys)]


def dense(sys, v):
    """The matrix stored as the coordinates v: each block entry holds its
    orbit's coordinate, and 0 off the sector blocks."""
    n = sys.process.size
    x = np.zeros(n * n, dtype=v.dtype)
    x[entries_of(sys)] = v[sys.layout.orbits]
    return x.reshape(n, n)


def block_layout(sys):
    """``probe._layout`` of the system's sectors with no involution: one
    coordinate per block entry, so that its vectors are block vectors."""
    return probe._layout(sys, sectors_of(sys))


def test_twirl_of_a_feasible_point_is_feasible():
    # The twirl lemma of the probe's docstring, on a point built by hand as
    # in the Re-lemma test: X = W + tH with H in the kernel of the
    # constraint map, both on and off the sectors, and W twirl-invariant
    # and positive definite.
    w = build_identity_process(2).op.entries.real + np.eye(16)
    sys = build_constraint_system("identity", 2, plus_identity(build_identity_process(2)))
    assert len(sectors_of(sys)) == 9
    g = random_hermitian_direction(16, np.random.default_rng(12))
    h = hermitian_part(g - slot_map(2, 1, g))
    assert np.linalg.norm(slot_map(2, 1, h)) <= 1e-14
    t = 0.5 * np.linalg.eigvalsh(w)[0] / np.linalg.norm(h, 2)
    x = w + t * h
    assert np.linalg.norm(off_sector(sys, x)) >= 0.1 * t
    assert constraint_residual(sys, x) <= 1e-12
    assert np.linalg.eigvalsh(x)[0] >= 0.0
    twirled = twirl(sys, x)
    assert not off_sector(sys, twirled).any()
    assert constraint_residual(sys, twirled) <= 1e-12
    assert np.linalg.eigvalsh(twirled)[0] >= 0.0
    assert np.linalg.norm(twirled - w) >= 0.1 * t


def test_group_twirl_of_a_feasible_point_is_feasible():
    # The lemma for G = T x <S, R> of the probe's docstring, on a point
    # built by hand: X = W + tH with H in the kernel of the constraint map
    # and moved by both involutions, W = W0 + 1 fixed by them and positive
    # definite; the <S, R>-twirl of X is feasible, PSD and off W.
    w = build_switch_choi(2).op.entries.real + np.eye(256)
    sys = build_constraint_system("switch", 2, plus_identity(build_switch_choi(2)))
    assert len(sys.symmetry.involutions) == 2
    g = random_hermitian_direction(256, np.random.default_rng(14))
    h = hermitian_part(g - slot_map(2, 2, g))
    assert np.linalg.norm(slot_map(2, 2, h)) <= 1e-14
    for inv in switch_involutions(2):
        assert np.array_equal(w[np.ix_(inv, inv)], w)
        assert np.linalg.norm(h[np.ix_(inv, inv)] - h) >= 0.1 * np.linalg.norm(h)
    t = 0.5 * np.linalg.eigvalsh(w)[0] / np.linalg.norm(h, 2)
    x = w + t * h
    assert constraint_residual(sys, x) <= 1e-12
    assert np.linalg.eigvalsh(x)[0] >= 0.0
    twirled = group_twirl(sys, x)
    for inv in switch_involutions(2):
        assert frobenius(twirled[np.ix_(inv, inv)], twirled) <= 1e-15
    assert constraint_residual(sys, twirled) <= 1e-12
    assert np.linalg.eigvalsh(twirled)[0] >= 0.0
    assert np.linalg.norm(twirled - w) >= 0.1 * t


def entry_permutation(sys, g):
    """The permutation of the block vector that the index permutation g
    induces, read off the dense matrix of entry positions; -1 where g maps
    an entry off the sector blocks."""
    n = sys.process.size
    where = np.full(n * n, -1)
    where[entries_of(sys)] = np.arange(len(sys.layout.orbits))
    rows, cols = np.divmod(entries_of(sys), n)
    return where[g[rows] * n + g[cols]]


@pytest.mark.parametrize("d", [2, 3])
def test_switch_involutions_fix_w_and_commute_with_the_projection(d):
    # the facts the lemma needs: S and R fix w exactly, map sector blocks
    # onto sector blocks and commute with the slot projection, here on the
    # block vectors of the sectors with no involution; the probe keeps
    # both, as the oracle writes them
    process = Process(d, switch_choi_vector(d))
    sys = ConstraintSystem("switch", process)
    w, sectors = switch_choi_vector(d), sectors_of(sys)
    label = np.empty(sys.process.size, dtype=int)
    for q, s in enumerate(sectors):
        label[s] = q
    involutions = switch_involutions(d)
    for g, mine in zip(involutions, probe._involutions(process)):
        assert np.array_equal(g, mine)
        identity = np.arange(len(g))
        assert np.array_equal(np.sort(g), identity) and np.array_equal(g[g], identity)
        assert np.array_equal(w[g], w)
        assert all(np.array_equal(np.sort(g[s]), sectors[label[g[s[0]]]]) for s in sectors)
    perms = [entry_permutation(sys, g) for g in involutions]
    assert len(sys.symmetry.involutions) == 2
    assert all(np.array_equal(g, h) for g, h in zip(involutions, sys.symmetry.involutions))
    layout = block_layout(sys)
    v = random_block_diagonal_vector(sys, np.random.default_rng(d))
    pv = _project(layout, v)
    for perm in perms:
        assert frobenius(_project(layout, v[perm]), pv[perm]) <= 1e-13
        assert frobenius(v[perm], v) > 0.1


def block_transpose(sys):
    """The block-vector position of each block entry's transpose."""
    flat, n = entries_of(sys), sys.process.size
    where = np.empty(n * n, dtype=np.intp)
    where[flat] = np.arange(len(flat))
    rows, cols = np.divmod(flat, n)
    return where[cols * n + rows]


def random_block_diagonal_vector(sys, rng):
    """A random real symmetric block vector of unit norm."""
    v = rng.standard_normal(len(sys.layout.orbits))
    v += v[block_transpose(sys)]
    return v / frobenius(v)


def random_coordinates(sys, rng):
    """The coordinates of a random real symmetric G-invariant matrix of
    unit Frobenius norm."""
    v = rng.standard_normal(len(sys.layout.reference))
    v += v[sys.layout.transpose]
    return v / frobenius(v, weights=sys.layout.weights)


@pytest.mark.parametrize("kind,d", [("identity", 2), ("identity", 3), ("transpose", 4),
                                    ("conjugate_qubit", 2), ("switch", 2), ("cp_family", 2)])
def test_the_kept_involutions_are_the_offered_ones_that_fix_the_reference(kind, d):
    # every process is offered the qudit reversal, a two-slot one the slot
    # swap first; each default keeps all it is offered, the cp_family too,
    # whose witness is checked as it is
    sys = build_constraint_system(kind, d)
    offered = probe._involutions(sys.process)
    assert len(offered) == sys.process.slots
    assert all(np.array_equal(g, h) for g, h in
               zip(offered, offered_involutions(sys.process), strict=True))
    kept = involutions_of(sys)
    assert len(kept) == sys.process.slots
    assert all(np.array_equal(g, h) for g, h in
               zip(sys.symmetry.involutions, kept, strict=True))
    # the coordinates are the orbits of the group they generate
    orbits = sys.layout.orbits
    assert all(np.array_equal(orbits[entry_permutation(sys, g)], orbits) for g in group_of(sys))
    assert len(sys.layout.reference) == invariant_dimension(sys)
    assert np.array_equal(sys.layout.weights, np.bincount(orbits))


# (d, representative sectors' isotypic block sizes, blocks, largest, invariant
# dimension) of the default switch system
ISOTYPIC = [(2, [(1, 1), (6, 6), (15, 15), (10, 10, 10, 10)], 10, 15, 924),
            (3, None, 46, 60, 35_170)]


@pytest.mark.parametrize("d,sizes,count,largest,dimension", ISOTYPIC)
def test_isotypic_bases_block_the_invariant_matrices(d, sizes, count, largest, dimension):
    sys = ConstraintSystem("switch", Process(d, switch_choi_vector(d)))
    plan, sectors = sys.symmetry, sectors_of(sys)
    got = [tuple(np.diff(cuts).tolist()) for _, _, cuts in plan.clips]
    assert sizes is None or got == sizes
    assert (sum(map(len, got)), max(map(max, got))) == (count, largest)
    assert len(sys.layout.reference) == invariant_dimension(sys) == dimension
    assert sum(k * k * c for c, k in plan.stacks) == dimension
    group = group_of(sys)
    # the representatives are the least sector of each orbit, and an
    # invariant matrix's block entries are its coordinates, orbit by orbit
    reps = [q for q, _, _ in plan.clips]
    images = [{next(r for r, t in enumerate(sectors) if np.array_equal(np.sort(g[s]), t))
               for g in group} for s in sectors]
    assert reps == sorted({min(orbit) for orbit in images})
    if d == 3:
        return
    x = 256 * group_twirl(sys, random_block_diagonal(sys, np.random.default_rng(15)))
    v = blocks(sys, x)
    assert np.array_equal(v, v[first_entries(sys)][sys.layout.orbits])
    for q, basis, cuts in plan.clips:
        s = sectors[q]
        assert frobenius(basis.T @ basis, np.eye(len(s))) <= 1e-14
        signatures = []
        for g in group:
            if not np.array_equal(np.sort(g[s]), s):
                continue
            local = np.searchsorted(s, g[s])
            rotated = basis.T @ np.eye(len(s))[local] @ basis
            assert frobenius(rotated, np.diag(np.diag(rotated))) <= 1e-14
            diagonal = np.diag(rotated)
            signature = [round(diagonal[a]) for a in cuts[:-1]]
            assert all(np.allclose(diagonal[a:b], sign, rtol=0, atol=1e-15)
                       for a, b, sign in zip(cuts, cuts[1:], signature))
            signatures.append(signature)
        assert len({tuple(c) for c in zip(*signatures)}) == len(cuts) - 1
        z = basis.T @ x[np.ix_(s, s)] @ basis
        mask = np.zeros_like(z, dtype=bool)
        for a, b in zip(cuts, cuts[1:]):
            mask[a:b, a:b] = True
        assert np.abs(z[~mask]).max() <= 1e-15 and np.abs(z[mask]).max() > 0.01


def test_an_involution_that_moves_the_reference_is_never_used(monkeypatch):
    # negative control: the slot swap without the control flip maps the
    # U1U2 branch of w off w, so only the qudit reversal is kept
    swap, reverse = switch_involutions(2)
    unflipped = swap.reshape(-1, 2, 2)[:, ::-1, ::-1].reshape(-1)
    w = switch_choi_vector(2)
    assert not np.array_equal(w[unflipped], w)
    monkeypatch.setattr(probe, "_involutions", lambda process: (unflipped, reverse))
    sys = build_constraint_system("switch", 2)
    assert len(sys.symmetry.involutions) == 1
    assert np.array_equal(sys.symmetry.involutions[0], reverse)
    rep = alternating_projection_probe(sys, starts=2)
    assert rep.passed, [c for c in rep.checks if not c.passed]


def test_a_tiny_entry_that_the_swap_moves_keeps_the_torus_alone():
    # negative control: W0 + eps e_i e_i^T with S(i) != i is fixed by
    # neither involution, and the test is exact, with no tolerance; i is
    # kept (PC = FC), so the kept set, which both involutions keep, stays
    swap, reverse = switch_involutions(2)
    w = build_switch_choi(2).op.entries.copy()
    i = next(int(i) for i in probe._kept(build_switch_choi(2))
             if w[i, i] == 0 and swap[i] != i and reverse[i] != i)
    bumped = Process(2, np.stack([switch_choi_vector(2), np.eye(256)[i]]), (1.0, 1e-300))
    assert bumped.entry(i, i) == 1e-300
    sys = build_constraint_system("switch", 2, bumped)
    plan = sys.symmetry
    assert (len(sectors_of(sys)), plan.involutions) == (7, ())
    assert all(basis is None for _, basis, _ in plan.clips)
    assert np.array_equal(sys.layout.orbits, np.arange(3_696))
    assert len(sys.layout.reference) == 3_696


# (kind, d, sectors, largest sector) of the hand-written sign table
# (``oracles.SIGN_TABLES``) of every default unique reference
TABLE_COUNTS = [("switch", 2, 7, 40), ("identity", 2, 5, 6), ("identity", 3, 19, 15),
                ("identity", 4, 55, 28), ("transpose", 2, 5, 6),
                ("conjugate_qubit", 2, 5, 6)]
# the same for the sectors the probe derives from the process
SECTOR_COUNTS = [("switch", 2, 7, 40), ("identity", 2, 9, 4), ("identity", 3, 49, 9),
                 ("identity", 4, 169, 16), ("transpose", 2, 9, 4), ("transpose", 3, 49, 9),
                 ("transpose", 4, 169, 16), ("conjugate_qubit", 2, 9, 4)]


@pytest.mark.parametrize("kind,d,count,largest",
                         TABLE_COUNTS + [("transpose", 3, 19, 15), ("transpose", 4, 55, 28)])
def test_unique_reference_is_zero_off_its_sectors(kind, d, count, largest):
    # the hand-written table's sectors hold the reference, and every sector
    # the probe derives lies inside one of them: the derived torus holds the
    # table's, whose phases fix the reference too
    sys = build_constraint_system(kind, d)
    table = table_sectors(kind, sys.process)
    assert (len(table), max(map(len, table))) == (count, largest)
    label = np.full(sys.process.size, -1)  # the table sector of each kept index
    for q, s in enumerate(table):
        label[s] = q
    rows, cols = sys.process.support()
    assert np.array_equal(label[rows], label[cols]) and label[rows].min() >= 0
    assert all(len(np.unique(label[s])) == 1 for s in sectors_of(sys))


@pytest.mark.parametrize("kind,d,count,largest", SECTOR_COUNTS)
def test_derived_sectors_hold_the_whole_reference(kind, d, count, largest):
    sys = build_constraint_system(kind, d)
    sectors = sectors_of(sys)
    assert (len(sectors), max(map(len, sectors))) == (count, largest)
    assert sorted(np.concatenate(sectors)) == probe._kept(sys.process).tolist()
    assert not off_sector(sys, reference(sys)).any()
    assert np.linalg.norm(reference(sys)) > 1.0
    # the block storage holds the whole reference
    assert np.array_equal(dense(sys, sys.layout.reference), reference(sys))


@pytest.mark.parametrize("d", [2, 3, 4])
def test_switch_sectors_are_the_sign_tables_in_order(d):
    # the derived torus of the switch is the table's: the same sectors, in
    # the same order, so its storage and reports keep their bits
    process = Process(d, switch_choi_vector(d))
    derived = probe._charge_sectors(process, probe._kept(process))
    table = table_sectors("switch", process)
    assert len(derived) == len(table) == {2: 7, 3: 37, 4: 147}[d]
    assert all(np.array_equal(a, b) for a, b in zip(derived, table))


def sign_basis(process, signs):
    """The sign table's torus as ``_null_basis`` returns one: per digit value
    a, the phase vector with sign_f at factor f's digit a."""
    dims, d = process.dims, process.d
    return [[sign * (digit == a) for sign, m in zip(signs, dims) for digit in range(m)]
            for a in range(d)]


def test_the_sign_tables_torus_gives_the_tables_sectors(monkeypatch):
    # positive control for the sign-flip control below: fed the table's
    # torus, the derivation gives the table's sectors
    process = build_switch_choi(2)
    basis = sign_basis(process, SIGN_TABLES["switch"])
    monkeypatch.setattr(probe, "_null_basis", lambda rows, n: basis)
    derived = probe._charge_sectors(process, probe._kept(process))
    assert all(np.array_equal(a, b) for a, b in
               zip(derived, table_sectors("switch", process), strict=True))


@pytest.mark.parametrize("factor", range(6))
def test_a_charge_with_one_sign_flipped_is_refused(factor, monkeypatch):
    # negative control: the switch's charges with one factor's sign flipped
    # are not constant on w's support, which then leaves its sectors
    process = build_switch_choi(2)
    signs = list(SIGN_TABLES["switch"])
    signs[factor] *= -1
    monkeypatch.setattr(probe, "_null_basis", lambda rows, n: sign_basis(process, signs))
    with pytest.raises(ValueError, match="leaves its charge sectors"):
        build_constraint_system("switch", 2)


@pytest.mark.parametrize("kind", ["identity", "switch"])
def test_a_derivation_that_drops_a_support_row_is_refused(kind, monkeypatch):
    # negative control: the default process plus a vector on two kept
    # indices of different sectors, whose one row e(a) - e(b) merges them.
    # A derivation without that last row finds a torus that does not fix
    # W: the support leaves its sectors, and the system is refused
    process = probe.KINDS[kind][0](2)
    sectors = sectors_of(build_constraint_system(kind, 2))
    a, b = sectors[0][0], sectors[1][0]
    pair = np.zeros(process.size)
    pair[[a, b]] = 1.0
    bumped = Process(2, np.vstack([process.vectors, pair]), (1.0, 1e-300))
    merged = sectors_of(build_constraint_system(kind, 2, bumped))
    assert any(a in s and b in s for s in merged) and len(merged) < len(sectors)
    null_basis = probe._null_basis
    monkeypatch.setattr(probe, "_null_basis", lambda rows, n: null_basis(rows[:-1], n))
    with pytest.raises(ValueError, match="leaves its charge sectors"):
        build_constraint_system(kind, 2, bumped)


def test_a_dense_stack_feeds_each_distinct_torus_row_once(monkeypatch):
    # the eigenvector stack of a perturbed switch matrix: 256 vectors of
    # 256 nonzeros give 65,280 torus rows e(r) - e(r0), of which 255 are
    # distinct (every r0 is index 0); the elimination gets each once, in
    # the order of its first appearance, and the kept indices form one sector
    rng = np.random.default_rng(21)
    process = eigen_stack(2, build_switch_choi(2).op.entries
                          + 0.1 * random_hermitian_direction(256, rng))
    assert process.vectors.shape == (256, 256) and np.all(process.vectors != 0)
    fed, null_basis = [], probe._null_basis
    monkeypatch.setattr(probe, "_null_basis",
                        lambda rows, n: fed.append(rows) or null_basis(rows, n))
    kept = probe._kept(process)
    sectors = probe._charge_sectors(process, kept)
    (rows,) = fed
    assert len(rows) == len({tuple(r) for r in rows}) == 255
    index = np.arange(1, 256)
    e = np.zeros((256, 16), dtype=int)
    e[np.arange(256)[:, None], np.indices(process.dims).reshape(8, -1).T
      + np.cumsum((0, *process.dims[:-1]))] = 1
    assert rows == (e[index] - e[0]).tolist()
    assert len(sectors) == 1 and np.array_equal(sectors[0], kept) and len(kept) == 256


def test_affine_project_builds_its_layout_once(monkeypatch):
    # the one-sector layout is a cached property of the system, shared by
    # affine_project and the residual oracle
    sys = build_constraint_system("switch", 2)
    calls, layout = [], probe._layout
    monkeypatch.setattr(probe, "_layout", lambda *args: calls.append(args) or layout(*args))
    x = reference(sys)
    for _ in range(3):
        assert frobenius(affine_project(sys, x), x) <= 1e-13
        assert constraint_residual(sys, x) <= 1e-13
    assert len(calls) == 1 and sys.dense_layout is sys.dense_layout


def test_null_basis_is_an_exact_integer_kernel():
    # one primitive integer vector per free column, in column order, that
    # every row annihilates, exactly, from rows that need fraction-free steps
    rows = [[2, 4, 0, -2], [1, 2, 1, 0], [3, 6, 1, -2]]
    basis = probe._null_basis(rows, 4)
    assert basis == [[-2, 1, 0, 0], [1, 0, -1, 1]]
    assert all(sum(r * x for r, x in zip(row, b)) == 0 for row in rows for b in basis)
    assert all(isinstance(x, int) for b in basis for x in b)
    assert probe._null_basis([], 3) == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


def test_the_dephased_switch_builds_with_no_row_of_its_own():
    # W_q = (1 - q)|w><w| + q(|w0><w0| + |w1><w1|) at q = 0.5, the stack of
    # the switch and its two control branches: no KINDS row builds it, and
    # its system is read off the process alone, with the switch's sectors,
    # both involutions (S swaps the branches, R keeps each) and storage
    w = switch_choi_vector(2)
    control = np.arange(256) % 4
    branches = [np.where(control == 0, w, 0), np.where(control == 3, w, 0)]
    dephased = Process(2, np.stack([w, *branches]), (0.5, 0.5, 0.5))
    assert not np.array_equal(dephased.op.entries, build_switch_choi(2).op.entries)
    sys = ConstraintSystem("switch", dephased)
    assert (len(sectors_of(sys)), len(sys.symmetry.involutions)) == (7, 2)
    assert (len(sys.layout.orbits), len(sys.layout.reference)) == (3_696, 924)
    assert all(np.array_equal(a, b) for a, b in
               zip(sectors_of(sys), table_sectors("switch", dephased), strict=True))


@pytest.mark.parametrize("kind,d,process", [
    *((kind, d, None) for kind, d, _, _ in TABLE_COUNTS), ("cp_family", 2, None),
    ("identity", 2, build_derived_one_slot("transpose", 2)), ("transpose", 3, None),
    ("switch", 3, None)])
def test_segment_tables_take_the_partial_traces(kind, d, process, monkeypatch):
    # each traced part alone, with coefficient 1: the slot sum of an
    # invariant matrix is, at each orbit's first entry, the sum over the
    # slots whose traced row and column digits agree there of np.trace over
    # the part's axes of the dense matrix, at the entry's other digits, and
    # 0 where they agree in no slot; the map's coefficients count the
    # members of each coordinate.  The transpose process under the identity
    # kind's charges is one sector; the d = 3 switch system is built past
    # the guard
    process = process or probe.KINDS[kind][0](d)
    slots, n = process.slots, process.size
    dims = (d,) * 2 * slots + (process.nout,)
    rng = np.random.default_rng(18)
    for part in ((0,), (1,), (0, 1)):
        monkeypatch.setattr(probe, "_slot_map", lambda d: ((part, 1.0),))
        sys = ConstraintSystem(kind, process)
        v = random_coordinates(sys, rng)
        first = entries_of(sys)[first_entries(sys)]
        rows, cols = (np.array(np.unravel_index(i, dims)) for i in np.divmod(first, n))
        tensor = dense(sys, v).reshape(dims * 2)
        want = np.zeros(len(v))
        for j in range(slots):
            axes = [2 * j + t for t in part]
            traced = tensor
            for k, a in enumerate(reversed(axes)):
                traced = np.trace(traced, axis1=a, axis2=a + len(dims) - k)
            agree = (rows[axes] == cols[axes]).all(axis=0)
            other = [a for a in range(len(dims)) if a not in axes]
            want[agree] += traced[tuple(rows[other][:, agree]) + tuple(cols[other][:, agree])]
        coef = sys.layout.slot_sum.coef
        assert np.array_equal(coef, np.round(coef)) and coef.min() >= 1
        got = sys.layout.slot_sum(v)
        assert np.abs(got - want).max() <= 1e-13 and np.abs(want).max() > 0.01


def slot_marginal(process, x):
    """Tr_slots x: the nout x nout matrix summed over the input index a."""
    nin, nout = process.nin, process.nout
    return np.einsum("aoap->op", x.reshape(nin, nout, nin, nout))


@pytest.mark.parametrize("kind", probe.KINDS)
def test_affine_project_fixes_the_slot_marginal(kind):
    # the premise of the kept-output lemma: the identity lies in each slot's
    # span{J_U}, so every affine point has the reference's slot marginal
    sys = build_constraint_system(kind, 2)
    y = 10 * random_hermitian_direction(sys.process.size, np.random.default_rng(16))
    want = slot_marginal(sys.process, sys.process.op.entries)
    assert frobenius(slot_marginal(sys.process, y), want) > 1.0
    assert frobenius(slot_marginal(sys.process, affine_project(sys, y)), want) <= 1e-13


# (process, kept indices) of every default process
KEPT = [*((build_identity_process(d), d ** 4) for d in (2, 3, 4)),
        *((build_derived_one_slot("transpose", d), d ** 4) for d in (2, 3, 4)),
        (build_derived_one_slot("conjugate_qubit", 2), 16),
        *((Process(d, switch_choi_vector(d)), 2 * d ** 6) for d in (2, 3)),
        (build_cp_family(1.0), 8)]


@pytest.mark.parametrize("process,count", KEPT)
def test_kept_set_of_each_kind(process, count):
    # every index of the one-slot unique kinds; the switch's PC = FC, half of
    # its indices; C_1's P F in {00, 11}
    kept = probe._kept(process)
    assert len(kept) == count
    if count < process.size:  # the last two output digits, PC FC or P F, agree
        output = kept % process.nout
        assert np.array_equal(output // 2 % 2, output % 2)


@pytest.mark.parametrize("kind,d", [*((kind, 2) for kind in probe.KINDS),
                                    ("identity", 3), ("transpose", 3), ("switch", 3)])
def test_project_matches_the_full_buffer_oracle(kind, d):
    # the partial traces give the product through a buffer of every output
    # pair, on the coordinates of a real and a complex invariant matrix,
    # and map their image onto itself; the d = 3 switch system is built
    # past the guard
    sys = ConstraintSystem(kind, probe.KINDS[kind][0](d))
    rng = np.random.default_rng(17)
    v, orbits = random_coordinates(sys, rng), sys.layout.orbits
    for x in (v, v + 1j * random_coordinates(sys, rng)):
        got = _project(sys.layout, x)
        assert frobenius(got[orbits], full_buffer_project(sys, x[orbits])) <= 1e-13
        assert frobenius(got[orbits]) > 0.1
        assert np.abs(_project(sys.layout, got) - got).max() <= 1e-15  # idempotent


def test_a_kept_set_that_drops_a_reached_output_is_refused(monkeypatch):
    # negative control: a dropped output would shrink the probe's search
    # space, and its probe would still pass
    kept = probe._kept

    def dropped(process):
        k = kept(process)
        return k[k % process.nout != k[-1] % process.nout]

    monkeypatch.setattr(probe, "_kept", dropped)
    for kind in ("identity", "switch", "cp_family"):
        process = probe.KINDS[kind][0](2)
        o = kept(process)[-1] % process.nout
        assert slot_marginal(process, process.op.entries)[o, o] > 0
        with pytest.raises(ValueError, match="kept outputs"):
            build_constraint_system(kind, 2)


def test_an_involution_that_moves_the_kept_set_is_never_used(monkeypatch):
    # negative control: the transposition of a kept index i and the index j
    # of i with FC flipped, both 0 in w and of one charge, fixes w but maps
    # the kept set off itself; the flip of FC maps every sector off it.
    # Only the qudit reversal is kept
    _, reverse = switch_involutions(2)
    w = switch_choi_vector(2)
    kept = probe._kept(Process(2, w))
    i = int(next(i for i in kept if w[i] == 0))
    flip = np.arange(256) ^ 1
    g = np.arange(256)
    g[[i, flip[i]]] = flip[i], i
    assert np.array_equal(w[g], w) and flip[i] not in kept
    assert not np.isin(flip[kept], kept).any()
    monkeypatch.setattr(probe, "_involutions", lambda process: (g, flip, reverse))
    sys = build_constraint_system("switch", 2)
    assert len(sys.symmetry.involutions) == 1
    assert np.array_equal(sys.symmetry.involutions[0], reverse)
    rep = alternating_projection_probe(sys, starts=2)
    assert rep.passed, [c for c in rep.checks if not c.passed]


def test_sectors_that_do_not_partition_the_basis_are_refused(monkeypatch):
    # negative control: a dropped sector would shrink the probe's search
    # space, and its probe would still pass
    charge_sectors = probe._charge_sectors
    monkeypatch.setattr(probe, "_charge_sectors",
                        lambda *args: charge_sectors(*args)[:-1])
    for kind in ("identity", "switch"):
        with pytest.raises(ValueError, match="partition"):
            build_constraint_system(kind, 2)


def random_block_diagonal(sys, rng):
    return twirl(sys, random_hermitian_direction(sys.process.size, rng).real)


@pytest.mark.parametrize("kind,d", [(kind, d) for kind, d, _, _ in SECTOR_COUNTS])
def test_affine_project_keeps_the_sector_blocks(kind, d):
    # and, on a G-invariant matrix, the group's invariance: so the probe's
    # map on the coordinates gives the dense map's matrix to rounding, on a
    # real and on a complex block-diagonal matrix
    sys = build_constraint_system(kind, d)
    direction = group_twirl(sys, twirl(sys, random_hermitian_direction(
        sys.process.size, np.random.default_rng(d))))
    for x in (direction.real, direction):
        y = affine_project(sys, x)
        assert not off_sector(sys, y).any()
        assert frobenius(y, x) > 0.1  # the projection moved x
        assert frobenius(dense(sys, coordinates(sys, y)), y) <= 1e-14  # invariant
        assert frobenius(dense(sys, probe._affine(sys.layout, coordinates(sys, x))), y) <= 1e-13


@pytest.mark.parametrize("kind,d", [*((kind, 2) for kind in probe.KINDS), ("identity", 3),
                                    ("switch", 3)])
def test_orbit_kernels_match_the_one_sector_oracle(kind, d):
    # one call of each kernel on the coordinates of a real and of a complex
    # G-invariant Hermitian matrix gives, expanded, what the layout of one
    # coordinate per entry gives on the whole matrix: the one-sector layout
    # of every index (affine_project's), and for the d = 3 switch, built
    # past the guard, whose one sector would hold 8.5 million entries, the
    # layout of its sectors with no involution; the clip against each whole
    # sector block's psd_project
    sys = ConstraintSystem(kind, probe.KINDS[kind][0](d))
    layout, rng = sys.layout, np.random.default_rng(20)
    if kind == "switch" and d == 3:
        oracle, expand = block_layout(sys), (lambda v: v[layout.orbits])
    else:
        oracle, expand = sys.dense_layout, (lambda v: dense(sys, v).reshape(-1))
    assert np.array_equal(expand(layout.reference), oracle.reference)
    real = layout.reference + random_coordinates(sys, rng)
    imag = rng.standard_normal(len(real))
    imag -= imag[layout.transpose]
    for v in (real, real + 1j * imag / frobenius(imag, weights=layout.weights)):
        assert frobenius(expand(_project(layout, v)), _project(oracle, expand(v))) <= 1e-13
        assert frobenius(expand(probe._affine(layout, v)), probe._affine(oracle, expand(v))) \
            <= 1e-13
        # the norms and inner products of unit-scale differences
        a, b = v - layout.reference, probe._affine(layout, v) - layout.reference
        assert abs(frobenius(a, weights=layout.weights) - frobenius(expand(a))) <= 1e-13
        assert abs(real_dot(a, b, layout.weights) - real_dot(expand(a), expand(b))) <= 1e-13
    # the clip, positively homogeneous, of the unit-norm multiple
    unit = real / frobenius(real, weights=layout.weights)
    x = dense(sys, unit)
    assert np.linalg.eigvalsh(x)[0] < -1e-4  # the clip has work to do
    assert frobenius(dense(sys, probe._clip(sys, unit)), _dense_sector_clip(sys, x)) <= 1e-13


@pytest.mark.parametrize("kind", ["identity", "switch"])
def test_sector_clip_matches_dense_clip(kind):
    # the switch's clip reads the isotypic blocks of a G-invariant matrix
    sys = build_constraint_system(kind, 2)
    x = reference(sys) + group_twirl(sys, random_block_diagonal(sys, np.random.default_rng(13)))
    clipped = dense(sys, probe._clip(sys, coordinates(sys, x)))
    assert frobenius(clipped, psd_project(x)) <= 1e-12
    assert np.linalg.eigvalsh(x)[0] < -0.01  # the clip had work to do


# (kind, d, distinct isotypic block sizes): the switch at d = 3 is built
# past its row
CLIP_STACKS = [("identity", 2, 2), ("switch", 2, 4), ("transpose", 2, 2),
               ("conjugate_qubit", 2, 2), ("cp_family", 2, 1), ("identity", 3, 4),
               ("transpose", 3, 4), ("identity", 4, 3), ("transpose", 4, 3), ("switch", 3, 8)]


@pytest.mark.parametrize("kind,d,sizes", CLIP_STACKS)
def test_clip_is_one_stacked_solve_per_block_size(kind, d, sizes, monkeypatch):
    # one psd_project call per distinct isotypic block size, on the stack of
    # every block of that size, gives the oracle's clip of each whole
    # sector block of a G-invariant start point
    sys = ConstraintSystem(kind, probe.KINDS[kind][0](d))
    v = probe._affine(sys.layout, probe._start_point(sys, SampleStream(17)).real)
    assert min(map(min_eigenvalue, probe._blocks(sys.layout, v))) < -1e-3  # work to do
    blocks = sorted(b - a for _, _, cuts in sys.symmetry.clips for a, b in zip(cuts, cuts[1:]))
    shapes = []
    clip = probe.psd_project
    monkeypatch.setattr(probe, "psd_project", lambda x: shapes.append(x.shape) or clip(x))
    y = probe._clip(sys, v)
    monkeypatch.undo()
    assert [k for _, k, _ in shapes] == sorted(set(blocks)) and len(shapes) == sizes
    assert sorted(k for count, k, _ in shapes for _ in range(count)) == blocks
    assert frobenius(dense(sys, y), _dense_sector_clip(sys, dense(sys, v))) <= 1e-13


def eigh_clip(x):
    """``psd_project`` through the eigensolve for every block size, 1 x 1
    included."""
    w, v = np.linalg.eigh((x + np.swapaxes(x.conj(), -1, -2)) / 2)
    return (v * np.maximum(w, 0.0)[..., None, :]) @ np.swapaxes(v.conj(), -1, -2)


def test_one_by_one_clip_matches_the_eigensolve_bit_for_bit():
    # real and complex stacks of 1 x 1 matrices, with signed zeros, tiny,
    # subnormal and negative entries, and a 2-D one: the same bits as the
    # eigensolve, and no eigensolve
    rng = np.random.default_rng(31)
    values = np.array([0.0, -0.0, 1.0, -1.0, 1e-300, -1e-300, 5e-324, -5e-324, -2.5])
    stacks = []
    for _ in range(200):
        re = rng.choice(values, size=(rng.integers(1, 6), 1, 1))
        stacks += [re, re + 1j * rng.choice(values, size=re.shape),
                   rng.standard_normal(re.shape)]
    stacks.append(np.array([[-0.0 + 0.0j]]))
    want = [eigh_clip(x) for x in stacks]

    def no_eigh(x):
        raise AssertionError(f"eigh of a {x.shape} stack")

    with pytest.MonkeyPatch.context() as m:
        m.setattr(np.linalg, "eigh", no_eigh)
        for x, w in zip(stacks, want):
            y = psd_project(x)
            assert y.shape == w.shape and y.dtype == w.dtype
            assert np.array_equal(y.view(np.uint64), w.view(np.uint64))


def test_switch_clip_sends_no_one_by_one_stack_to_eigh(monkeypatch):
    # the d = 2 switch clip has a stack of 1 x 1 isotypic blocks, clipped
    # without an eigensolve, and still gives the oracle's clip
    sys = build_constraint_system("switch", 2)
    v = probe._affine(sys.layout, probe._start_point(sys, SampleStream(17)).real)
    assert any(k == 1 for _, k in sys.symmetry.stacks)
    shapes, eigh = [], np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda x: shapes.append(x.shape) or eigh(x))
    y = probe._clip(sys, v)
    monkeypatch.undo()
    assert shapes and all(s[-2:] != (1, 1) for s in shapes)
    assert len(shapes) == len(sys.symmetry.stacks) - 1
    assert frobenius(dense(sys, y), _dense_sector_clip(sys, dense(sys, v))) <= 1e-13


def test_a_process_under_another_kind_gets_its_own_sectors():
    # the transpose process has entries off the identity's sectors; under
    # the identity kind it gets the transpose's own sectors and involution,
    # as the kind only names the report, and its probe passes
    sys = build_constraint_system("identity", 2, build_derived_one_slot("transpose", 2))
    own = build_constraint_system("transpose", 2)
    assert all(np.array_equal(a, b) for a, b in
               zip(sectors_of(sys), sectors_of(own), strict=True))
    assert len(sys.symmetry.involutions) == len(own.symmetry.involutions) == 1
    default = build_constraint_system("identity", 2)
    assert off_sector(default, reference(sys)).any()
    assert len(sectors_of(build_constraint_system("cp_family", 2))) == 1
    rep = alternating_projection_probe(sys, starts=3)
    assert rep.passed, [c for c in rep.checks if not c.passed]


def identity_with_off_sector_pair(value):
    """The identity process with ``value`` at an entry off its sectors and
    the conjugate at the transposed entry."""
    sectors = sectors_of(build_constraint_system("identity", 2))
    row, col = sectors[0][0], sectors[1][0]
    proc = with_entries(build_identity_process(2), [(row, col, value)])
    assert proc.entry(row, col) == value and proc.entry(col, row) == np.conj(value)
    return proc


def test_a_tiny_off_sector_pair_gives_one_sector():
    # negative control: the derivation reads the exact support, with no
    # tolerance below which an entry counts as 0, so the 1e-300 pair lands
    # in one sector
    row, col = (s[0] for s in sectors_of(build_constraint_system("identity", 2))[:2])
    sys = build_constraint_system("identity", 2, identity_with_off_sector_pair(1e-300))
    assert any(row in s and col in s for s in sectors_of(sys))
    assert not off_sector(sys, sys.process.op.entries).any()


def test_a_tiny_imaginary_pair_is_refused():
    # negative control: the realness test is exact too
    with pytest.raises(ValueError, match="real"):
        build_constraint_system("identity", 2, identity_with_off_sector_pair(1e-300j))


def test_override_process_must_match_kind_and_dimension():
    mismatched = [("identity", 2, Process(2, switch_choi_vector(2))),
                  ("switch", 2, build_identity_process(2)),
                  ("identity", 3, build_identity_process(2))]
    for kind, d, process in mismatched:
        with pytest.raises(ValueError):
            build_constraint_system(kind, d, process)


def test_targets_match_reference_action():
    sys = build_constraint_system("identity", 2)
    assert constraint_residual(sys, reference(sys)) <= 1e-12


def test_reference_is_fixed_point():
    for kind in ("identity", "cp_family"):
        sys = build_constraint_system(kind, 2)
        x = reference(sys)
        y = affine_project(sys, psd_project(x))
        assert frobenius(y, x) <= 1e-11


def test_affine_projection_idempotent_and_exact():
    sys = build_constraint_system("identity", 2)
    rng = np.random.default_rng(3)
    x = reference(sys) + 3.0 * random_hermitian_direction(16, rng)
    y = affine_project(sys, x)
    assert constraint_residual(sys, y) <= 1e-10
    assert frobenius(affine_project(sys, y), y) <= 1e-12
    # orthogonal projection: the removed component is orthogonal to the shift
    removed = x - y
    assert abs(np.vdot(removed, y - reference(sys))) <= 1e-10


def test_psd_projection_firmly_nonexpansive():
    rng = np.random.default_rng(4)
    for _ in range(10):
        g = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        x = (g + g.conj().T) / 2
        z = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        z = z @ z.conj().T  # an arbitrary PSD point
        px = psd_project(x)
        assert frobenius(px, z) <= frobenius(x, z) + 1e-12
        assert np.linalg.eigvalsh(px)[0] >= -1e-12


def test_probe_identity_converges():
    sys = build_constraint_system("identity", 2)
    rep = alternating_projection_probe(sys, starts=5)
    assert rep.passed, [c for c in rep.checks if not c.passed]
    assert rep.check("max_distance_to_reference").measured <= 1e-6


def test_probe_derived_kind_converges():
    sys = build_constraint_system("transpose", 2)
    rep = alternating_projection_probe(sys, starts=3)
    assert rep.passed


@pytest.mark.parametrize("kind,d", [("identity", 2), ("switch", 2), ("transpose", 2),
                                    ("conjugate_qubit", 2), ("identity", 3), ("identity", 4)])
def test_probe_never_forms_the_dense_process(kind, d, monkeypatch):
    # the probe reads a pure process through its vector alone
    def dense_matrix(process):
        raise AssertionError("the probe formed the dense process matrix")

    monkeypatch.setattr(Process, "op", property(dense_matrix))
    rep = alternating_projection_probe(build_constraint_system(kind, d), starts=2)
    assert rep.passed, [c for c in rep.checks if not c.passed]


def test_probe_determinism():
    sys = build_constraint_system("identity", 2)
    a = alternating_projection_probe(sys, starts=3, seed=9)
    b = alternating_projection_probe(sys, starts=3, seed=9)
    assert a.checks == b.checks and a.notes == b.notes


def test_starts_draw_in_turn_from_one_stream(monkeypatch):
    # start k begins at the affine point of the k-th draw of the seed's one
    # stream, so a run of n starts begins with the first n starts of any
    # longer run
    sys = build_constraint_system("switch", 2)
    begun, run_single = [], probe._run_single
    monkeypatch.setattr(probe, "_run_single",
                        lambda sys_, x: begun.append(x.copy()) or run_single(sys_, x))
    alternating_projection_probe(sys, starts=3, seed=4)
    stream = SampleStream(4)
    want = [probe._affine(sys.layout, probe._start_point(sys, stream).real) for _ in range(3)]
    assert all(np.array_equal(x, w) for x, w in zip(begun, want, strict=True))
    assert not np.array_equal(want[0], want[1])


def dense_direction(sys, re, im):
    """A start direction built densely from m real and m imaginary normals:
    complex normals on the m sector block entries, 0 off them, made
    Hermitian as g + g^H, twirled over the kind's involutions and scaled to
    sqrt(D) / n, D the dimension of the invariant block matrices (m without
    any)."""
    flat, n = entries_of(sys), sys.process.size
    g = np.zeros(n * n, dtype=complex)
    g[flat] = re + 1j * im
    h = group_twirl(sys, g.reshape(n, n) + g.reshape(n, n).conj().T)
    return h * (math.sqrt(invariant_dimension(sys)) / n / np.linalg.norm(h))


def drawn_direction(sys, seed):
    """The direction a probe start draws first from SampleStream(seed)."""
    return dense_direction(sys, *SampleStream(seed).normal((2, len(entries_of(sys)))))


def perturbed_start(sys, seed):
    """The reference plus the real part of the direction drawn from seed:
    its affine projection is where the probe's start begins."""
    return reference(sys) + drawn_direction(sys, seed).real


def loop_input(sys, seed):
    """A start point that is test input only: the reference plus the real
    part of a direction of numpy's normals of seed, real parts first.  The
    loop comparisons below run from these fixed points, not from the
    probe's own draws."""
    rng = np.random.default_rng(seed)
    m = len(entries_of(sys))
    return reference(sys) + dense_direction(sys, rng.standard_normal(m),
                                            rng.standard_normal(m)).real


def affine_start(sys, start):
    """The probe's affine projection of the coordinates of the G-invariant
    matrix ``start``."""
    return probe._affine(sys.layout, coordinates(sys, start))


@pytest.mark.parametrize("kind,seed", [("identity", 1), ("transpose", 6),
                                       ("switch", 3)])
def test_run_single_matches_fresh_array_loop(kind, seed):
    # reusing the correction, the history and the start's buffer changes no bit
    sys = build_constraint_system(kind, 2)
    start = loop_input(sys, seed)
    x, dist, iters = probe._run_single(sys, affine_start(sys, start))
    ox, odist, oiters = dykstra_start(sys, start)
    assert np.array_equal(x, ox) and (dist, iters) == (odist, oiters)
    assert 1 < iters < probe.MAX_ITER


# c of the blocked loop's error model: the block storage sums each
# iteration's norms, dots and clips in another order than the dense loop, so
# their final iterates x part by rounding that grows with the iterations, at
# most c * iterations * ||x||_F * eps.  Over seeds 1-30 the gap over
# iterations * ||x||_F * eps read at most 3.4 for the switch under two BLAS
# threads, 1.5 under one, and 1.6 for the identity under either.
LOOP_ROUNDING = 8


@pytest.mark.parametrize("kind,seed", [(kind, seed) for kind in ("switch", "identity")
                                       for seed in range(1, 31)])
def test_blocked_start_matches_dense_fresh_array_loop(kind, seed):
    # the block storage changes the sums of the norms and dots, and no more
    sys = build_constraint_system(kind, 2)
    start = loop_input(sys, seed)
    x, dist, iters = probe._run_single(sys, affine_start(sys, start))
    dx, ddist, diters = dykstra_start(sys, start, dense=True)
    assert iters == diters
    bound = LOOP_ROUNDING * iters * frobenius(dx) * np.finfo(float).eps
    assert frobenius(dense(sys, x), dx) <= bound
    assert dist <= probe.TOL and ddist <= probe.TOL


@pytest.mark.parametrize("kind,seed", [("identity", 1), ("switch", 3)])
def test_secant_step_halves_the_iterations(kind, seed):
    sys = build_constraint_system(kind, 2)
    start = loop_input(sys, seed)
    _, plain_dist, plain_iters = dykstra_start(sys, start, secant=False)
    _, dist, iters = probe._run_single(sys, affine_start(sys, start))
    assert plain_dist <= probe.TOL and dist <= probe.TOL
    assert iters <= plain_iters // 2


def _zero_denominator_vdot(dot):
    return lambda a, b, weights=None: 0.0 if a is b else dot(a, b, weights)


def _nan_numerator_vdot(dot):
    return lambda a, b, weights=None: dot(a, b, weights) if a is b else math.nan


@pytest.mark.parametrize("patch", [_zero_denominator_vdot, _nan_numerator_vdot])
def test_secant_falls_back_to_the_plain_step(patch, monkeypatch):
    # a zero ||df||^2, or a NaN gamma and so a non-finite secant point,
    # takes the plain Dykstra step every time
    sys = build_constraint_system("identity", 2)
    start = loop_input(sys, 1)
    plain = dykstra_start(sys, start, secant=False)
    x0 = affine_start(sys, start)
    calls = []
    patched = patch(probe.real_dot)
    monkeypatch.setattr(probe, "real_dot",
                        lambda a, b, w: calls.append(a is b) or patched(a, b, w))
    x, dist, iters = probe._run_single(sys, x0)
    monkeypatch.undo()
    assert np.array_equal(x, plain[0]) and (dist, iters) == plain[1:]
    assert calls.count(True) == iters - 2  # every step after the first two
    assert dist <= probe.TOL


@pytest.mark.parametrize("kind", ["identity", "switch", "transpose"])
def test_unique_start_returns_numbers_only(kind):
    # a start gives back its final checks, no matrix
    sys = build_constraint_system(kind, 2)
    result = probe._run_start(sys, SampleStream(4))
    assert len(result) == 4
    assert not any(isinstance(v, np.ndarray) for v in result)
    start = probe._affine(sys.layout, probe._start_point(sys, SampleStream(4)).real)
    x, dist, iters = probe._run_single(sys, start.copy())
    # a start begins at the affine point of the real part of the dense draw
    # and stays real
    want = affine_start(sys, perturbed_start(sys, 4))
    assert frobenius(start, want) <= 1e-15 * frobenius(want)
    assert np.isrealobj(x)
    matrix = dense(sys, x)
    least = min(np.linalg.eigvalsh((b + b.T) / 2)[0]
                for b in (matrix[np.ix_(s, s)] for s in sectors_of(sys)))
    # the dense residual, the slot projection of the difference from the
    # reference, which the coordinates sum in another order: the two agree
    # to rounding of that difference
    constrained = constrained_part(sys, matrix)
    assert not off_sector(sys, constrained).any()
    resid = frobenius(blocks(sys, constrained))
    assert result[:2] == (dist, iters) and result[3] == -least
    assert abs(result[2] - resid) <= 1e-14 * frobenius(matrix, reference(sys))
    assert abs(resid - constraint_residual(sys, matrix)) <= 1e-14 * resid
    assert abs(least - np.linalg.eigvalsh(matrix)[0]) <= 1e-12


@pytest.mark.parametrize("kind,d", [("switch", 2), ("identity", 3), ("transpose", 2),
                                    ("cp_family", 2)])
def test_start_direction_is_drawn_on_the_blocks(kind, d):
    # the start point's direction holds the dense draw's block
    # entries, twirled over the kind's involutions; its norm sqrt(D) / n is
    # the mean norm of the G-twirl of a dense unit direction, here over 40
    # draws (the transpose's spread is 8 %)
    sys = build_constraint_system(kind, d)
    dim, n = invariant_dimension(sys), sys.process.size
    assert dim == len(sys.layout.reference)
    rng = np.random.default_rng(d)
    twirled = [frobenius(group_twirl(sys, twirl(sys, random_hermitian_direction(n, rng))))
               for _ in range(40)]
    assert abs(np.mean(twirled) / (math.sqrt(dim) / n) - 1.0) <= 0.03
    # the draw is read on a zero reference: adding and subtracting the
    # reference's unit entries would round it
    zero = dataclasses.replace(sys.layout, reference=np.zeros_like(sys.layout.reference))
    got = probe._start_point(SimpleNamespace(layout=zero, symmetry=sys.symmetry,
                                             process=sys.process), SampleStream(5))
    want = drawn_direction(sys, 5)
    assert not off_sector(sys, want).any()
    assert frobenius(dense(sys, got), want) <= 1e-15
    assert abs(frobenius(got, weights=sys.layout.weights) - math.sqrt(dim) / n) <= 1e-15


def test_cp_family_start_is_the_dense_unit_draw():
    # one sector holds the 8 kept indices, which the reversal R maps onto
    # themselves: the draw is the dense unit draw on that 8 x 8 block, real
    # parts before imaginary ones, twirled over R, to rounding, and scaled
    # by sqrt(D) / n for the D = 32 orbits of its 64 entries
    sys = build_constraint_system("cp_family", 2)
    assert (len(sys.layout.orbits), len(sys.layout.reference), sys.process.size) == (64, 32, 16)
    (reverse,), kept = involutions_of(sys), sectors_of(sys)[0]
    for seed in range(30):
        re, im = SampleStream(seed).normal((2, 8, 8))
        g = np.zeros((16, 16), dtype=complex)
        g[np.ix_(kept, kept)] = re + 1j * im
        h = g + g.conj().T
        h = (h + h[np.ix_(reverse, reverse)]) / 2
        want = reference(sys) + h / frobenius(h) * math.sqrt(32) / 16
        assert frobenius(dense(sys, probe._start_point(sys, SampleStream(seed))), want) \
            <= 1e-15, seed


@pytest.mark.parametrize("kind,d", [*((kind, 2) for kind in probe.KINDS), ("identity", 3),
                                    ("switch", 3)])
def test_real_start_is_the_real_part_of_the_affine_point(kind, d):
    # the affine map is real-linear and its Hermitian part commutes with Re,
    # so a start projects the real part of its point alone, and gets the
    # same bits as the real part of the complex point's projection; the
    # d = 3 switch system is built past the guard
    sys = ConstraintSystem(kind, probe.KINDS[kind][0](d))
    for seed in range(3):
        point = probe._start_point(sys, SampleStream(seed))
        assert np.iscomplexobj(point)
        want = probe._affine(sys.layout, point).real
        assert np.array_equal(probe._affine(sys.layout, point.real), want), seed


def traced_peak(run):
    """The tracemalloc peak of run(), after one untraced call that keeps
    numpy's first-call allocations out."""
    run()
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_switch_start_memory_peak():
    # the secant history must not raise the peak: the complex affine point
    # is freed before the loop, and the loop reuses spent buffers; the
    # start's peak, 0.46 MiB, is its draw of 7,392 normals and the final
    # checks' whole sector blocks
    sys = build_constraint_system("switch", 2)
    assert traced_peak(lambda: probe._run_start(sys, SampleStream(3))) <= 1 * 2 ** 20


def test_switch_loop_memory_peak():
    # the loop holds four 7 KiB coordinate vectors and, in the affine map
    # and the clip, the maps' gathered terms (a 0.10 MiB peak); 29 KiB
    # block vectors took 0.30 MiB, and dense 0.5 MiB iterates about 4 MiB
    sys = build_constraint_system("switch", 2)
    start = probe._affine(sys.layout, probe._start_point(sys, SampleStream(3)).real)
    assert traced_peak(lambda: probe._run_single(sys, start.copy())) <= 0.5 * 2 ** 20


def test_switch_d3_start_memory_peak():
    # a start projects the real part of its point: the complex point's
    # affine map, with its complex gathers and segment sums, took 14.2 MiB
    sys = ConstraintSystem("switch", Process(3, switch_choi_vector(3)))
    assert traced_peak(lambda: probe._run_start(sys, SampleStream(3))) <= 11 * 2 ** 20


def test_switch_d3_system_memory_peak():
    # the layout stores 35,170 coordinates of 140,676 entries, 1.1 MB an
    # entry table, and the slot sum and clip maps, 4.5 MiB; the dense
    # 2916^2 process alone would take 136 MB, and an n^2 int64 table 68 MB
    process = Process(3, switch_choi_vector(3))
    assert traced_peak(lambda: ConstraintSystem("switch", process)) <= 64 * 2 ** 20
    layout = ConstraintSystem("switch", process).layout
    assert (layout.orbits.size, layout.reference.size) == (140_676, 35_170)


def test_switch_d3_project_memory_peak():
    # one call holds the slot sum's gathered terms, 3 MiB; a slot-pair
    # buffer of the kept outputs and its product took 32 MiB
    sys = ConstraintSystem("switch", Process(3, switch_choi_vector(3)))
    v = random_coordinates(sys, np.random.default_rng(19))
    assert traced_peak(lambda: _project(sys.layout, v)) <= 8 * 2 ** 20


class _NanNormals:
    """A stream whose draws hold one NaN: every start is not finite."""

    def __init__(self, seed):
        pass

    def normal(self, shape):
        normals = np.zeros(shape)
        normals.flat[0] = np.nan
        return normals


def _non_finite_switch(monkeypatch):
    # W0 x 1e308 is finite, but the first affine point is not
    big = Process(2, switch_choi_vector(2), (1e308,))
    return build_constraint_system("switch", 2, big)


def _non_finite_identity(monkeypatch):
    monkeypatch.setattr(probe, "SampleStream", _NanNormals)
    return build_constraint_system("identity", 2)


@pytest.mark.parametrize("make", [_non_finite_switch, _non_finite_identity])
def test_non_finite_start_stops_at_once_and_fails(make, monkeypatch):
    # NaN meets neither stopping rule, and an eigensolve of it may raise
    sys = make(monkeypatch)
    monkeypatch.setattr(probe, "MAX_ITER", 50)
    eigensolves = []
    monkeypatch.setattr(probe, "min_eigenvalue",
                        lambda x: eigensolves.append(x) or 0.0)
    with np.errstate(all="ignore"):
        rep = alternating_projection_probe(sys, starts=2)
    assert not rep.passed
    iterations = re.fullmatch(r"iterations=\[(\d+), (\d+)\]", rep.notes[1])
    assert max(map(int, iterations.groups())) <= 1
    for name in ("final_constraint_residual", "final_negative_eigenvalue",
                 "max_distance_to_reference"):
        assert np.isnan(rep.check(name).measured) and not rep.check(name).passed
    assert eigensolves == []


def test_non_finite_cp_family_reference_fails_without_polish(monkeypatch):
    # a NaN direction gives a NaN witness start; the polish and every
    # eigensolve, which may raise on it, are skipped, and the C_p probe runs
    # no starts
    sys = build_constraint_system("cp_family", 2)
    monkeypatch.setattr(probe, "SampleStream", _NanNormals)
    eigensolves = []
    monkeypatch.setattr(probe, "min_eigenvalue",
                        lambda x: eigensolves.append(x) or 0.0)
    monkeypatch.setattr(probe, "psd_project", lambda x: eigensolves.append(x) or x)
    monkeypatch.setattr(probe, "_polish_witness", lambda *args: pytest.fail("polished"))
    with np.errstate(all="ignore"):
        rep = alternating_projection_probe(sys, starts=2)
    assert not rep.passed
    names = [c.name for c in rep.checks]
    assert "final_constraint_residual" not in names
    assert "final_negative_eigenvalue" not in names
    for name in ("witness_constraint_residual", "witness_negative_eigenvalue"):
        assert np.isnan(rep.check(name).measured) and not rep.check(name).passed
    assert not rep.check("witness_distance_exceeds_threshold").passed
    assert eigensolves == []


SRC = str(Path(probe.__file__).resolve().parents[1])


@pytest.fixture(scope="module")
def cp_family_run():
    """The default cp_family probe (seed 0), with its system and the last
    polish start recorded."""
    starts = []
    polish = probe._polish_witness

    def spy(sys_, start, max_iter):
        starts.append(start)
        return polish(sys_, start, max_iter)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(probe, "_polish_witness", spy)
        cp_family = alternating_projection_probe(build_constraint_system("cp_family", 2),
                                                 starts=10)
    assert len(starts) == 2
    return {"cp_family": cp_family, "system": build_constraint_system("cp_family", 2),
            "polish_start": starts[-1]}


def test_failed_start_raises_without_hanging():
    # a row of -1 names no coordinate, so every start raises
    broken = build_constraint_system("identity", 2)
    slot_sum = broken.layout.slot_sum
    slot_sum = dataclasses.replace(slot_sum, rows=np.full_like(slot_sum.rows, -1))
    object.__setattr__(broken, "layout", dataclasses.replace(broken.layout, slot_sum=slot_sum))
    with pytest.raises(ValueError):
        alternating_projection_probe(broken, starts=4)


def test_cli_import_loads_no_pool_modules():
    code = ("import sys, switchcert.cli; print([m for m in sys.modules "
            "if m.startswith(('multiprocessing', 'concurrent'))])")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, timeout=60, env={**os.environ, "PYTHONPATH": SRC})
    assert out.returncode == 0, out.stderr
    assert out.stdout == "[]\n"


def test_probe_cp_family_witness(cp_family_run):
    rep = cp_family_run["cp_family"]
    assert rep.passed, [c for c in rep.checks if not c.passed]
    # the benchmark harness parses this note format; the C_p probe runs no
    # starts, so it has no iterations note
    assert any(re.search(r"polish_iterations=(\d+)", n) for n in rep.notes)
    assert not any(n.startswith("iterations=[") for n in rep.notes)


def test_polish_witness_is_fast_and_feasible(cp_family_run):
    sys, start = cp_family_run["system"], cp_family_run["polish_start"]
    witness, evals = probe._polish_witness(sys, start, 400_000)
    witness = dense(sys, witness)
    # plain alternating projections need about 148,000 evaluations here
    assert 1 <= evals <= 5000
    assert np.linalg.norm(witness - reference(sys)) >= 0.1
    assert constraint_residual(sys, witness) <= 1e-6
    assert np.linalg.eigvalsh(witness)[0] >= -1e-6


def test_probe_cp_family_witness_budget_too_small_fails(monkeypatch):
    sys = build_constraint_system("cp_family", 2)
    monkeypatch.setattr(probe, "WITNESS_MAX_ITER", 3)
    rep = alternating_projection_probe(sys, starts=10, seed=0)
    assert not rep.passed
    assert not rep.check("witness_negative_eigenvalue").passed
    assert "polish_iterations=3" in rep.notes[-1]


def witness_search(seed, monkeypatch):
    """The default cp_family probe at ``seed``, and the start and witness
    of each polish, as dense matrices."""
    sys = build_constraint_system("cp_family", 2)
    calls = []
    polish = probe._polish_witness

    def spy(sys_, start, max_iter):
        witness, evals = polish(sys_, start, max_iter)
        calls.append((dense(sys, start), dense(sys, witness)))
        return witness, evals

    monkeypatch.setattr(probe, "_polish_witness", spy)
    return alternating_projection_probe(sys, starts=10, seed=seed), reference(sys), calls


@pytest.mark.parametrize("seed", range(9))
def test_cp_family_witness_follows_a_direction_far_above_rounding(seed, monkeypatch):
    # each polish after the first starts WITNESS_AMPLITUDE along the last
    # witness's displacement, which lies short of the threshold but far
    # above rounding from the reference (at least 1.3e-3 at these seeds),
    # and the search stops at the first witness past the threshold
    rep, w, calls = witness_search(seed, monkeypatch)
    assert rep.passed, [c for c in rep.checks if not c.passed]
    distances = [frobenius(witness, w) for _, witness in calls]
    assert 1 <= len(calls) <= probe.WITNESS_POLISHES
    assert distances[-1] >= probe.WITNESS_THRESHOLD
    assert all(1e-3 <= t < probe.WITNESS_THRESHOLD for t in distances[:-1])
    for (start, _), (_, last) in zip(calls[1:], calls):
        want = w + probe.WITNESS_AMPLITUDE * (last - w) / frobenius(last, w)
        assert frobenius(start, want) <= 1e-15


@pytest.mark.parametrize("seed", [856, 1083, 2177, 4640])
def test_cp_family_witness_escapes_a_first_witness_at_the_reference(seed, monkeypatch):
    # at these seeds the first witness lands within 1e-5 of the reference,
    # whose displacement leads the second polish only 0.002-0.09 out: two
    # polishes failed here, and a third, along the second witness, passes
    rep, w, calls = witness_search(seed, monkeypatch)
    assert rep.passed, [c for c in rep.checks if not c.passed]
    distances = [frobenius(witness, w) for _, witness in calls]
    assert len(calls) == 3
    assert distances[0] <= 1e-5 and distances[1] < probe.WITNESS_THRESHOLD <= distances[2]


def test_cp_family_witness_search_stops_after_its_polishes(monkeypatch):
    # negative control: with a threshold no witness reaches, the search runs
    # WITNESS_POLISHES polishes and the probe fails on the distance alone
    monkeypatch.setattr(probe, "WITNESS_THRESHOLD", 10.0)
    rep, _, calls = witness_search(0, monkeypatch)
    assert len(calls) == probe.WITNESS_POLISHES
    assert [c.name for c in rep.checks if not c.passed] == ["witness_distance_exceeds_threshold"]


@pytest.mark.parametrize("seed", [871, 2603])
def test_cp_family_probe_passes_where_a_start_stalled(seed):
    # when the C_p probe ran Dykstra starts, one start at each of these seeds
    # ran to MAX_ITER and ended off the cone, and the probe failed although
    # its witness passed
    rep = alternating_projection_probe(build_constraint_system("cp_family", 2),
                                       starts=10, seed=seed)
    assert rep.passed, [c for c in rep.checks if not c.passed]


@pytest.mark.parametrize("patch", [_zero_denominator_vdot, _nan_numerator_vdot])
def test_polish_witness_falls_back_to_plain_steps(cp_family_run, monkeypatch, patch):
    # plain steps need 22 evaluations from this start, so a budget of 15
    # ends before the witness is feasible
    sys, start = cp_family_run["system"], cp_family_run["polish_start"]
    monkeypatch.setattr(probe, "real_dot", patch(probe.real_dot))
    witness, evals = probe._polish_witness(sys, start, 15)
    monkeypatch.undo()
    assert evals == 15
    assert np.isfinite(witness).all()
    assert np.linalg.eigvalsh(dense(sys, witness))[0] < -probe.FEAS_TOL
    # every step fell back to the plain map affine o psd
    x = affine_project(sys, dense(sys, start))
    for _ in range(15):
        x = affine_project(sys, psd_project(x))
    assert frobenius(dense(sys, witness), x) <= 1e-12
