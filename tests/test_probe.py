import dataclasses
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
from switchcert.channels import haar_random_unitary, unitary_choi
from switchcert.linalg import Operator, frobenius
from switchcert.probe import (
    ConstraintSystem,
    _project,
    affine_project,
    alternating_projection_probe,
    build_constraint_system,
    psd_project,
    random_hermitian_direction,
)
from switchcert.span import span_dimension_formula, span_projector, vec_kron
from switchcert.switch import Process, build_switch_choi, switch_choi_vector
from switchcert.uniqueness import build_derived_one_slot, build_identity_process

from oracles import constraint_residual, dykstra_start, link, pair_table_layout


def test_constraint_system_shapes():
    sys2 = build_constraint_system("identity", 2)
    assert sys2.family_rank == 10 == span_dimension_formula(2)
    assert (sys2.process.slots, sys2.slot_projector.shape) == (1, (16, 16))
    assert sys2.in_projector.shape == (16, 16)
    sys3 = build_constraint_system("identity", 3)
    assert sys3.family_rank == 65
    sw = build_constraint_system("switch", 2)
    assert sw.family_rank == 100 == span_dimension_formula(2) ** 2
    assert (sw.process.slots, sw.slot_projector.shape) == (2, (16, 16))
    assert sw.in_projector.shape == (256, 256)
    # the layout holds the reference: the real part of the process's matrix
    # at the block entries
    stored = sw.layout.reference
    assert stored.dtype == float and stored.flags.c_contiguous
    assert np.array_equal(stored, reference(sw).reshape(-1)[sw.layout.entries])
    assert not stored.flags.writeable and not sw.slot_projector.flags.writeable
    assert not hasattr(sw, "reference")


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


def slot_map(slot, slots, y):
    """``probe._project`` of the matrix y, stored as one sector of every
    index, by a stand-in system that holds only the slot projector, the
    slot count, y's size and a zero process."""
    process = SimpleNamespace(slots=slots, size=len(y), entry=lambda r, c: np.zeros(len(r)))
    stand_in = SimpleNamespace(slot_projector=slot, process=process)
    layout = probe._layout(stand_in, (np.arange(len(y)),))
    return _project(stand_in, layout, y.reshape(-1)).reshape(y.shape)


def constrained_part(sys, x):
    return slot_map(sys.slot_projector, sys.process.slots, x - reference(sys))


@pytest.mark.parametrize("kind,d", [("identity", 2), ("cp_family", 2),
                                    ("transpose", 2), ("identity", 3)])
def test_one_slot_constrained_part_is_the_dense_product(kind, d):
    # a complex y gets the complex product of the dense path, bit for bit
    sys = build_constraint_system(kind, d)
    x = random_hermitian_direction(sys.process.size, np.random.default_rng(6))
    assert np.array_equal(constrained_part(sys, x),
                          dense_project(sys.in_projector, x - reference(sys),
                                        sys.process.nin))


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
    assert frobenius(slot_map(slot, 2, y), dense) <= 1e-6 * np.linalg.norm(dense)
    assert round(np.trace(slot)) == span_dimension_formula(3) == 65


def test_switch_projection_d4_without_a_dense_projector():
    # d = 4, nout = 2: y is 512 x 512, where the dense projector would be
    # 65536 x 65536.  _project must be the orthogonal projection onto
    # span{J_U} (x) span{J_U} (x) L(out) in the input index pairs.
    d, nout = 4, 2
    rng = np.random.default_rng(9)
    slot = span_projector(d)

    def project(y):
        return slot_map(slot, 2, y)

    def random_y():
        g = rng.standard_normal((2, d ** 4 * nout, d ** 4 * nout))
        return g[0] + 1j * g[1]

    a, b = random_y(), random_y()
    pa = project(a)
    assert frobenius(project(pa), pa) <= 1e-12 * np.linalg.norm(pa)
    assert abs(np.vdot(pa, b) - np.vdot(a, project(b))) \
        <= 1e-10 * np.linalg.norm(a) * np.linalg.norm(b)
    j1, j2 = (unitary_choi(haar_random_unitary(d, rng)) for _ in range(2))
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


def spectrum_matrix(eigenvalues, rng):
    q, _ = np.linalg.qr(random_hermitian_direction(len(eigenvalues), rng))
    return (q * np.asarray(eigenvalues, dtype=float)) @ q.conj().T


@pytest.mark.parametrize("positive", [0, 3, 4, 5, 8])
def test_psd_project_positive_rebuild_matches_full_clip(positive):
    # n = 8, with none, fewer than half, half, more than half and all of the
    # eigenvalues positive
    rng = np.random.default_rng(positive)
    eigenvalues = np.concatenate([-rng.uniform(0.1, 2.0, 8 - positive),
                                  rng.uniform(0.1, 2.0, positive)])
    h = spectrum_matrix(rng.permutation(eigenvalues), rng)
    w, v = np.linalg.eigh(h)
    assert np.count_nonzero(w > 0) == positive
    full = (v * np.clip(w, 0.0, None)) @ v.conj().T
    assert frobenius(psd_project(h), full) <= 1e-14 * max(1.0, np.linalg.norm(h))


def haar_slot_basis(d, seed=0):
    """Orthonormal d^2 x d^2 operators spanning sampled span{J_U}, via an SVD."""
    rng = np.random.default_rng(seed)
    mat = np.array([unitary_choi(haar_random_unitary(d, rng)).reshape(-1)
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
    with pytest.raises(ValueError):
        build_constraint_system("nope", 2)
    with pytest.raises(ValueError):
        build_constraint_system("switch", 3)
    with pytest.raises(ValueError):
        build_constraint_system("cp_family", 3)


def test_complex_override_process_is_refused():
    # negative control: the identity process conjugated by a diagonal phase
    # unitary is a process with complex entries, which the probe, working in
    # real arithmetic, must refuse instead of projecting to its real part
    phases = np.exp(0.3j * np.arange(16))
    rotated = Process(2, vector=phases * build_identity_process(2).vector)
    assert np.abs(rotated.op.entries.imag).max() > 0.1
    with pytest.raises(ValueError, match="real"):
        build_constraint_system("identity", 2, rotated)


def hermitian_part(m):
    return (m + m.conj().T) / 2


def test_real_part_of_a_complex_feasible_point_is_feasible():
    # The lemma of the probe's docstring, on a point built by hand: X = W + tH
    # for a complex Hermitian H in the kernel of the constraint map.  W is
    # made positive definite, the identity process plus white noise, so a
    # small enough step stays PSD.
    w = build_identity_process(2).op.entries.real + np.eye(16)
    sys = build_constraint_system("identity", 2, Process(2, dense=Operator(w)))
    g = random_hermitian_direction(16, np.random.default_rng(11))
    h = hermitian_part(g - slot_map(sys.slot_projector, 1, g))
    assert np.linalg.norm(slot_map(sys.slot_projector, 1, h)) <= 1e-14
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
    for s in sys.sectors:
        y[np.ix_(s, s)] = x[np.ix_(s, s)]
    return y


def off_sector(sys, x):
    """x with its sector blocks zeroed: what the torus twirl removes."""
    return x - twirl(sys, x)


def blocks(sys, x):
    """The probe's block vector of the matrix x: its sector block entries."""
    return x.reshape(-1)[sys.layout.entries]


def dense(sys, v):
    """The matrix stored as the block vector v: 0 off the sector blocks."""
    n = sys.process.size
    x = np.zeros(n * n, dtype=v.dtype)
    x[sys.layout.entries] = v
    return x.reshape(n, n)


def test_twirl_of_a_feasible_point_is_feasible():
    # The twirl lemma of the probe's docstring, on a point built by hand as
    # in the Re-lemma test: X = W + tH with H in the kernel of the
    # constraint map, both on and off the sectors, and W twirl-invariant
    # and positive definite.
    w = build_identity_process(2).op.entries.real + np.eye(16)
    sys = build_constraint_system("identity", 2, Process(2, dense=Operator(w)))
    assert len(sys.sectors) == 5
    g = random_hermitian_direction(16, np.random.default_rng(12))
    h = hermitian_part(g - slot_map(sys.slot_projector, 1, g))
    assert np.linalg.norm(slot_map(sys.slot_projector, 1, h)) <= 1e-14
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


# (kind, d, sectors, largest sector) of every default unique reference
SECTOR_COUNTS = [("switch", 2, 7, 80), ("identity", 2, 5, 6), ("identity", 3, 19, 15),
                 ("identity", 4, 55, 28), ("transpose", 2, 5, 6),
                 ("conjugate_qubit", 2, 5, 6)]


@pytest.mark.parametrize("kind,d,count,largest", SECTOR_COUNTS)
def test_unique_reference_is_zero_off_its_sectors(kind, d, count, largest):
    sys = build_constraint_system(kind, d)
    assert (len(sys.sectors), max(map(len, sys.sectors))) == (count, largest)
    assert sorted(np.concatenate(sys.sectors)) == list(range(sys.process.size))
    assert not off_sector(sys, reference(sys)).any()
    assert np.linalg.norm(reference(sys)) > 1.0
    # the block storage holds the whole reference
    assert np.array_equal(dense(sys, sys.layout.reference), reference(sys))


@pytest.mark.parametrize("kind,d,process", [
    *((kind, d, None) for kind, d, _, _ in SECTOR_COUNTS), ("cp_family", 2, None),
    ("identity", 2, build_derived_one_slot("transpose", 2))])
def test_layout_matches_the_pair_table(kind, d, process):
    # the slot-pair positions from two tables of length n, and the reference
    # read at the block entries alone, against an n^2 table and the dense
    # reference; the last case is one sector, as the transpose process has
    # entries off the identity's sectors
    sys = build_constraint_system(kind, d, process)
    want = pair_table_layout(sys, sys.sectors)
    for field in dataclasses.fields(want):
        assert np.array_equal(getattr(sys.layout, field.name), getattr(want, field.name)), \
            field.name


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
    # so the probe's map on the block vector, a scatter, the slot products
    # and a gather, gives the dense map's block entries bit for bit, on a
    # real and on a complex block-diagonal matrix
    sys = build_constraint_system(kind, d)
    direction = twirl(sys, random_hermitian_direction(sys.process.size,
                                                      np.random.default_rng(d)))
    for x in (direction.real, direction):
        y = affine_project(sys, x)
        assert not off_sector(sys, y).any()
        assert frobenius(y, x) > 0.1  # the projection moved x
        assert np.array_equal(probe._affine(sys, sys.layout, blocks(sys, x)), blocks(sys, y))


@pytest.mark.parametrize("kind", ["identity", "switch"])
def test_sector_clip_matches_dense_clip(kind):
    sys = build_constraint_system(kind, 2)
    x = reference(sys) + random_block_diagonal(sys, np.random.default_rng(13))
    clipped = dense(sys, probe._clip(sys.layout, blocks(sys, x)))
    assert frobenius(clipped, psd_project(x)) <= 1e-12
    assert np.linalg.eigvalsh(x)[0] < -0.01  # the clip had work to do


def test_reference_off_its_sectors_gets_one_dense_sector():
    # the transpose process under the identity kind's charges has entries
    # off the sectors: its probe runs on one sector of every index
    sys = build_constraint_system("identity", 2, build_derived_one_slot("transpose", 2))
    assert len(sys.sectors) == 1
    assert np.array_equal(sys.sectors[0], np.arange(16))
    default = build_constraint_system("identity", 2)
    assert off_sector(default, reference(sys)).any()
    assert len(build_constraint_system("cp_family", 2).sectors) == 1
    rep = alternating_projection_probe(sys, starts=3)
    assert rep.passed, [c for c in rep.checks if not c.passed]


def identity_with_off_sector_pair(value):
    """The dense identity process with ``value`` at an entry off its
    sectors and the conjugate at the transposed entry."""
    sectors = build_constraint_system("identity", 2).sectors
    row, col = sectors[0][0], sectors[1][0]
    w = build_identity_process(2).op.entries.copy()
    w[row, col], w[col, row] = value, np.conj(value)
    return Process(2, dense=Operator(w))


def test_a_tiny_off_sector_pair_gives_one_sector():
    # negative control: the off-sector test reads the exact support, with no
    # tolerance below which an entry counts as 0
    sys = build_constraint_system("identity", 2, identity_with_off_sector_pair(1e-300))
    assert len(sys.sectors) == 1


def test_a_tiny_imaginary_pair_is_refused():
    # negative control: the realness test is exact too
    with pytest.raises(ValueError, match="real"):
        build_constraint_system("identity", 2, identity_with_off_sector_pair(1e-300j))


def test_override_process_must_match_kind_and_dimension():
    mismatched = [("identity", 2, Process(2, vector=switch_choi_vector(2))),
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


def perturbed_start(sys, seed):
    """The reference plus the real part of the unit direction drawn from
    seed, zeroed off the sectors: its affine projection is where the
    probe's start begins."""
    rng = np.random.default_rng(seed)
    direction = random_hermitian_direction(sys.process.size, rng).real
    return reference(sys) + twirl(sys, direction)


def affine_start(sys, start):
    """The block vector of the affine projection of the matrix ``start``."""
    return blocks(sys, affine_project(sys, start))


@pytest.mark.parametrize("kind,seed", [("identity", 1), ("transpose", 6),
                                       ("switch", 3)])
def test_run_single_matches_fresh_array_loop(kind, seed):
    # reusing the correction, the history and the start's buffer changes no bit
    sys = build_constraint_system(kind, 2)
    start = perturbed_start(sys, seed)
    x, dist, iters = probe._run_single(sys, affine_start(sys, start))
    ox, odist, oiters = dykstra_start(sys, start)
    assert np.array_equal(x, ox) and (dist, iters) == (odist, oiters)
    assert 1 < iters < probe.MAX_ITER


@pytest.mark.parametrize("kind,seed", [("switch", 1), ("switch", 2), ("switch", 3),
                                       ("switch", 4), ("identity", 1)])
def test_blocked_start_matches_dense_fresh_array_loop(kind, seed):
    # the block storage changes the sums of the norms and dots, and no more
    sys = build_constraint_system(kind, 2)
    start = perturbed_start(sys, seed)
    x, dist, iters = probe._run_single(sys, affine_start(sys, start))
    dx, ddist, diters = dykstra_start(sys, start, dense=True)
    assert iters == diters
    assert frobenius(dense(sys, x), dx) <= 1e-13
    assert dist <= probe.TOL and ddist <= probe.TOL


@pytest.mark.parametrize("kind,seed", [("identity", 1), ("switch", 3)])
def test_secant_step_halves_the_iterations(kind, seed):
    sys = build_constraint_system(kind, 2)
    start = perturbed_start(sys, seed)
    _, plain_dist, plain_iters = dykstra_start(sys, start, secant=False)
    _, dist, iters = probe._run_single(sys, affine_start(sys, start))
    assert plain_dist <= probe.TOL and dist <= probe.TOL
    assert iters <= plain_iters // 2


def _zero_denominator_vdot(dot):
    return lambda a, b: 0.0 if a is b else dot(a, b)


def _nan_numerator_vdot(dot):
    return lambda a, b: dot(a, b) if a is b else math.nan


@pytest.mark.parametrize("patch", [_zero_denominator_vdot, _nan_numerator_vdot])
def test_secant_falls_back_to_the_plain_step(patch, monkeypatch):
    # a zero ||df||^2, or a NaN gamma and so a non-finite secant point,
    # takes the plain Dykstra step every time
    sys = build_constraint_system("identity", 2)
    start = perturbed_start(sys, 1)
    plain = dykstra_start(sys, start, secant=False)
    x0 = affine_start(sys, start)
    calls = []
    patched = patch(probe._dot)
    monkeypatch.setattr(probe, "_dot", lambda a, b: calls.append(a is b) or patched(a, b))
    x, dist, iters = probe._run_single(sys, x0)
    monkeypatch.undo()
    assert np.array_equal(x, plain[0]) and (dist, iters) == plain[1:]
    assert calls.count(True) == iters - 2  # every step after the first two
    assert dist <= probe.TOL


@pytest.mark.parametrize("kind", ["identity", "switch", "transpose"])
def test_unique_start_returns_numbers_only(kind):
    # a start gives back its final checks, no matrix
    sys = build_constraint_system(kind, 2)
    result = probe._run_start(sys, 4)
    assert len(result) == 4
    assert not any(isinstance(v, np.ndarray) for v in result)
    start = affine_start(sys, perturbed_start(sys, 4))
    x, dist, iters = probe._run_single(sys, start.copy())
    # a start begins at the real part of the affine point and stays real
    assert np.array_equal(start, probe._affine_start(sys, 4).real)
    assert np.isrealobj(x)
    matrix = dense(sys, x)
    least = min(np.linalg.eigvalsh((b + b.T) / 2)[0]
                for b in (matrix[np.ix_(s, s)] for s in sys.sectors))
    # the dense residual's nonzero entries, summed in block order
    constrained = constrained_part(sys, matrix)
    assert not off_sector(sys, constrained).any()
    resid = probe._norm(blocks(sys, constrained))
    assert result[:4] == (dist, iters, resid, -least)
    assert abs(resid - constraint_residual(sys, matrix)) <= 1e-14 * resid
    assert abs(least - np.linalg.eigvalsh(matrix)[0]) <= 1e-12


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
    # is freed before the loop, and the loop reuses spent buffers
    sys = build_constraint_system("switch", 2)
    assert traced_peak(lambda: probe._run_start(sys, 3)) <= 4.0 * 2 ** 20


def test_switch_loop_memory_peak():
    # the loop holds four 115 KiB block vectors and, in the affine map, a
    # 0.5 MiB slot-pair buffer and its products; dense 0.5 MiB iterates
    # would take it to about 4 MiB
    sys = build_constraint_system("switch", 2)
    start = probe._affine_start(sys, 3).real
    assert traced_peak(lambda: probe._run_single(sys, start.copy())) <= 2.5 * 2 ** 20


def test_switch_d3_system_memory_peak():
    # the layout stores 562,704 entries, 4.5 MB a field; the dense 2916^2
    # process alone would take 136 MB, and an n^2 int64 table 68 MB
    process = Process(3, vector=switch_choi_vector(3))
    assert traced_peak(lambda: ConstraintSystem("switch", process)) <= 64 * 2 ** 20
    assert ConstraintSystem("switch", process).layout.entries.size == 562_704


def _nan_direction(n, rng):
    """A start direction with one NaN entry: every start is not finite."""
    direction = np.zeros((n, n), dtype=complex)
    direction[0, 0] = np.nan
    return direction


def _non_finite_switch(monkeypatch):
    # W0 x 1e308 is finite, but the first affine point is not
    big = Process(2, dense=Operator(build_switch_choi(2).op.entries * 1e308))
    return build_constraint_system("switch", 2, big)


def _non_finite_identity(monkeypatch):
    monkeypatch.setattr(probe, "random_hermitian_direction", _nan_direction)
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
    monkeypatch.setattr(probe, "random_hermitian_direction", _nan_direction)
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

    def spy(sys_, start, feas_tol, max_iter):
        starts.append(start)
        return polish(sys_, start, feas_tol, max_iter)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(probe, "_polish_witness", spy)
        cp_family = alternating_projection_probe(build_constraint_system("cp_family", 2),
                                                 starts=10)
    assert len(starts) == 2
    return {"cp_family": cp_family, "system": build_constraint_system("cp_family", 2),
            "polish_start": starts[-1]}


def test_failed_start_raises_without_hanging(monkeypatch):
    # a 3 x 3 slot projector fits no slot, so every start raises
    monkeypatch.setattr(probe, "span_projector", lambda d: np.eye(3))
    broken = build_constraint_system("identity", 2)
    with pytest.raises(ValueError):
        alternating_projection_probe(broken, starts=4)


def test_cli_import_loads_no_pool_modules():
    code = ("import sys, switchcert.cli; print([m for m in sys.modules "
            "if m.startswith(('multiprocessing', 'concurrent'))])")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, timeout=60, env={**os.environ, "PYTHONPATH": SRC})
    assert out.returncode == 0, out.stderr
    assert out.stdout == "[]\n"


def test_reports_do_not_depend_on_the_blas_thread_count():
    # BLAS splits a large dot product or eigensolve by thread count; the
    # probe's norms, dots and least eigenvalues do not go through it
    def report(threads):
        env = {**os.environ, "PYTHONPATH": SRC,
               **dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                "MKL_NUM_THREADS"), str(threads))}
        out = subprocess.run([sys.executable, "-m", "switchcert.cli", "probe", "--dim", "2",
                              "--seed", "5", "--no-timestamp", "--format", "json"],
                             capture_output=True, timeout=120, env=env)
        assert out.returncode == 0, out.stderr
        return out.stdout

    assert report(1) == report(2)


def test_probe_cp_family_witness(cp_family_run):
    rep = cp_family_run["cp_family"]
    assert rep.passed, [c for c in rep.checks if not c.passed]
    # the benchmark harness parses this note format; the C_p probe runs no
    # starts, so it has no iterations note
    assert any(re.search(r"polish_iterations=(\d+)", n) for n in rep.notes)
    assert not any(n.startswith("iterations=[") for n in rep.notes)


def test_polish_witness_is_fast_and_feasible(cp_family_run):
    sys, start = cp_family_run["system"], cp_family_run["polish_start"]
    witness, evals = probe._polish_witness(sys, start, 1e-6, 400_000)
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


@pytest.mark.parametrize("seed", range(9))
def test_cp_family_witness_follows_a_direction_far_above_rounding(seed, monkeypatch):
    # the second polish follows the first one's witness, which lies far
    # from the reference
    sys = build_constraint_system("cp_family", 2)
    witnesses = []
    polish = probe._polish_witness

    def spy(*args):
        witness, evals = polish(*args)
        witnesses.append(witness)
        return witness, evals

    monkeypatch.setattr(probe, "_polish_witness", spy)
    rep = alternating_projection_probe(sys, starts=10, seed=seed)
    assert rep.passed, [c for c in rep.checks if not c.passed]
    assert len(witnesses) == 2
    assert np.linalg.norm(dense(sys, witnesses[0]) - reference(sys)) >= 1e-2


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
    sys, start = cp_family_run["system"], cp_family_run["polish_start"]
    monkeypatch.setattr(probe, "_dot", patch(probe._dot))
    witness, evals = probe._polish_witness(sys, start, 1e-6, 50)
    monkeypatch.undo()
    assert evals == 50
    assert np.isfinite(witness).all()
    # every step fell back to the plain map affine o psd
    x = affine_project(sys, dense(sys, start))
    for _ in range(50):
        x = affine_project(sys, psd_project(x))
    assert frobenius(dense(sys, witness), x) <= 1e-12
