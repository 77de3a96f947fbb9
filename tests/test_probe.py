import concurrent.futures
import dataclasses
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from switchcert import probe
from switchcert.channels import haar_random_unitary, unitary_choi
from switchcert.linalg import frobenius
from switchcert.probe import (
    BLAS_THREAD_VARS,
    ConstraintSystem,
    affine_project,
    alternating_projection_probe,
    build_constraint_system,
    constraint_residual,
    expected_family_rank,
    psd_project,
    random_hermitian_direction,
)
from switchcert.span import span_dimension_formula, span_projector, vec_kron
from switchcert.switch import link


@pytest.fixture(autouse=True)
def fresh_pool():
    """Each test starts and ends without the shared worker pool."""
    probe._drop_pool()
    yield
    probe._drop_pool()


def test_constraint_system_shapes():
    sys2 = build_constraint_system("identity", 2)
    assert sys2.family_rank == 10 == expected_family_rank(sys2)
    assert (sys2.slots, sys2.slot_projector.shape) == (1, (16, 16))
    assert sys2.in_projector.shape == (16, 16)
    sys3 = build_constraint_system("identity", 3)
    assert sys3.family_rank == 65
    sw = build_constraint_system("switch", 2)
    assert sw.family_rank == 100 == span_dimension_formula(2) ** 2
    assert (sw.slots, sw.slot_projector.shape) == (2, (16, 16))
    assert sw.in_projector.shape == (256, 256)


def dense_constrained_part(sys, x, in_projector):
    """The dense reference: ``in_projector`` on the whole vectorized input
    index pair of x - reference, in matrix layout."""
    n, m = sys.nin, sys.nout
    d4 = (x - sys.reference).reshape(n, m, n, m).transpose(0, 2, 1, 3) \
        .reshape(n * n, m * m)
    if np.isrealobj(in_projector):  # a large real projector is not made complex
        real, imag = (in_projector @ part.astype(in_projector.dtype)
                      for part in (d4.real, d4.imag))
        prod = real + 1j * imag
    else:
        prod = in_projector @ d4
    return prod.reshape(n, n, m, m).transpose(0, 2, 1, 3).reshape(n * m, n * m)


def hand_built_switch_system(d, nout, rng):
    """A two-slot system at any d: random Hermitian reference, nout outputs."""
    nin = d ** 4
    return ConstraintSystem(kind="switch", d=d, nin=nin, nout=nout, slots=2,
                            reference=random_hermitian_direction(nin * nout, rng),
                            slot_projector=span_projector(d),
                            family_rank=span_dimension_formula(d) ** 2)


@pytest.mark.parametrize("kind,d", [("identity", 2), ("cp_family", 2),
                                    ("transpose", 2), ("identity", 3)])
def test_one_slot_constrained_part_is_the_dense_product(kind, d):
    # one slot keeps the complex product of the dense path, bit for bit
    sys = build_constraint_system(kind, d)
    x = random_hermitian_direction(sys.reference.shape[0], np.random.default_rng(6))
    assert np.array_equal(probe._constrained_part(sys, x),
                          dense_constrained_part(sys, x, sys.in_projector))


def test_switch_constrained_part_matches_dense_product_d2():
    sw = build_constraint_system("switch", 2)
    rng = np.random.default_rng(7)
    for _ in range(3):
        x = sw.reference + random_hermitian_direction(256, rng)
        dense = dense_constrained_part(sw, x, sw.in_projector)
        assert frobenius(probe._constrained_part(sw, x), dense) \
            <= 1e-14 * np.linalg.norm(dense)


def test_switch_constrained_part_matches_dense_product_d3():
    # the switch probe itself is d = 2 only, so the d = 3 system is built by
    # hand, with two output dimensions so that no two axis lengths coincide.
    # The dense projector is 6561 x 6561; in single precision it takes 172 MB.
    rng = np.random.default_rng(8)
    sys = hand_built_switch_system(3, 2, rng)
    x = random_hermitian_direction(sys.reference.shape[0], rng)
    slot = sys.slot_projector.astype(np.float32)
    dense = dense_constrained_part(sys, x, vec_kron(slot, slot))
    assert frobenius(probe._constrained_part(sys, x), dense) \
        <= 1e-6 * np.linalg.norm(dense)
    assert sys.family_rank == round(np.trace(sys.slot_projector)) ** 2 == 65 ** 2


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
        x = sys.reference + random_hermitian_direction(sys.reference.shape[0], rng)
        per_family = max(np.linalg.norm(link(x, b) - link(sys.reference, b))
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


def test_targets_match_reference_action():
    sys = build_constraint_system("identity", 2)
    assert constraint_residual(sys, sys.reference) <= 1e-12


def test_reference_is_fixed_point():
    for kind in ("identity", "cp_family"):
        sys = build_constraint_system(kind, 2)
        x = sys.reference
        y = affine_project(sys, psd_project(x))
        assert frobenius(y, x) <= 1e-11


def test_affine_projection_idempotent_and_exact():
    sys = build_constraint_system("identity", 2)
    rng = np.random.default_rng(3)
    x = sys.reference + 3.0 * random_hermitian_direction(16, rng)
    y = affine_project(sys, x)
    assert constraint_residual(sys, y) <= 1e-10
    assert frobenius(affine_project(sys, y), y) <= 1e-12
    # orthogonal projection: the removed component is orthogonal to the shift
    removed = x - y
    assert abs(np.vdot(removed, y - sys.reference)) <= 1e-10


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


def test_probe_determinism():
    sys = build_constraint_system("identity", 2)
    a = alternating_projection_probe(sys, starts=3, seed=9)
    b = alternating_projection_probe(sys, starts=3, seed=9)
    assert a.checks == b.checks and a.notes == b.notes


SRC = str(Path(probe.__file__).resolve().parents[1])


def _usable_cpus(mp, count):
    mp.setattr(probe.os, "sched_getaffinity", lambda pid: set(range(count)),
               raising=False)


def _spy_pools(mp):
    """Record (max_workers, start method) of every process pool the probe
    makes, and the parent's BLAS variables at every task submitted to one."""
    created, submit_env = [], []

    class SpyPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers, **kwargs):
            created.append((max_workers, kwargs["mp_context"].get_start_method()))
            super().__init__(max_workers, **kwargs)

        def submit(self, fn, /, *args, **kwargs):
            submit_env.append([os.environ.get(n) for n in BLAS_THREAD_VARS])
            return super().submit(fn, *args, **kwargs)

    mp.setattr(concurrent.futures, "ProcessPoolExecutor", SpyPool)
    return created, submit_env


@pytest.fixture(scope="module")
def pooled_run():
    """The default identity and then cp_family probes (seed 0) on two
    workers, with the pools made, the parent's BLAS variables afterwards and
    the polish start recorded."""
    starts = []
    polish = probe._polish_witness

    def spy(sys_, start, feas_tol, max_iter):
        starts.append(start)
        return polish(sys_, start, feas_tol, max_iter)

    probe._drop_pool()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(probe, "_polish_witness", spy)
        _usable_cpus(mp, 2)
        pools, _ = _spy_pools(mp)
        mp.setenv("OPENBLAS_NUM_THREADS", "7")
        mp.delenv("MKL_NUM_THREADS", raising=False)
        before = {name: os.environ.get(name) for name in BLAS_THREAD_VARS}
        reps = {kind: alternating_projection_probe(build_constraint_system(kind, 2),
                                                   starts=10)
                for kind in ("identity", "cp_family")}
        after = {name: os.environ.get(name) for name in BLAS_THREAD_VARS}
    probe._drop_pool()
    assert len(starts) == 1  # the polish runs once, in this process
    return {"reports": reps, "pools": pools, "env": (before, after),
            "system": build_constraint_system("cp_family", 2),
            "polish_start": starts[0]}


def test_probe_kinds_share_one_pool(pooled_run):
    assert pooled_run["pools"] == [(2, "spawn")]
    # the BLAS variables are set for the workers only
    before, after = pooled_run["env"]
    assert after == before
    assert before["OPENBLAS_NUM_THREADS"] == "7" and before["MKL_NUM_THREADS"] is None


def test_probe_serial_matches_pool(pooled_run, monkeypatch):
    _usable_cpus(monkeypatch, 1)
    pools, _ = _spy_pools(monkeypatch)
    for kind, rep in pooled_run["reports"].items():
        serial = alternating_projection_probe(build_constraint_system(kind, 2),
                                              starts=10)
        assert serial.checks == rep.checks and serial.notes == rep.notes
    assert pools == []  # one CPU: a plain loop, no pool


def _worker_pid_and_blas(_):
    time.sleep(0.2)  # hold the worker, so that the next task needs another
    return os.getpid(), [os.environ.get(n) for n in BLAS_THREAD_VARS]


def test_pool_workers_have_one_blas_thread(monkeypatch):
    _usable_cpus(monkeypatch, 3)
    pools, submit_env = _spy_pools(monkeypatch)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "7")
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    before = {name: os.environ.get(name) for name in BLAS_THREAD_VARS}
    # a worker is spawned by a submit that finds none idle: the first map
    # spawns two, the second reuses them and spawns the third
    results = probe._map_starts(_worker_pid_and_blas, range(2)) \
        + probe._map_starts(_worker_pid_and_blas, range(6))
    assert pools == [(3, "spawn")]
    one = ["1"] * len(BLAS_THREAD_VARS)
    assert submit_env == [one] * 8
    assert all(env == one for _, env in results)
    assert len({pid for pid, _ in results}) >= 2
    assert {name: os.environ.get(name) for name in BLAS_THREAD_VARS} == before


def test_failed_start_raises_without_hanging(monkeypatch):
    broken = dataclasses.replace(build_constraint_system("identity", 2),
                                 slot_projector=np.eye(3))
    _usable_cpus(monkeypatch, 1)
    with pytest.raises(ValueError):
        alternating_projection_probe(broken, starts=4)
    # Pooled, in a child interpreter so that a hang fails on the timeout: an
    # error in a start is raised in the parent, and so is a worker's death.
    code = """
import dataclasses, os
import numpy as np
from concurrent.futures.process import BrokenProcessPool
from switchcert import probe
os.sched_getaffinity = lambda pid: {0, 1}
broken = dataclasses.replace(probe.build_constraint_system("identity", 2),
                             slot_projector=np.eye(3))
try:
    probe.alternating_projection_probe(broken, starts=4)
except ValueError:
    print("start error raised")
pool = probe._POOL
try:
    probe._map_starts(os._exit, [3, 3, 3])
except BrokenProcessPool:
    print("dead worker raised")
print(probe._POOL is None, probe._map_starts(abs, [-1, -2, -3]),
      probe._POOL not in (None, pool))
"""
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, timeout=120, env={**os.environ, "PYTHONPATH": SRC})
    assert out.returncode == 0, out.stderr
    # the pool survives a failed start, is dropped when a worker dies, and
    # the next call runs on a fresh one
    assert out.stdout.split("\n") == ["start error raised", "dead worker raised",
                                      "True [1, 2, 3] True", ""]


def test_probe_runs_from_a_stdin_script():
    # a spawned worker cannot re-run a __main__ read from standard input
    code = """
import os
from switchcert import probe
os.sched_getaffinity = lambda pid: {0, 1}
sys_ = probe.build_constraint_system("identity", 2)
print(probe.alternating_projection_probe(sys_, starts=2).passed)
"""
    out = subprocess.run([sys.executable, "-"], input=code, capture_output=True,
                         text=True, timeout=120, env={**os.environ, "PYTHONPATH": SRC})
    assert out.returncode == 0, out.stderr
    assert out.stdout == "True\n"


def test_cli_import_loads_no_pool_modules():
    code = ("import sys, switchcert.cli; print([m for m in sys.modules "
            "if m.startswith(('multiprocessing', 'concurrent'))])")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, timeout=60, env={**os.environ, "PYTHONPATH": SRC})
    assert out.returncode == 0, out.stderr
    assert out.stdout == "[]\n"


def test_probe_cp_family_witness(pooled_run):
    rep = pooled_run["reports"]["cp_family"]
    assert rep.passed, [c for c in rep.checks if not c.passed]
    # the benchmark harness parses these two note formats
    assert any(re.fullmatch(r"iterations=\[([\d, ]*)\]", n) for n in rep.notes)
    assert any(re.search(r"polish_iterations=(\d+)", n) for n in rep.notes)


def test_polish_witness_is_fast_and_feasible(pooled_run):
    sys, start = pooled_run["system"], pooled_run["polish_start"]
    witness, evals = probe._polish_witness(sys, start, 1e-6, 400_000)
    # plain alternating projections need about 168,000 evaluations here
    assert 1 <= evals <= 5000
    assert np.linalg.norm(witness - sys.reference) >= 0.1
    assert constraint_residual(sys, witness) <= 1e-6
    assert np.linalg.eigvalsh(witness)[0] >= -1e-6


def test_probe_cp_family_witness_budget_too_small_fails():
    sys = build_constraint_system("cp_family", 2)
    rep = alternating_projection_probe(sys, starts=10, seed=0, witness_max_iter=3)
    assert not rep.passed
    assert not rep.check("witness_negative_eigenvalue").passed
    assert "polish_iterations=3" in rep.notes[-1]


def _nan_lstsq(a, b, rcond=None):
    return np.full(a.shape[1], np.nan), None, 0, None


def _failing_lstsq(a, b, rcond=None):
    raise np.linalg.LinAlgError("SVD did not converge")


@pytest.mark.parametrize("lstsq", [_nan_lstsq, _failing_lstsq])
def test_polish_witness_falls_back_to_plain_steps(pooled_run, monkeypatch, lstsq):
    sys, start = pooled_run["system"], pooled_run["polish_start"]
    monkeypatch.setattr(probe.np.linalg, "lstsq", lstsq)
    witness, evals = probe._polish_witness(sys, start, 1e-6, 50)
    assert evals == 50
    assert np.isfinite(witness).all()
    # every step fell back to the plain map affine o psd
    x = affine_project(sys, start)
    for _ in range(50):
        x = affine_project(sys, psd_project(x))
    assert frobenius(witness, x) <= 1e-12
