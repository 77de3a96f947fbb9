import numpy as np
import pytest

from switchcert.channels import (
    PAULI,
    choi_from_kraus,
    haar_random_unitary,
    standard_channel,
    unitary_choi,
)
from switchcert.linalg import Operator, frobenius, min_eigenvalue, numerical_rank
from switchcert.switch import Process, build_switch_choi
from switchcert.uniqueness import (
    apply_one_slot,
    grouped_sum_formulas,
    build_cp_family,
    build_derived_one_slot,
    build_identity_process,
    certify_identity_uniqueness,
    cp_factor_matrix,
    cp_family_certificate,
    switch_verification_suite,
    diagonal_certificate,
    diagonal_support_sets,
    fig_circuits_certificate,
    offdiagonal_certificate,
    verify_corollary,
)

H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
S_GATE = np.diag([1.0, 1j]).astype(complex)


def perturbed_one_slot(proc, scale, seed):
    rng = np.random.default_rng(seed)
    n = proc.op.entries.shape[0]
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    bump = g @ g.conj().T
    bump *= scale / np.linalg.norm(bump)
    return Process(proc.d, Operator(proc.op.entries + bump))


def test_identity_process_basics():
    for d in (2, 3):
        proc = build_identity_process(d)
        assert abs(np.trace(proc.op.entries) - d * d) < 1e-12
        assert numerical_rank(proc.op, tol=1e-10) == 1
        assert min_eigenvalue(proc.op) >= -1e-12
        rng = np.random.default_rng(d)
        for _ in range(5):
            ju = unitary_choi(haar_random_unitary(d, rng))
            assert frobenius(apply_one_slot(proc, ju), ju) <= 1e-10

    proc = build_identity_process(2)
    jh = unitary_choi(H)
    assert frobenius(apply_one_slot(proc, jh), jh) <= 1e-12
    jlam = choi_from_kraus(standard_channel("replace_zero", 2))
    assert frobenius(apply_one_slot(proc, jlam), jlam) <= 1e-12


def test_identity_process_is_full_linear_extension():
    # the action extends linearly to arbitrary (non-Hermitian) slot operators
    proc = build_identity_process(3)
    rng = np.random.default_rng(12)
    for _ in range(5):
        m = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
        assert frobenius(apply_one_slot(proc, m), m) <= 1e-12


def test_identity_certificate_passes():
    for d in (2, 3):
        rep = certify_identity_uniqueness(d)
        assert rep.passed, [c for c in rep.checks if not c.passed]
        assert rep.check("diagonal_support_count").measured == d * d


def test_identity_certificate_negative_control():
    proc = build_identity_process(2)
    m = proc.op.entries.copy()
    # zero one forced off-diagonal: ((01,01),(10,10))
    r = (0 * 2 + 1) * 4 + (0 * 2 + 1)
    c = (1 * 2 + 0) * 4 + (1 * 2 + 0)
    m[r, c] = 0.0
    m[c, r] = 0.0
    bad = Process(2, Operator(m))
    rep = certify_identity_uniqueness(2, process=bad)
    assert not rep.passed
    assert not rep.check("forced_offdiagonal_dev").passed

    rep = certify_identity_uniqueness(2, process=perturbed_one_slot(
        build_identity_process(2), 1e-3, 0))
    assert not rep.passed


def test_diagonal_certificate():
    for d in (2, 3, 4):
        rep = diagonal_certificate(d)
        assert rep.passed, [c for c in rep.checks if not c.passed]
        assert rep.check("support_count").measured == 2 * d ** 3
    sets = diagonal_support_sets(3)
    sizes = {k: len(v) for k, v in sets.items()}
    assert sizes == {"S1": 24, "S2": 6, "S3": 6, "S4": 6, "S5": 6, "S6": 3, "S7": 3}


def test_diagonal_certificate_negative_control():
    proc = build_switch_choi(2)
    rng = np.random.default_rng(1)
    g = rng.standard_normal((256, 256)) + 1j * rng.standard_normal((256, 256))
    bump = g @ g.conj().T
    bump *= 1e-3 / np.linalg.norm(bump)
    bad = Process(2, Operator(proc.op.entries + bump))
    rep = diagonal_certificate(2, process=bad)
    assert not rep.passed


def test_offdiagonal_certificate_exact_sums():
    rep2 = offdiagonal_certificate(2)
    assert rep2.passed
    want2 = {"sum_G1xG1": 24, "sum_G1xG2": 8, "sum_G2xG2": 24,
             "sum_G1xG3": 32, "sum_G2xG3": 32, "sum_G3xG3": 64}
    for name, val in want2.items():
        assert rep2.check(name).measured == val
    assert rep2.check("ordered_total_saturates_bound").measured == 256

    rep3 = offdiagonal_certificate(3)
    assert rep3.passed
    want3 = {"sum_G1xG1": 1140, "sum_G1xG2": 132, "sum_G2xG2": 72,
             "sum_G1xG3": 456, "sum_G2xG3": 120, "sum_G3xG3": 288}
    for name, val in want3.items():
        assert rep3.check(name).measured == val
    assert rep3.check("ordered_total_saturates_bound").measured == 2916


def test_offdiagonal_formula_values():
    f2 = grouped_sum_formulas(2)
    assert (f2[("G1", "G1")], f2[("G1", "G2")], f2[("G2", "G2")],
            f2[("G1", "G3")], f2[("G2", "G3")], f2[("G3", "G3")]) == \
        (24, 8, 24, 32, 32, 64)


def test_offdiagonal_dense_route_agrees():
    # the dense slice oracle reproduces the sums read off the vector
    rep = offdiagonal_certificate(2, process=build_switch_choi(2))
    assert rep.passed
    assert rep.check("ordered_total_saturates_bound").measured == 256
    with pytest.raises(ValueError, match="dimension mismatch"):
        offdiagonal_certificate(2, process=build_switch_choi(3))


def test_offdiagonal_overflowing_override_fails_cleanly():
    # entries that overflow to inf must fail the integer check, not crash round()
    w0 = build_switch_choi(2).op
    with np.errstate(over="ignore", invalid="ignore"):
        rep = offdiagonal_certificate(2, process=Process(2, Operator(w0.entries * 1e308)))
    assert not rep.passed
    assert not rep.check("entries_integer_dev").passed


def test_derived_transpose_and_conjugate_examples():
    proc = build_derived_one_slot("transpose", 2)
    js = unitary_choi(S_GATE)
    assert frobenius(apply_one_slot(proc, js), js) <= 1e-12  # S symmetric

    proc = build_derived_one_slot("conjugate_qubit", 2)
    jx = unitary_choi(PAULI["x"])
    assert frobenius(apply_one_slot(proc, jx), jx) <= 1e-12  # YXY = -X

    with pytest.raises(ValueError):
        build_derived_one_slot("conjugate_qubit", 3)
    with pytest.raises(ValueError):
        build_derived_one_slot("sandwich", 2)
    with pytest.raises(ValueError):
        build_derived_one_slot("sandwich", 2, a=np.eye(2), b=np.ones((2, 2)))


def test_derived_vectors_match_change_of_variables():
    # oracle: the d^4 x d^4 change of variables m applied to C0's vector
    from switchcert.channels import flip_operator
    rng = np.random.default_rng(21)
    for d in (2, 3, 4):
        eye = np.eye(d)
        c0 = build_identity_process(d).vector
        a, b = haar_random_unitary(d, rng), haar_random_unitary(d, rng)
        m = np.kron(np.kron(a, eye), np.kron(eye, b))
        got = build_derived_one_slot("sandwich", d, a=a, b=b).vector
        assert np.abs(got - m @ c0).max() <= 1e-15
        m = np.kron(flip_operator(d), np.eye(d * d))
        assert np.array_equal(build_derived_one_slot("transpose", d).vector, m @ c0)
    with pytest.raises(ValueError):
        build_derived_one_slot("transpose", 1)


def test_sandwich_identity_reduces_to_identity_process():
    proc = build_derived_one_slot("sandwich", 3, a=np.eye(3), b=np.eye(3))
    assert frobenius(proc.op.entries, build_identity_process(3).op.entries) == 0.0


def test_verify_corollary_reports():
    rep = verify_corollary("transpose", 3, trials=30, seed=0)
    assert rep.passed
    rep = verify_corollary("conjugate_qubit", 2, trials=30, seed=0)
    assert rep.passed
    assert rep.check("replace_target_is_one_projector").passed
    rep = verify_corollary("sandwich", 2, trials=30, seed=0, a=H, b=H)
    assert rep.passed
    bad = perturbed_one_slot(build_derived_one_slot("transpose", 2), 1e-3, 3)
    rep = verify_corollary("transpose", 2, trials=10, seed=0, process=bad)
    assert not rep.passed


def test_cp_family_construction():
    with pytest.raises(ValueError):
        build_cp_family(1.5)
    c1 = build_cp_family(1.0)
    assert numerical_rank(c1.op, tol=1e-10) == 1
    for p in np.linspace(0, 1, 101):
        assert min_eigenvalue(build_cp_family(p).op) >= -1e-12
    # family members differ even though their action agrees
    assert frobenius(build_cp_family(0.0).op.entries, c1.op.entries) > 1.0


def test_cp_factor_matrix_eigenvalues():
    # M_p has spectrum {2 + 2p, 2 - 2p, 0, 0}
    for p in (0.0, 0.5, 1.0):
        w = np.linalg.eigvalsh(cp_factor_matrix(p))[::-1]
        assert np.abs(w - np.array([2 + 2 * p, 2 - 2 * p, 0, 0])).max() < 1e-12


def test_cp_family_action_proportional_to_identity():
    rng = np.random.default_rng(4)
    jid = unitary_choi(np.eye(2))
    jid_hat = jid / np.linalg.norm(jid)
    for _ in range(20):
        ju = unitary_choi(haar_random_unitary(2, rng))
        outs = [apply_one_slot(build_cp_family(p), ju)
                for p in (0.0, 0.5, 1.0)]
        for out in outs:
            coeff = np.vdot(jid_hat, out)
            assert np.linalg.norm(out - coeff * jid_hat) <= 1e-10
            assert abs(coeff.imag) <= 1e-12
        assert frobenius(outs[0], outs[2]) <= 1e-10  # p-independent action
    # the constant does depend on the unitary: Z kills it, I does not
    jz = unitary_choi(PAULI["z"])
    out_z = apply_one_slot(build_cp_family(0.5), jz)
    out_i = apply_one_slot(build_cp_family(0.5), jid)
    assert np.abs(out_z).max() <= 1e-12
    assert np.abs(out_i).max() > 0.5


def test_cp_certificate():
    rep = cp_family_certificate(trials=25, seed=0)
    assert rep.passed, [c for c in rep.checks if not c.passed]


def test_fig_circuits_certificate():
    rep = fig_circuits_certificate(trials=40, seed=0)
    assert rep.passed, [c for c in rep.checks if not c.passed]
    # the replace-channel outputs differ by exactly || I (x) (I/2 - |0><0|) ||_F
    oracle = np.linalg.norm(np.kron(np.eye(2), np.eye(2) / 2 - np.diag([1.0, 0.0])))
    assert abs(rep.check("replace_output_distance").measured - oracle) <= 1e-12
    assert abs(oracle - 1.0) <= 1e-15


def test_certificate_determinism():
    a = cp_family_certificate(trials=10, seed=5)
    b = cp_family_certificate(trials=10, seed=5)
    assert a.checks == b.checks and a.notes == b.notes

    a = certify_identity_uniqueness(3, seed=2)
    b = certify_identity_uniqueness(3, seed=2)
    assert a.checks == b.checks


def test_certify_switch_uniqueness_aggregate():
    rep = switch_verification_suite(3, seed=0, trials=10)[-1]
    assert rep.passed
    assert "probe skipped: the switch probe supports d = 2 only" in rep.notes


def test_pure_one_slot_kernel_matches_dense_oracle():
    rng = np.random.default_rng(13)
    for d in (2, 3):
        a = haar_random_unitary(d, rng)
        b = haar_random_unitary(d, rng)
        procs = [build_identity_process(d), build_derived_one_slot("transpose", d),
                 build_derived_one_slot("sandwich", d, a=a, b=b)]
        if d == 2:
            procs.append(build_derived_one_slot("conjugate_qubit", 2))
        for proc in procs:
            assert proc.vector is not None
            w = proc.vector
            dense = Process(d, Operator(np.outer(w, w.conj())))
            for _ in range(5):
                m = rng.standard_normal((d * d, d * d)) \
                    + 1j * rng.standard_normal((d * d, d * d))
                assert frobenius(apply_one_slot(proc, m), apply_one_slot(dense, m)) <= 1e-12


def test_switch_suite_d4():
    reports = switch_verification_suite(4)
    assert all(r.passed for r in reports), [r.name for r in reports if not r.passed]
    assert reports[-1].name == "switch_uniqueness_d4"
