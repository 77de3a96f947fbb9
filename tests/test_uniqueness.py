import numpy as np
import pytest

from switchcert.channels import (
    PAULI,
    SampleStream,
    choi_from_kraus,
    haar_random_unitary,
    standard_channel,
    unitary_choi,
)
from switchcert.linalg import frobenius, min_eigenvalue, numerical_rank
from switchcert import uniqueness
from switchcert.span import group_table
from switchcert.switch import Process, build_switch_choi, switch_choi_vector, verify_unitary_action
from switchcert.uniqueness import (
    grouped_sum_formulas,
    build_cp_family,
    build_derived_one_slot,
    build_identity_process,
    certify_identity_uniqueness,
    cp_factor_matrix,
    cp_family_certificate,
    diagonal_certificate,
    diagonal_support_sets,
    fig_circuits_certificate,
    offdiagonal_certificate,
    verify_corollary,
)

from oracles import (apply_one_slot, eigen_stack, grouped_sums_by_pair, minor_pairs_by_family,
                     with_entries)

H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
S_GATE = np.diag([1.0, 1j]).astype(complex)


def perturbed_one_slot(proc, scale, seed):
    rng = np.random.default_rng(seed)
    n = proc.op.entries.shape[0]
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    bump = g @ g.conj().T
    bump *= scale / np.linalg.norm(bump)
    return eigen_stack(proc.d, proc.op.entries + bump)


def test_identity_process_basics():
    for d in (2, 3):
        proc = build_identity_process(d)
        assert abs(np.trace(proc.op.entries) - d * d) < 1e-12
        assert numerical_rank(proc.op) == 1
        assert min_eigenvalue(proc.op) >= -1e-12
        stream = SampleStream(d)
        for _ in range(5):
            ju = unitary_choi(haar_random_unitary(d, stream))
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
    # zero one forced off-diagonal: ((01,01),(10,10))
    r = (0 * 2 + 1) * 4 + (0 * 2 + 1)
    c = (1 * 2 + 0) * 4 + (1 * 2 + 0)
    bad = with_entries(proc, [(r, c, 0.0)])
    assert bad.entry(r, c) == bad.entry(c, r) == 0.0
    rep = certify_identity_uniqueness(2, process=bad)
    assert not rep.passed
    assert not rep.check("forced_offdiagonal_dev").passed

    rep = certify_identity_uniqueness(2, process=perturbed_one_slot(
        build_identity_process(2), 1e-3, 0))
    assert not rep.passed


def test_identity_certificate_sums_the_in_diagonal_over_inputs():
    # all diagonal weight on input pair 0: every in-diagonal sum (over the
    # input pairs) is 1, while a sum over the output pairs would read 4
    rep = certify_identity_uniqueness(2, process=Process(2, np.eye(16)[:4]))
    assert rep.check("in_diagonal_group_sums_dev").passed
    assert not rep.passed


def test_pure_certificates_never_build_the_dense_process(monkeypatch):
    def no_dense(self):
        raise AssertionError("the dense process matrix was built")

    monkeypatch.setattr(Process, "op", property(no_dense))
    with pytest.raises(AssertionError):
        build_identity_process(3).op
    assert certify_identity_uniqueness(3).passed
    assert verify_unitary_action(3, seed=0).passed
    assert verify_corollary("transpose", 3, seed=0).passed
    assert diagonal_certificate(3).passed
    assert offdiagonal_certificate(3).passed


def test_diagonal_certificate():
    for d in (2, 3, 4):
        rep = diagonal_certificate(d)
        assert rep.passed, [c for c in rep.checks if not c.passed]
        assert rep.check("support_count").measured == 2 * d ** 3
        # S1..S7 are disjoint, and together they are the support of the vector
        members = np.concatenate([np.ravel_multi_index(m.T, (d,) * 6 + (2, 2))
                                  for m in diagonal_support_sets(d).values()])
        assert len(np.unique(members)) == len(members)
        assert np.array_equal(np.sort(members), np.flatnonzero(switch_choi_vector(d)))
    sets = diagonal_support_sets(3)
    sizes = {k: len(v) for k, v in sets.items()}
    assert sizes == {"S1": 24, "S2": 6, "S3": 6, "S4": 6, "S5": 6, "S6": 3, "S7": 3}


def test_diagonal_certificate_fails_only_the_displayed_action_off_the_support():
    # W[(ket, 0), (bra, 0)] in the displayed |0101><1010| block is a zero of
    # the row formula (the ket |a b c e> = |0101> has b != c and a != e) and
    # neither a diagonal nor a minor entry: only the displayed-action check
    # sees it change
    dims = (2,) * 6 + (2, 2)
    r = np.ravel_multi_index((0, 1, 0, 1, 0, 0, 0, 0), dims)
    c = np.ravel_multi_index((1, 0, 1, 0, 0, 0, 0, 0), dims)
    w0 = build_switch_choi(2)
    assert w0.entry(r, c) == w0.entry(c, r) == 0.0
    rep = diagonal_certificate(2, process=with_entries(w0, [(r, c, 0.5)]))
    assert [ch.name for ch in rep.checks if not ch.passed] == ["displayed_action_dev"]
    assert rep.check("displayed_action_dev").measured == 0.5


@pytest.mark.parametrize("family", ["S1", "S2", "S3", "S4", "S5", "S6", "S7"])
def test_diagonal_certificate_reads_every_family_of_minors(family):
    # zero the partner entries of one family's minors, keeping W Hermitian:
    # only a certificate that reads those very entries sees the minor open
    dims = (2,) * 6 + (2, 2)
    edits = [(np.ravel_multi_index(a, dims), np.ravel_multi_index(b, dims), 0.0)
             for a, b in minor_pairs_by_family(2)[family]]
    rep = diagonal_certificate(2, process=with_entries(build_switch_choi(2), edits))
    assert rep.check("minor_cross_dev").measured == 1.0
    assert rep.check("minor_product_dev").passed


def test_diagonal_certificate_toy_scan_stays_small():
    # the toy scan runs over one axis of its 101^3 grid at a time
    import tracemalloc
    tracemalloc.start()
    try:
        assert diagonal_certificate(2).passed
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20


def test_diagonal_certificate_negative_control():
    proc = build_switch_choi(2)
    rng = np.random.default_rng(1)
    g = rng.standard_normal((256, 256)) + 1j * rng.standard_normal((256, 256))
    bump = g @ g.conj().T
    bump *= 1e-3 / np.linalg.norm(bump)
    bad = eigen_stack(2, proc.op.entries + bump)
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
    huge = Process(2, switch_choi_vector(2), (1e308,))
    with np.errstate(over="ignore", invalid="ignore"):
        rep = offdiagonal_certificate(2, process=huge)
    assert not rep.passed
    assert not rep.check("entries_integer_dev").passed


def test_group_terms_partition_the_slot_ketbras():
    # the one-pass grouped sum files each slot ket-bra under one element: a
    # G1 element holds one ket-bra, a G2 element d, a G3 element a +/- pair
    for d in (2, 3, 4):
        element, coeff, group, _ = group_table(d)
        assert element.shape == coeff.shape == (d ** 4,)
        assert np.bincount(element).tolist() == [(1, d, 2)[g] for g in group]
        assert np.bincount(element, coeff).tolist() == [(1, d, 0)[g] for g in group]


def test_grouped_sums_match_the_pair_by_pair_oracle():
    def assert_matches(proc, want):
        sums, nonint = uniqueness._grouped_sums(proc)
        assert sums == want[0]
        assert nonint == pytest.approx(want[1], abs=1e-12, nan_ok=True)
        rep = offdiagonal_certificate(proc.d, process=proc)
        assert rep.check("entries_integer_dev").measured == pytest.approx(
            want[1], abs=1e-12, nan_ok=True)
        for a, b in grouped_sum_formulas(proc.d):
            assert rep.check(f"sum_{a}x{b}").measured == want[0][(a, b)]

    for d in (2, 3):
        proc = build_switch_choi(d)
        want = grouped_sums_by_pair(proc)
        assert sum(want[0].values()) == (2 * d ** 3) ** 2 and want[1] == 0.0
        assert_matches(proc, want)

    # a Hermitian override with entries of every magnitude, given by its
    # eigendecomposition, and one that overflows
    rng = np.random.default_rng(6)
    n = 256
    g = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) \
        * 10.0 ** rng.integers(-17, 3, size=(n, n))
    noisy = eigen_stack(2, np.triu(g, 1) + np.triu(g, 1).conj().T + np.diag(g.diagonal().real))
    want = grouped_sums_by_pair(noisy)
    assert 0.0 < want[1] <= 0.5
    assert_matches(noisy, want)
    with np.errstate(over="ignore", invalid="ignore"):
        huge = Process(2, switch_choi_vector(2), (1e308,))
        want = grouped_sums_by_pair(huge)
        assert np.isnan(want[1])
        assert_matches(huge, want)


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
    stream = SampleStream(21)
    for d in (2, 3, 4):
        eye = np.eye(d)
        c0 = build_identity_process(d).vectors[0]
        a, b = haar_random_unitary(d, stream), haar_random_unitary(d, stream)
        m = np.kron(np.kron(a, eye), np.kron(eye, b))
        got = build_derived_one_slot("sandwich", d, a=a, b=b).vectors[0]
        assert np.abs(got - m @ c0).max() <= 1e-15
        m = np.kron(flip_operator(d), np.eye(d * d))
        assert np.array_equal(build_derived_one_slot("transpose", d).vectors[0], m @ c0)
    with pytest.raises(ValueError):
        build_derived_one_slot("transpose", 1)


def test_sandwich_identity_reduces_to_identity_process():
    proc = build_derived_one_slot("sandwich", 3, a=np.eye(3), b=np.eye(3))
    assert frobenius(proc.op.entries, build_identity_process(3).op.entries) == 0.0


def test_verify_corollary_reports():
    rep = verify_corollary("transpose", 3, seed=0)
    assert rep.passed
    rep = verify_corollary("conjugate_qubit", 2, seed=0)
    assert rep.passed
    assert rep.check("replace_target_is_one_projector").passed
    rep = verify_corollary("sandwich", 2, seed=0, a=H, b=H)
    assert rep.passed
    bad = perturbed_one_slot(build_derived_one_slot("transpose", 2), 1e-3, 3)
    rep = verify_corollary("transpose", 2, seed=0, process=bad)
    assert not rep.passed


def test_cp_family_construction():
    with pytest.raises(ValueError):
        build_cp_family(1.5)
    c1 = build_cp_family(1.0)
    assert numerical_rank(c1.op) == 1
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
    stream = SampleStream(4)
    jid = unitary_choi(np.eye(2))
    jid_hat = jid / np.linalg.norm(jid)
    for _ in range(20):
        ju = unitary_choi(haar_random_unitary(2, stream))
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
    rep = cp_family_certificate(seed=0)
    assert rep.passed, [c for c in rep.checks if not c.passed]


def test_fig_circuits_certificate():
    rep = fig_circuits_certificate(seed=0)
    assert rep.passed, [c for c in rep.checks if not c.passed]
    # the replace-channel outputs differ by exactly || I (x) (I/2 - |0><0|) ||_F
    oracle = np.linalg.norm(np.kron(np.eye(2), np.eye(2) / 2 - np.diag([1.0, 0.0])))
    assert abs(rep.check("replace_output_distance").measured - oracle) <= 1e-12
    assert abs(oracle - 1.0) <= 1e-15


def test_certificate_determinism():
    a = cp_family_certificate(seed=5)
    b = cp_family_certificate(seed=5)
    assert a.checks == b.checks and a.notes == b.notes

    a = certify_identity_uniqueness(3, seed=2)
    b = certify_identity_uniqueness(3, seed=2)
    assert a.checks == b.checks


def test_certificates_run_fixed_trial_counts():
    # the Haar sample counts are constants of each certificate, read off its notes
    a = haar_random_unitary(2, 101)
    b = haar_random_unitary(2, 202)
    for rep, trials in ((verify_unitary_action(2, seed=0), 200),
                        (verify_unitary_action(3, seed=0), 100),
                        (verify_corollary("transpose", 2, seed=0), 100),
                        (verify_corollary("sandwich", 2, seed=0, a=a, b=b), 100),
                        (verify_corollary("conjugate_qubit", 2, seed=0), 100),
                        (fig_circuits_certificate(seed=0), 100),
                        (cp_family_certificate(seed=0), 50)):
        assert rep.passed and f"trials={trials}" in rep.notes, rep.name


def test_pure_one_slot_kernel_matches_dense_oracle():
    rng, stream = np.random.default_rng(13), SampleStream(13)
    for d in (2, 3):
        a = haar_random_unitary(d, stream)
        b = haar_random_unitary(d, stream)
        procs = [build_identity_process(d), build_derived_one_slot("transpose", d),
                 build_derived_one_slot("sandwich", d, a=a, b=b)]
        if d == 2:
            procs.append(build_derived_one_slot("conjugate_qubit", 2))
        for proc in procs:
            assert proc.vectors.shape[0] == 1
            for _ in range(5):
                m = rng.standard_normal((d * d, d * d)) \
                    + 1j * rng.standard_normal((d * d, d * d))
                assert frobenius(apply_one_slot(proc, m),
                                 apply_one_slot(proc, m, dense=True)) <= 1e-12
