import numpy as np
import pytest

from switchcert.channels import (
    PAULI,
    KrausChannel,
    choi_from_kraus,
    haar_random_unitary,
    standard_channel,
    unitary_choi,
)
from switchcert.linalg import Operator, frobenius, min_eigenvalue, numerical_rank
from switchcert.switch import (
    CANONICAL_ORDER,
    Process,
    apply_one_slot,
    apply_two_slot,
    build_switch_choi,
    controlled_order_unitary,
    switch_choi_vector,
    verify_unitary_action,
)

from oracles import (Labeled, SpaceLayout, identity_operator, is_cptp, labeled_process,
                     partial_trace, partial_transpose, permute_systems, random_kraus_channel,
                     switch_kraus_output, tensor_product)


def dense_action(proc, ket, bra):
    """Reference contraction: slice the dense process 4-tensor."""
    d = proc.d
    nin, nout = d ** 4, 4 * d * d
    w4 = proc.op.entries.reshape(nin, nout, nin, nout)
    ri = np.ravel_multi_index(ket, (d, d, d, d))
    ci = np.ravel_multi_index(bra, (d, d, d, d))
    return w4[ri, :, ci, :]


def test_switch_choi_basic_invariants():
    proc = build_switch_choi(2)
    w = proc.op.entries
    assert abs(np.trace(w) - 16.0) < 1e-14
    assert np.abs(w).sum() == 256.0
    vals = np.unique(w.real)
    assert set(np.round(vals, 12)) <= {0.0, 1.0}
    assert np.abs(w.imag).max() == 0.0
    assert numerical_rank(proc.op, tol=1e-10) == 1
    assert min_eigenvalue(proc.op) >= -1e-12

    proc3 = build_switch_choi(3)
    assert abs(np.trace(proc3.op.entries) - 54.0) < 1e-12
    assert numerical_rank(proc3.op, tol=1e-10) == 1
    with pytest.raises(ValueError):
        build_switch_choi(1)


def test_switch_vector_support_count():
    for d in (2, 3, 4):
        w = switch_choi_vector(d)
        assert int(w.real.sum()) == 2 * d ** 3
        assert set(np.unique(w.real)) <= {0.0, 1.0}


def test_identity_slots_give_identity_channel():
    for d in (2, 3):
        proc = build_switch_choi(d)
        ji = unitary_choi(np.eye(d))
        out = apply_two_slot(proc, ji, ji)
        want = unitary_choi(np.eye(2 * d))
        assert frobenius(out, want) == 0.0


def test_pauli_example_factorizes():
    # slot channels X and Z produce the controlled unitary Z_C (x) ZX
    proc = build_switch_choi(2)
    out = apply_two_slot(proc, unitary_choi(PAULI["x"]), unitary_choi(PAULI["z"]))
    want = unitary_choi(np.kron(PAULI["z"], PAULI["z"] @ PAULI["x"]))
    assert frobenius(out, want) <= 1e-13


def test_kraus_route_on_unitaries():
    rng = np.random.default_rng(0)
    for d in (2, 3):
        u1, u2 = haar_random_unitary(d, rng), haar_random_unitary(d, rng)
        k = switch_kraus_output(KrausChannel(d, d, (u1,)), KrausChannel(d, d, (u2,)))
        want = unitary_choi(controlled_order_unitary(u1, u2))
        assert frobenius(k, want) <= 1e-12


def test_depolarizing_slots_are_not_depolarizing():
    dep = standard_channel("depolarizing", 2)
    out = switch_kraus_output(dep, dep)
    jdep4 = np.eye(16) / 4  # Choi of the depolarizing channel on C^4
    assert is_cptp(out)
    assert frobenius(out, jdep4) > 0.5

    idc = standard_channel("identity", 2)
    out = switch_kraus_output(idc, idc)
    assert frobenius(out, unitary_choi(np.eye(4))) <= 1e-12


def test_depolarizing_pair_matches_kraus_enumeration():
    # both slots depolarizing, realized through the Pauli Kraus set
    proc = build_switch_choi(2)
    pauli_dep = KrausChannel(2, 2, tuple(PAULI[k] / 2 for k in "ixyz"))
    via_choi = apply_two_slot(proc, choi_from_kraus(pauli_dep),
                              choi_from_kraus(pauli_dep))
    via_kraus = switch_kraus_output(pauli_dep, pauli_dep)
    assert frobenius(via_choi, via_kraus) <= 1e-10


def test_route_equivalence_choi_vs_kraus():
    rng = np.random.default_rng(1)
    for d in (2, 3):
        proc = build_switch_choi(d)
        for _ in range(20):
            ka = random_kraus_channel(d, int(rng.integers(1, d * d + 1)), rng)
            kb = random_kraus_channel(d, int(rng.integers(1, d * d + 1)), rng)
            via_choi = apply_two_slot(proc, choi_from_kraus(ka), choi_from_kraus(kb))
            via_kraus = switch_kraus_output(ka, kb)
            assert frobenius(via_choi, via_kraus) <= 1e-9


def test_output_on_channels_is_cptp():
    rng = np.random.default_rng(2)
    proc = build_switch_choi(2)
    for _ in range(10):
        ka = random_kraus_channel(2, 2, rng)
        kb = random_kraus_channel(2, 3, rng)
        out = apply_two_slot(proc, choi_from_kraus(ka), choi_from_kraus(kb))
        assert min_eigenvalue(out) >= -1e-10
        assert is_cptp(out)


def test_bilinearity():
    rng = np.random.default_rng(3)
    proc = build_switch_choi(2)

    def rand_slot():
        m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        return m

    a, a2, b = rand_slot(), rand_slot(), rand_slot()
    al, be = complex(*rng.standard_normal(2)), complex(*rng.standard_normal(2))
    lhs = apply_two_slot(proc, al * a + be * a2, b)
    rhs = al * apply_two_slot(proc, a, b) + be * apply_two_slot(proc, a2, b)
    assert frobenius(lhs, rhs) <= 1e-11 * max(1.0, np.linalg.norm(lhs))
    lhs = apply_two_slot(proc, b, al * a + be * a2)
    rhs = al * apply_two_slot(proc, b, a) + be * apply_two_slot(proc, b, a2)
    assert frobenius(lhs, rhs) <= 1e-11 * max(1.0, np.linalg.norm(lhs))


def switch_vector_process(d):
    return Process(d, vector=switch_choi_vector(d))


def entries_as_block(proc, ket, bra):
    """Scatter block_entries into a dense output block."""
    d = proc.d
    ri = np.ravel_multi_index(ket, (d, d, d, d))
    ci = np.ravel_multi_index(bra, (d, d, d, d))
    nout = 4 * d * d
    out = np.zeros((nout, nout), dtype=complex)
    for o, p, v in proc.block_entries(ri, ci):
        assert out[o, p] == 0  # each entry is listed once
        out[o, p] = v
    return out


def test_fast_action_examples():
    out = entries_as_block(switch_vector_process(2), (0, 1, 1, 0), (0, 1, 1, 0))
    v = np.zeros(16)
    v[0] = 1.0   # |0000> on PT FT PC FC
    v[15] = 1.0  # |1111>
    assert np.array_equal(out, np.outer(v, v))

    # all deltas vanish: j != k and i != l on both sides
    proc3 = switch_vector_process(3)
    ri = np.ravel_multi_index((0, 1, 2, 1), (3, 3, 3, 3))
    assert proc3.block_entries(ri, ri) == []

    with pytest.raises(IndexError):
        switch_vector_process(2).block_entries(16, 0)


def test_fast_action_matches_dense_random():
    rng = np.random.default_rng(4)
    proc = build_switch_choi(3)
    pure = switch_vector_process(3)
    for _ in range(1000):
        ket = tuple(rng.integers(0, 3, size=4))
        bra = tuple(rng.integers(0, 3, size=4))
        assert np.array_equal(entries_as_block(pure, ket, bra),
                              dense_action(proc, ket, bra))


def test_fast_action_full_basis_reconstruction():
    proc = build_switch_choi(2)
    pure = switch_vector_process(2)
    idx = [(i, j, k, l) for i in range(2) for j in range(2)
           for k in range(2) for l in range(2)]
    for ket in idx:
        for bra in idx:
            assert np.array_equal(entries_as_block(pure, ket, bra),
                                  dense_action(proc, ket, bra))


def test_w0_action_pairs_count():
    # at most four unit entries, exactly four on fully matched diagonals
    proc = switch_vector_process(2)
    for ket, count in (((0, 1, 1, 0), 4), ((0, 1, 1, 1), 1)):
        ri = np.ravel_multi_index(ket, (2, 2, 2, 2))
        entries = proc.block_entries(ri, ri)
        assert len(entries) == count
        assert all(v == 1.0 for _, _, v in entries)


def test_block_entries_dense_branch_matches_block():
    # a dense process with entries of every size: only |x| > 1e-14 is listed
    rng = np.random.default_rng(6)
    n = 4 * 2 ** 6
    g = rng.standard_normal((n, n)) * 10.0 ** rng.integers(-17, 1, size=(n, n))
    proc = Process(2, Operator(g.astype(complex)))
    for ri, ci in ((0, 0), (3, 9), (15, 2)):
        block = proc.block(ri, ci)
        want = {(o, p): block[o, p] for o, p in zip(*np.nonzero(np.abs(block) > 1e-14))}
        got = {(o, p): v for o, p, v in proc.block_entries(ri, ci)}
        assert got == want
        assert 0 < len(got) < block.size


def test_block_entries_complex_vector_matches_block():
    from switchcert.uniqueness import build_derived_one_slot
    rng = np.random.default_rng(7)
    a, b = haar_random_unitary(2, rng), haar_random_unitary(2, rng)
    proc = build_derived_one_slot("sandwich", 2, a=a, b=b)
    for ri in range(4):
        for ci in range(4):
            block = proc.block(ri, ci)
            got = np.zeros_like(block)
            for o, p, v in proc.block_entries(ri, ci):
                got[o, p] = v
            assert np.abs(got - block).max() <= 1e-15


def test_apply_two_slot_matches_global_transpose_route():
    # independent route: tensor the slot operators with identities in the
    # canonical order, transpose every subsystem, multiply, partial-trace
    d = 2
    proc = build_switch_choi(d)
    rng = np.random.default_rng(8)
    for _ in range(3):
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        b = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        slot_a = Labeled(SpaceLayout((("I1", d), ("O1", d))), a)
        slot_b = Labeled(SpaceLayout((("I2", d), ("O2", d))), b)
        rest = identity_operator(
            SpaceLayout((("PT", d), ("FT", d), ("PC", 2), ("FC", 2))))
        big = tensor_product(tensor_product(slot_a, slot_b), rest)
        big = partial_transpose(big, set(CANONICAL_ORDER))
        traced = partial_trace(Labeled(big.layout, proc.op.entries @ big.entries),
                               {"I1", "O1", "I2", "O2"})
        got = permute_systems(traced, ("PC", "PT", "FC", "FT")).entries
        want = apply_two_slot(proc, a, b)
        assert frobenius(got, want) <= 1e-12


def test_section_order_round_trip():
    # the global order P (x) slots (x) F, with P = (PC, PT) and F = (FC, FT),
    # and back to CANONICAL_ORDER bit for bit
    order = ("PC", "PT", "I1", "O1", "I2", "O2", "FC", "FT")
    w0 = labeled_process(build_switch_choi(2))
    ordered = permute_systems(w0, order)
    assert ordered.layout.labels == order
    assert abs(np.trace(ordered.entries) - 16.0) < 1e-14
    back = permute_systems(ordered, CANONICAL_ORDER)
    assert back.layout == w0.layout
    assert np.array_equal(back.entries, w0.entries)


def test_verify_unitary_action_reports():
    rep2 = verify_unitary_action(2, trials=25, seed=11)
    assert rep2.passed
    assert rep2.check("max_frobenius_distance").measured <= 1e-12
    rep3 = verify_unitary_action(3, trials=10, seed=11)
    assert rep3.passed

    again = verify_unitary_action(2, trials=25, seed=11)
    assert [c for c in again.checks] == [c for c in rep2.checks]


def test_verify_unitary_action_negative_control():
    proc = build_switch_choi(2)
    rng = np.random.default_rng(5)
    g = rng.standard_normal((256, 256)) + 1j * rng.standard_normal((256, 256))
    bump = g @ g.conj().T
    bump /= np.linalg.norm(bump)
    bad = Process(2, Operator(proc.op.entries + 0.1 * bump))
    rep = verify_unitary_action(2, trials=10, seed=0, process=bad)
    assert not rep.passed


def random_slot_operator(n, rng):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def test_vector_kernel_matches_dense_oracle():
    # the rank-1 link Wm^T (A (x) B) conj(Wm) against the dense W0 contraction
    rng = np.random.default_rng(9)
    for d in (2, 3):
        pure = Process(d, vector=switch_choi_vector(d))
        dense = build_switch_choi(d)
        for _ in range(5):
            a = random_slot_operator(d * d, rng)
            b = random_slot_operator(d * d, rng)
            assert frobenius(apply_two_slot(pure, a, b),
                             apply_two_slot(dense, a, b)) <= 1e-12
        for row, col in rng.integers(0, d ** 4, size=(20, 2)):
            assert np.array_equal(pure.block(row, col), dense.block(row, col))
        for row, col in rng.integers(0, pure.vector.size, size=(20, 2)):
            assert pure.entry(row, col) == dense.entry(row, col)
        assert np.array_equal(pure.diagonal(), dense.diagonal())
        assert np.array_equal(pure.op.entries, dense.op.entries)


def test_process_validation():
    w = switch_choi_vector(2)
    for bad in (np.nan, np.inf, complex(0.0, -np.inf)):
        corrupted = w.copy()
        corrupted[3] = bad
        with pytest.raises(ValueError):
            Process(2, vector=corrupted)
    with pytest.raises(ValueError):
        Process(2, vector=w[:-1])
    with pytest.raises(ValueError):
        Process(3, vector=w)
    with pytest.raises(ValueError):
        Process(2)
    with pytest.raises(ValueError):
        Process(2, build_switch_choi(2).op, vector=w)
    pure = Process(2, vector=w)
    assert not pure.vector.flags.writeable
    with pytest.raises(ValueError):
        apply_one_slot(pure, np.eye(4))


def test_process_equality_is_identity_and_hashable():
    a = Process(2, vector=switch_choi_vector(2))
    b = Process(2, vector=switch_choi_vector(2))
    dense = build_switch_choi(2)
    assert a == a and dense == dense
    assert a != b and a != dense
    assert len({a, b, dense, a}) == 3
    assert hash(a) == hash(a)
