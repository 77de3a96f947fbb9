import itertools
import tracemalloc

import numpy as np
import pytest

from switchcert.channels import (
    PAULI,
    SampleStream,
    choi_from_kraus,
    haar_random_unitaries,
    haar_random_unitary,
    standard_channel,
    unitary_choi,
)
from switchcert.linalg import frobenius, frobenius_each, min_eigenvalue, numerical_rank
from switchcert.switch import (
    CANONICAL_ORDER,
    Process,
    _channel_order,
    build_switch_choi,
    controlled_order_unitary,
    switch_choi_vector,
    unitary_actions,
    verify_unitary_action,
)
from switchcert.uniqueness import build_cp_family, build_derived_one_slot, build_identity_process

from oracles import (Labeled, SpaceLayout, apply_one_slot, apply_two_slot, eigen_stack,
                     identity_operator, is_cptp, labeled_process, link, partial_trace,
                     partial_transpose, permute_systems, random_kraus_channel,
                     switch_kraus_output, tensor_product)


def dense_action(w, d, ket, bra):
    """Reference contraction: slice the dense two-slot process matrix w as a 4-tensor."""
    nin, nout = d ** 4, 4 * d * d
    w4 = w.reshape(nin, nout, nin, nout)
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
    assert numerical_rank(proc.op) == 1
    assert min_eigenvalue(proc.op) >= -1e-12

    dense3 = build_switch_choi(3).op.entries
    assert abs(np.trace(dense3) - 54.0) < 1e-12
    # exactly |w3><w3|, and so rank 1, with no 2916^2 eigensolve
    w3 = switch_choi_vector(3)
    assert np.array_equal(dense3, np.outer(w3, w3.conj()))
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
    stream = SampleStream(0)
    for d in (2, 3):
        u1, u2 = haar_random_unitary(d, stream), haar_random_unitary(d, stream)
        k = switch_kraus_output(u1[None], u2[None])
        want = unitary_choi(controlled_order_unitary(u1, u2))
        assert frobenius(k, want) <= 1e-12


def test_depolarizing_slots_are_not_depolarizing():
    dep = standard_channel("depolarizing", 2)
    out = switch_kraus_output(dep, dep)
    jdep4 = np.eye(16) / 4  # Choi of the depolarizing channel on C^4
    assert is_cptp(out)
    assert frobenius(out, jdep4) > 0.5

    idc = np.eye(2, dtype=complex)[None]
    out = switch_kraus_output(idc, idc)
    assert frobenius(out, unitary_choi(np.eye(4))) <= 1e-12


def test_depolarizing_pair_matches_kraus_enumeration():
    # both slots depolarizing, realized through the Pauli Kraus set
    proc = build_switch_choi(2)
    pauli_dep = np.array([PAULI[k] / 2 for k in "ixyz"])
    via_choi = apply_two_slot(proc, choi_from_kraus(pauli_dep),
                              choi_from_kraus(pauli_dep))
    via_kraus = switch_kraus_output(pauli_dep, pauli_dep)
    assert frobenius(via_choi, via_kraus) <= 1e-10


def test_route_equivalence_choi_vs_kraus():
    rng = np.random.default_rng(1)
    for d in (2, 3):
        proc = build_switch_choi(d)
        pairs = [[random_kraus_channel(d, int(rng.integers(1, d * d + 1)), rng)
                  for _ in range(2)] for _ in range(20)]
        chois = np.array([[choi_from_kraus(k) for k in pair] for pair in pairs])
        via_choi = apply_two_slot(proc, chois[:, 0], chois[:, 1])  # the 20 pairs at once
        for out, (ka, kb) in zip(via_choi, pairs):
            assert frobenius(out, switch_kraus_output(ka, kb)) <= 1e-9


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
    return Process(d, switch_choi_vector(d))


def entry_block(proc, ri, ci):
    """The output block W[(ri, .), (ci, .)] read through index arrays."""
    o = np.arange(proc.nout)
    return proc.entry(ri * proc.nout + o[:, None], ci * proc.nout + o)


def block_of(proc, ket, bra):
    d = proc.d
    return entry_block(proc, np.ravel_multi_index(ket, (d, d, d, d)),
                       np.ravel_multi_index(bra, (d, d, d, d)))


def scattered_nonzeros(proc):
    """Scatter nonzeros() into a dense matrix, each entry listed once."""
    rows, cols, vals = proc.nonzeros()
    n = proc.nin * proc.nout
    assert np.unique(rows * n + cols).size == rows.size
    out = np.zeros((n, n), dtype=complex)
    out[rows, cols] = vals
    return out


def test_fast_action_examples():
    pure = switch_vector_process(2)
    out = block_of(pure, (0, 1, 1, 0), (0, 1, 1, 0))
    v = np.zeros(16)
    v[0] = 1.0   # |0000> on PT FT PC FC
    v[15] = 1.0  # |1111>
    assert np.array_equal(out, np.outer(v, v))
    assert np.array_equal(scattered_nonzeros(pure), pure.op.entries)

    # all deltas vanish: j != k and i != l on both sides
    proc3 = switch_vector_process(3)
    ri = np.ravel_multi_index((0, 1, 2, 1), (3, 3, 3, 3))
    rows, cols, _ = proc3.nonzeros()
    assert not np.any((rows // proc3.nout == ri) & (cols // proc3.nout == ri))
    assert not entry_block(proc3, ri, ri).any()

    with pytest.raises(IndexError):
        entry_block(switch_vector_process(2), 16, 0)


def test_fast_action_matches_dense_random():
    rng = np.random.default_rng(4)
    pure = switch_vector_process(3)
    w = build_switch_choi(3).op.entries
    assert np.array_equal(scattered_nonzeros(pure), w)
    for _ in range(1000):
        ket = tuple(rng.integers(0, 3, size=4))
        bra = tuple(rng.integers(0, 3, size=4))
        assert np.array_equal(block_of(pure, ket, bra), dense_action(w, 3, ket, bra))


def test_fast_action_full_basis_reconstruction():
    pure = switch_vector_process(2)
    w = build_switch_choi(2).op.entries
    assert np.array_equal(scattered_nonzeros(pure), w)
    idx = [(i, j, k, l) for i in range(2) for j in range(2)
           for k in range(2) for l in range(2)]
    for ket in idx:
        for bra in idx:
            assert np.array_equal(block_of(pure, ket, bra), dense_action(w, 2, ket, bra))


def test_w0_action_pairs_count():
    # at most four unit entries, exactly four on fully matched diagonals
    proc = switch_vector_process(2)
    rows, cols, vals = proc.nonzeros()
    for ket, count in (((0, 1, 1, 0), 4), ((0, 1, 1, 1), 1)):
        ri = np.ravel_multi_index(ket, (2, 2, 2, 2))
        in_block = (rows // proc.nout == ri) & (cols // proc.nout == ri)
        assert np.count_nonzero(in_block) == count
        assert np.all(vals[in_block] == 1.0)
        assert np.count_nonzero(entry_block(proc, ri, ri)) == count


def test_nonzeros_complex_vector_matches_dense():
    from switchcert.uniqueness import build_derived_one_slot
    stream = SampleStream(7)
    a, b = haar_random_unitary(2, stream), haar_random_unitary(2, stream)
    proc = build_derived_one_slot("sandwich", 2, a=a, b=b)
    w = proc.op.entries
    assert np.abs(scattered_nonzeros(proc) - w).max() <= 1e-15
    w4 = w.reshape(4, 4, 4, 4)
    for ri in range(4):
        for ci in range(4):
            assert np.abs(entry_block(proc, ri, ci) - w4[ri, :, ci, :]).max() <= 1e-15


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
    rep2 = verify_unitary_action(2, seed=11)
    assert rep2.passed
    assert rep2.check("max_frobenius_distance").measured <= 1e-12
    rep3 = verify_unitary_action(3, seed=11)
    assert rep3.passed

    again = verify_unitary_action(2, seed=11)
    assert [c for c in again.checks] == [c for c in rep2.checks]


def test_verify_unitary_action_negative_control():
    proc = build_switch_choi(2)
    rng = np.random.default_rng(5)
    g = rng.standard_normal((256, 256)) + 1j * rng.standard_normal((256, 256))
    bump = g @ g.conj().T
    bump /= np.linalg.norm(bump)
    bad = eigen_stack(2, proc.op.entries + 0.1 * bump)
    rep = verify_unitary_action(2, seed=0, process=bad)
    assert not rep.passed


def random_slot_operator(n, rng):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def test_vector_kernel_matches_dense_oracle():
    # the rank-1 link Wm^T (A (x) B) conj(Wm) against the dense W0 contraction,
    # and W read through entry and nonzeros against the dense op
    rng = np.random.default_rng(9)
    for d in (2, 3):
        proc = Process(d, switch_choi_vector(d))
        w = proc.op.entries
        a, b = (np.array([random_slot_operator(d * d, rng) for _ in range(5)])
                for _ in range(2))
        assert frobenius_each(apply_two_slot(proc, a, b),
                              apply_two_slot(proc, a, b, dense=True)).max() <= 1e-12
        nout = proc.nout
        for row, col in rng.integers(0, d ** 4, size=(20, 2)):
            assert np.array_equal(entry_block(proc, row, col),
                                  w[row * nout:(row + 1) * nout, col * nout:(col + 1) * nout])
        assert np.array_equal(scattered_nonzeros(proc), w)
        for row, col in rng.integers(0, proc.size, size=(20, 2)):
            assert proc.entry(row, col) == w[row, col]
        diagonal = np.arange(proc.size)
        assert np.array_equal(proc.entry(diagonal, diagonal), np.diagonal(w))
        w3 = switch_choi_vector(d)
        assert np.array_equal(w, np.outer(w3, w3.conj()))


def test_process_validation():
    w = switch_choi_vector(2)
    for bad in (np.nan, np.inf, complex(0.0, -np.inf)):
        corrupted = w.copy()
        corrupted[3] = bad
        with pytest.raises(ValueError):
            Process(2, corrupted)
        with pytest.raises(ValueError):
            Process(2, w, (bad.real if bad.real else bad.imag,))
    for vectors, weights in ((w[:-1], None), (w[None, None], None), (np.zeros((0, 256)), None),
                             (w, (1.0, 1.0)), (np.stack([w, w]), (1.0,))):
        with pytest.raises(ValueError):
            Process(2, vectors, weights)
    with pytest.raises(ValueError):
        Process(3, w)
    with pytest.raises(TypeError):
        Process(2)
    proc = Process(2, w)
    assert proc.vectors.shape == (1, 256) and np.array_equal(proc.weights, [1.0])
    assert not proc.vectors.flags.writeable and not proc.weights.flags.writeable
    with pytest.raises(ValueError):
        unitary_actions(proc, np.eye(2)[None])


def test_process_equality_is_identity_and_hashable():
    a = Process(2, switch_choi_vector(2))
    b = Process(2, switch_choi_vector(2))
    c = build_switch_choi(2)
    assert a == a and c == c
    assert a != b and a != c
    assert len({a, b, c, a}) == 3
    assert hash(a) == hash(a)


@pytest.mark.parametrize("d", [2, 3])
def test_unitary_actions_match_per_sample_contractions(d):
    # the stacked kernel against one apply_two_slot / apply_one_slot per
    # sample on the dense process matrix, for the process and, at one slot,
    # for the stack of its dense matrix's eigenvectors
    us = haar_random_unitaries(d, 6, d)
    pairs = us.reshape(3, 2, d, d)
    switch = Process(d, switch_choi_vector(d))
    want = apply_two_slot(switch, unitary_choi(pairs[:, 0]), unitary_choi(pairs[:, 1]),
                          dense=True)
    assert frobenius_each(unitary_actions(switch, pairs), want).max() <= 1e-12
    a, b = haar_random_unitaries(d, 2, 100 + d)
    one_slot = [build_identity_process(d), build_derived_one_slot("transpose", d),
                build_derived_one_slot("sandwich", d, a, b)]
    if d == 2:
        one_slot.append(build_cp_family(0.5))
    for proc in one_slot:
        want = np.array([apply_one_slot(proc, unitary_choi(u), dense=True) for u in us])
        for p in (proc, eigen_stack(d, proc.op.entries)):
            assert frobenius_each(unitary_actions(p, us), want).max() <= 1e-12
    # a stack of the wrong slot count is rejected
    with pytest.raises(ValueError):
        unitary_actions(switch, us)
    with pytest.raises(ValueError):
        unitary_actions(one_slot[0], pairs)


def kraus_sum(proc, channels):
    """Sum of the ``unitary_actions`` rows over the Kraus operators of one slot
    channel, or over every Kraus pair of two."""
    if len(channels) == 1:
        ks = channels[0]
    else:
        ks = np.array([(k1, k2) for k1 in channels[0] for k2 in channels[1]])
    return unitary_actions(proc, ks).sum(axis=0)


@pytest.mark.parametrize("d", [2, 3])
def test_kraus_sums_through_the_kernel_match_the_dense_link(d):
    # non-unitary channels, summed over their Kraus operators (pairs for the
    # switch), against the dense link of their Choi matrices, for the process
    # and, at one slot, for the stack of its dense matrix's eigenvectors
    channels = [standard_channel("replace_zero", d), standard_channel("depolarizing", d),
                random_kraus_channel(d, 2, 40 + d)]
    a, b = haar_random_unitaries(d, 2, 200 + d)
    for proc in (build_identity_process(d), build_derived_one_slot("sandwich", d, a, b)):
        for ch in channels:
            want = apply_one_slot(proc, choi_from_kraus(ch), dense=True)
            for p in (proc, eigen_stack(d, proc.op.entries)):
                assert frobenius(kraus_sum(p, [ch]), want) <= 1e-12
    switch = build_switch_choi(d)
    chois = np.array([choi_from_kraus(ch) for ch in channels])
    want = apply_two_slot(switch, chois[:, None], chois[None, :], dense=True)
    for (i, ch1), (j, ch2) in itertools.product(enumerate(channels), repeat=2):
        assert frobenius(kraus_sum(switch, [ch1, ch2]), want[i, j]) <= 1e-12


def test_stacked_controlled_order_unitary_matches_per_pair():
    for d in (2, 3):
        u1s, u2s = haar_random_unitaries(d, 10, d).reshape(2, 5, d, d)
        got = controlled_order_unitary(u1s, u2s)
        assert got.shape == (5, 2 * d, 2 * d)
        for g, u1, u2 in zip(got, u1s, u2s):
            assert np.array_equal(g, controlled_order_unitary(u1, u2))
            want = np.kron(np.diag([1, 0]), u2 @ u1) + np.kron(np.diag([0, 1]), u1 @ u2)
            assert frobenius(g, want) == 0.0


def random_stack(d, slots, r, rng):
    """A process of r random complex vectors, each nonzero on a random tenth
    to quarter of the indices, with weights in [0.5, 1.5] and the last one
    negative."""
    n = d ** 4 if slots == 1 else 4 * d ** 6
    density = 0.25 if n <= 256 else 0.1
    vectors = (rng.standard_normal((r, n)) + 1j * rng.standard_normal((r, n))) \
        * (rng.random((r, n)) < density)
    weights = rng.uniform(0.5, 1.5, r)
    weights[-1] *= -1
    return Process(d, vectors, weights)


def kernel_mismatches(proc, rng) -> list:
    """The reads of W that disagree by more than 1e-12 with its dense matrix,
    summed here over the stack by ``np.einsum``: ``op``, and
    ``unitary_actions`` against ``link`` of the dense matrix, ``entry``,
    ``nonzeros`` and ``support``."""
    d, n, bad = proc.d, proc.size, []
    op = proc.op.entries
    w = np.einsum("k,ki,kj->ij", proc.weights, proc.vectors, proc.vectors.conj())
    if max(np.abs(op[i:i + 256] - w[i:i + 256]).max() for i in range(0, n, 256)) > 1e-12:
        bad.append("op")
    del op
    us = haar_random_unitaries(d, 2 * proc.slots, int(rng.integers(2 ** 31)))
    us = us.reshape(2, proc.slots, d, d)
    js = unitary_choi(us.reshape(-1, d, d)).reshape(2, proc.slots, d * d, d * d)
    if proc.slots == 1:
        dense = link(w, js[:, 0])
    else:
        x = js[:, 0, :, None, :, None] * js[:, 1, None, :, None, :]
        dense = _channel_order(link(w, x.reshape(2, d ** 4, d ** 4)), d)
    if frobenius_each(unitary_actions(proc, us if proc.slots == 2 else us[:, 0]),
                      dense).max() > 1e-12:
        bad.append("unitary_actions")
    r, c = rng.integers(0, n, (2, 500))
    if np.abs(proc.entry(r, c) - w[r, c]).max() > 1e-12 \
            or np.abs(proc.entry(r[:, None], c[None, :10]) - w[np.ix_(r, c[:10])]).max() > 1e-12:
        bad.append("entry")
    r, c, values = proc.nonzeros()
    listed = np.zeros((n, n), dtype=bool)
    listed[r, c] = True
    if np.abs(values - w[r, c]).max() > 1e-12 or np.any(w, where=~listed):
        bad.append("nonzeros")
    r, c = proc.support()
    if not np.array_equal(np.sort(r * n + c), np.flatnonzero(w)):
        bad.append("support")
    return bad


@pytest.mark.parametrize("d,slots", [(2, 1), (3, 1), (2, 2), (3, 2)])
@pytest.mark.parametrize("r", [1, 3])
def test_weighted_stacks_read_as_their_dense_matrix(d, slots, r):
    rng = np.random.default_rng(100 * d + 10 * slots + r)
    proc = random_stack(d, slots, r, rng)
    assert proc.slots == slots and min(proc.weights) < 0
    assert kernel_mismatches(proc, rng) == []


def test_dense_matrix_of_a_stack_holds_two_copies_at_most():
    # the running sum and Operator's copy; a term kept alive while the next
    # is built made it three (389 MiB traced for this 130 MiB matrix)
    proc = random_stack(3, 2, 3, np.random.default_rng(1))
    tracemalloc.start()
    try:
        nbytes = proc.op.entries.nbytes
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.2 * nbytes


def test_a_kernel_that_reads_the_first_vector_alone_fails(monkeypatch):
    # negative control: every read through the stack's one sum, with the
    # sum cut to its first term, disagrees with the dense matrix
    rng = np.random.default_rng(7)
    proc = random_stack(2, 2, 3, rng)
    first = Process._sum
    monkeypatch.setattr(Process, "_sum", lambda self, term: first(
        Process(self.d, self.vectors[:1], self.weights[:1]), term))
    assert kernel_mismatches(proc, rng) == ["op", "unitary_actions", "entry", "nonzeros",
                                            "support"]
