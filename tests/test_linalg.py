import numpy as np
import pytest

from switchcert.channels import unitary_choi
from switchcert.linalg import Operator, frobenius, is_hermitian, min_eigenvalue, numerical_rank
from switchcert.switch import build_switch_choi
from switchcert.uniqueness import build_cp_family

from oracles import (Labeled, LayoutError, SpaceLayout, identity_operator, labeled_process,
                     partial_trace, partial_transpose, permute_systems, tensor_product)

X = np.array([[0, 1], [1, 0]], dtype=complex)
Z = np.diag([1.0, -1.0]).astype(complex)


def rand_op(rng, labels_dims):
    lay = SpaceLayout(tuple(labels_dims))
    n = lay.dim
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return Labeled(lay, m)


def rand_hermitian(rng, n):
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (m + m.conj().T) / 2


def test_layout_validation():
    with pytest.raises(LayoutError):
        SpaceLayout(())
    with pytest.raises(LayoutError):
        SpaceLayout((("a", 2), ("a", 3)))
    with pytest.raises(LayoutError):
        SpaceLayout((("a", 0),))
    lay = SpaceLayout((("a", 2), ("b", 3)))
    assert lay.dim == 6 and lay.dims == (2, 3)
    with pytest.raises(LayoutError):
        lay.position("c")


def test_operator_validation():
    for bad in (np.zeros((2, 3)), np.zeros(4), np.array([[np.nan, 0], [0, 0]]),
                np.array([[0, complex(0, np.inf)], [0, 0]])):
        with pytest.raises(ValueError):
            Operator(bad)
    op = Operator(np.eye(2))
    with pytest.raises(ValueError):
        op.entries[0, 0] = 5  # stored entries are read-only
    lay = SpaceLayout((("a", 2),))
    with pytest.raises(LayoutError):
        Labeled(lay, np.zeros((3, 3)))


def test_tensor_product_identity_and_basis():
    i2 = identity_operator(SpaceLayout((("a", 2),)))
    j2 = identity_operator(SpaceLayout((("b", 2),)))
    t = tensor_product(i2, j2)
    assert len(t.layout.systems) == 2
    assert np.array_equal(t.entries, np.eye(4))

    p0 = Labeled(SpaceLayout((("a", 2),)), np.diag([1.0, 0.0]))
    p1 = Labeled(SpaceLayout((("b", 2),)), np.diag([0.0, 1.0]))
    t = tensor_product(p0, p1)
    expect = np.zeros((4, 4))
    expect[1, 1] = 1.0  # |01><01|
    assert np.array_equal(t.entries, expect)


def test_tensor_product_choi_example_and_errors():
    jx = Labeled(SpaceLayout((("I", 2), ("O", 2))), unitary_choi(X))
    jz = Labeled(SpaceLayout((("I2", 2), ("O2", 2))), unitary_choi(Z))
    t = tensor_product(jx, jz)
    assert numerical_rank(t.entries) == 1
    assert abs(np.trace(t.entries) - 4.0) < 1e-12
    with pytest.raises(LayoutError):
        tensor_product(jx, jx)


def test_partial_trace_product_state():
    rng = np.random.default_rng(3)
    for _ in range(5):
        a = rand_op(rng, [("A", 3)])
        b = rand_op(rng, [("B", 4)])
        t = tensor_product(a, b)
        out = partial_trace(t, {"B"})
        want = a.entries * np.trace(b.entries)
        assert frobenius(out.entries, want) <= 1e-12 * max(1.0, frobenius(want))


def test_partial_trace_maximally_entangled():
    phi = np.zeros(4, dtype=complex)
    phi[0] = phi[3] = 1.0
    op = Labeled(SpaceLayout((("A", 2), ("B", 2))), np.outer(phi, phi.conj()))
    out = partial_trace(op, {"A"})
    assert np.allclose(out.entries, np.eye(2))
    assert out.layout.labels == ("B",)


def test_partial_trace_switch_on_identity_slots():
    # tracing the slot systems of W0 against J_I (x) J_I leaves the Choi
    # operator of the identity channel on the doubled space
    proc = build_switch_choi(2)
    j_id = unitary_choi(np.eye(2))
    slots = Labeled(
        SpaceLayout((("I1", 2), ("O1", 2), ("I2", 2), ("O2", 2))),
        np.kron(j_id, j_id))
    rest = identity_operator(
        SpaceLayout((("PT", 2), ("FT", 2), ("PC", 2), ("FC", 2))))
    big = partial_transpose(tensor_product(slots, rest),
                            {"I1", "O1", "I2", "O2"})
    traced = partial_trace(Labeled(big.layout, proc.op.entries @ big.entries),
                           {"I1", "O1", "I2", "O2"})
    reordered = permute_systems(traced, ("PC", "PT", "FC", "FT"))
    want = unitary_choi(np.eye(4))
    assert frobenius(reordered.entries, want) <= 1e-12


def test_partial_trace_errors():
    op = identity_operator(SpaceLayout((("A", 2), ("B", 2))))
    with pytest.raises(LayoutError):
        partial_trace(op, {"C"})
    with pytest.raises(LayoutError):
        partial_trace(op, {"A", "B"})


def test_partial_transpose_properties():
    rng = np.random.default_rng(5)
    op = rand_op(rng, [("A", 2), ("B", 3)])
    assert np.array_equal(partial_transpose(op, set()).entries, op.entries)
    h = Labeled(op.layout, rand_hermitian(rng, 6))
    full = partial_transpose(h, {"A", "B"})
    assert np.allclose(full.entries, h.entries.conj())
    twice = partial_transpose(partial_transpose(op, {"A"}), {"A"})
    assert np.array_equal(twice.entries, op.entries)
    with pytest.raises(LayoutError):
        partial_transpose(op, {"nope"})


def test_permute_systems():
    op = identity_operator(SpaceLayout((("A", 2), ("B", 3))))
    same = permute_systems(op, ("A", "B"))
    assert np.array_equal(same.entries, op.entries)

    p01 = np.zeros((4, 4))
    p01[1, 1] = 1.0
    op = Labeled(SpaceLayout((("A", 2), ("B", 2))), p01)
    swapped = permute_systems(op, ("B", "A"))
    p10 = np.zeros((4, 4))
    p10[2, 2] = 1.0  # |10><10|
    assert np.array_equal(swapped.entries, p10)
    with pytest.raises(LayoutError):
        permute_systems(op, ("A", "A"))


def test_permute_switch_round_trip_bit_exact():
    section_order = ("PC", "PT", "I1", "O1", "I2", "O2", "FC", "FT")
    w0 = labeled_process(build_switch_choi(2))
    there = permute_systems(w0, section_order)
    back = permute_systems(there, w0.layout.labels)
    assert np.array_equal(back.entries, w0.entries)


def test_hermitian_eigen_rejects_non_hermitian():
    m = np.array([[0, 1], [0, 0]])
    assert not is_hermitian(m)
    for spectral in (min_eigenvalue, numerical_rank):
        with pytest.raises(ValueError):
            spectral(m)


def test_min_eigenvalue():
    assert abs(min_eigenvalue(np.eye(3)) - 1.0) < 1e-12
    psi = np.zeros(4)
    psi[0] = 1.0
    phi = np.zeros(4)
    phi[1] = 1.0
    m = np.outer(psi, psi) - 2 * np.outer(phi, phi)
    assert abs(min_eigenvalue(m) + 2.0) < 1e-12
    assert abs(min_eigenvalue(build_cp_family(0.5).op)) < 1e-12


def test_numerical_rank():
    for d in (2, 3, 5):
        assert numerical_rank(np.eye(d), tol=1e-10) == d
    assert numerical_rank(build_cp_family(1.0).op, tol=1e-10) == 1
    assert numerical_rank(np.zeros((3, 3)), tol=1e-10) == 0
