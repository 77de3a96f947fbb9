import numpy as np
import pytest

from switchcert.channels import (
    PAULI,
    KrausChannel,
    choi_from_kraus,
    compose_channels,
    flip_operator,
    fourier_matrix,
    haar_random_unitaries,
    haar_random_unitary,
    standard_channel,
    unitary_choi,
)
from switchcert.linalg import frobenius, numerical_rank
from switchcert.switch import link

from oracles import is_cptp, random_kraus_channel


def rand_state(rng, d):
    psi = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    psi /= np.linalg.norm(psi)
    return np.outer(psi, psi.conj())


def apply_kraus(ch, rho):
    return sum(k @ rho @ k.conj().T for k in ch.kraus)


def apply_choi(ch, rho):
    """A channel's output Tr_I[J (rho^t (x) 1_O)], through the link kernel."""
    j = choi_from_kraus(ch) if isinstance(ch, KrausChannel) else ch
    return link(j, rho)


def test_choi_of_identity_channel():
    j = choi_from_kraus(standard_channel("identity", 2))
    # all four entries of the |ii><jj| block are 1
    want = np.zeros((4, 4))
    for i in (0, 3):
        for k in (0, 3):
            want[i, k] = 1.0
    assert np.array_equal(j, want)
    assert is_cptp(j)


def test_choi_of_depolarizing_via_pauli_kraus():
    ch = KrausChannel(2, 2, tuple(PAULI[k] / 2 for k in "ixyz"))
    j = choi_from_kraus(ch)
    assert frobenius(j, np.eye(4) / 2) <= 1e-12
    assert abs(np.trace(j) - 2.0) < 1e-12
    j_std = choi_from_kraus(standard_channel("depolarizing", 2))
    assert frobenius(j, j_std) <= 1e-12


def test_choi_of_replace_channel():
    j = choi_from_kraus(standard_channel("replace_zero", 2))
    assert frobenius(j, np.kron(np.eye(2), np.diag([1.0, 0.0]))) <= 1e-12


def test_apply_channel_routes_agree():
    rng = np.random.default_rng(1)
    for _ in range(10):
        d = int(rng.integers(2, 4))
        ch = random_kraus_channel(d, int(rng.integers(1, d * d)), rng)
        rho = rand_state(rng, d)
        via_kraus = apply_kraus(ch, rho)
        via_choi = apply_choi(ch, rho)
        assert frobenius(via_kraus, via_choi) <= 1e-10


def test_apply_channel_examples():
    rng = np.random.default_rng(2)
    rho = rand_state(rng, 2)
    for apply in (apply_kraus, apply_choi):
        assert frobenius(apply(standard_channel("identity", 2), rho), rho) <= 1e-12
        out = apply(standard_channel("depolarizing", 2), rho)
        assert frobenius(out, np.eye(2) / 2) <= 1e-12
        plus = np.full((2, 2), 0.5, dtype=complex)
        out = apply(standard_channel("replace_zero", 2), plus)
        assert frobenius(out, np.diag([1.0, 0.0])) <= 1e-12


def test_apply_unitary_channel_matches_conjugation():
    rng = np.random.default_rng(3)
    for _ in range(10):
        u = haar_random_unitary(3, rng)
        rho = rand_state(rng, 3)
        out = apply_choi(unitary_choi(u), rho)
        assert frobenius(out, u @ rho @ u.conj().T) <= 1e-10


def test_compose_unitals_hide_the_middle():
    rng = np.random.default_rng(4)
    jd = choi_from_kraus(standard_channel("depolarizing", 2))
    for _ in range(100):
        u = unitary_choi(haar_random_unitary(2, rng))
        out = compose_channels(jd, compose_channels(u, jd))
        assert frobenius(out, jd) <= 1e-10


def test_compose_non_unital_examples():
    jd = choi_from_kraus(standard_channel("depolarizing", 2))
    jlam = choi_from_kraus(standard_channel("replace_zero", 2))
    assert frobenius(compose_channels(jlam, jd), jlam) <= 1e-12
    assert frobenius(compose_channels(jd, compose_channels(jlam, jd)),
                     jd) <= 1e-12


def test_compose_associative_and_dim_checks():
    rng = np.random.default_rng(5)
    a, b, c = (choi_from_kraus(random_kraus_channel(2, r, rng)) for r in (2, 3, 1))
    left = compose_channels(compose_channels(c, b), a)
    right = compose_channels(c, compose_channels(b, a))
    assert frobenius(left, right) <= 1e-10
    for bad in (choi_from_kraus(random_kraus_channel(3, 1, rng)), np.eye(8), a[:, :3]):
        with pytest.raises(ValueError):
            compose_channels(bad, a)
        with pytest.raises(ValueError):
            compose_channels(a, bad)


def test_unitary_choi_basics():
    j = unitary_choi(np.eye(2))
    assert np.array_equal(j, choi_from_kraus(standard_channel("identity", 2)))
    jx = unitary_choi(PAULI["x"])
    support = {(i, k) for i, k in zip(*np.nonzero(np.abs(jx) > 1e-14))}
    assert support == {(1, 1), (1, 2), (2, 1), (2, 2)}  # |01>,|10> block
    # a NaN deviation from unitarity must fail the tolerance test, not pass
    # it; an inf entry gives inf * 0 = NaN in U^dag U, which numpy warns about
    for bad in (1.0, np.nan, np.inf):
        with np.errstate(invalid="ignore"), pytest.raises(ValueError):
            unitary_choi(np.array([[1, bad], [0, 1]], dtype=complex))


def test_fourier_choi_has_no_zero_entry():
    for d in (2, 3, 4):
        j = unitary_choi(fourier_matrix(d))
        mods = np.abs(j)
        assert mods.min() > 0
        assert np.abs(mods - 1.0 / d).max() <= 1e-12
        assert numerical_rank(j, tol=1e-10) == 1
        assert abs(np.trace(j) - d) < 1e-12


def test_haar_unitary_properties():
    u1 = haar_random_unitary(1, 5)
    assert abs(abs(u1[0, 0]) - 1.0) < 1e-12
    assert np.array_equal(haar_random_unitary(4, 42), haar_random_unitary(4, 42))
    for d in (2, 5):
        u = haar_random_unitary(d, 9)
        assert frobenius(u.conj().T @ u, np.eye(d)) <= 1e-12
    with pytest.raises(ValueError):
        haar_random_unitary(0, 1)


def ginibre_qr_unitary(d, rng):
    """One Haar unitary the textbook way: QR of a complex Ginibre matrix, with
    the phases of diag(R) moved into Q."""
    z = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    ph = np.diag(r).copy()
    ph /= np.abs(ph)
    return q * ph


@pytest.mark.parametrize("d", [2, 3, 4])
def test_stacked_haar_sampler_matches_successive_draws(d):
    n = 25
    stacked_rng, single_rng, ref_rng = (np.random.default_rng(11) for _ in range(3))
    stacked = haar_random_unitaries(d, n, stacked_rng)
    assert stacked.shape == (n, d, d)
    assert np.array_equal(stacked, [haar_random_unitary(d, single_rng) for _ in range(n)])
    assert np.array_equal(stacked, [ginibre_qr_unitary(d, ref_rng) for _ in range(n)])
    # the generators are left in the same state
    assert stacked_rng.standard_normal() == single_rng.standard_normal() \
        == ref_rng.standard_normal()
    # an integer seed is a fresh generator
    assert np.array_equal(haar_random_unitaries(d, n, 11), stacked)
    assert haar_random_unitaries(d, 0, 11).shape == (0, d, d)


def test_haar_first_moment():
    # E[U (x) U*] = SWAP-free first moment: delta_ik delta_jl / d
    rng = np.random.default_rng(123)
    n = 10_000
    acc = np.zeros((4, 4), dtype=complex)
    for _ in range(n):
        u = haar_random_unitary(2, rng)
        acc += np.kron(u, u.conj())
    acc /= n
    want = np.zeros((4, 4))
    for i in range(2):
        for j in range(2):
            want[i * 2 + i, j * 2 + j] = 0.5
    # componentwise within 3 standard errors (entry variance <= 1/n)
    assert np.abs(acc - want).max() <= 3.0 / np.sqrt(n)


def test_standard_channels_are_tp():
    for kind in ("identity", "depolarizing", "replace_zero", "fourier_unitary"):
        for d in (2, 3):
            assert is_cptp(standard_channel(kind, d))
    assert is_cptp(standard_channel("pauli_y", 2))
    for d in (2, 3):
        assert is_cptp(unitary_choi(haar_random_unitary(d, d)))


def test_standard_channel_examples_and_errors():
    rng = np.random.default_rng(8)
    dep3 = standard_channel("depolarizing", 3)
    assert frobenius(apply_choi(dep3, rand_state(rng, 3)), np.eye(3) / 3) <= 1e-12
    non_unital = apply_choi(standard_channel("replace_zero", 2), np.eye(2))
    assert frobenius(non_unital, 2 * np.diag([1.0, 0.0])) <= 1e-12
    assert frobenius(non_unital, np.eye(2)) > 0.5
    jy = choi_from_kraus(standard_channel("pauli_y", 2))
    assert frobenius(jy, unitary_choi(PAULI["y"])) <= 1e-12
    with pytest.raises(ValueError):
        standard_channel("pauli_x", 3)
    with pytest.raises(ValueError):
        standard_channel("amplitude_damping", 2)


def test_flip_operator():
    f = flip_operator(2)
    e01 = np.zeros(4)
    e01[1] = 1.0
    e10 = np.zeros(4)
    e10[2] = 1.0
    assert np.array_equal(f @ e01, e10)
    assert np.array_equal(f @ f, np.eye(4))
    h = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    jh = unitary_choi(h)
    assert frobenius(f @ jh @ f, jh) <= 1e-12  # H is symmetric
    rng = np.random.default_rng(6)
    for d in (2, 3):
        fd = flip_operator(d)
        u = haar_random_unitary(d, rng)
        assert frobenius(fd @ unitary_choi(u) @ fd,
                         unitary_choi(u.T)) <= 1e-12


def test_kraus_validation():
    with pytest.raises(ValueError):
        KrausChannel(2, 2, ())
    with pytest.raises(ValueError):
        KrausChannel(2, 2, (np.zeros((3, 2)),))
