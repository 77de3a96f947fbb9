import numpy as np
import pytest

from switchcert.channels import (
    PAULI,
    STREAM_BLOCK,
    SampleStream,
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

from oracles import is_cptp, link, random_kraus_channel


def rand_state(rng, d):
    psi = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    psi /= np.linalg.norm(psi)
    return np.outer(psi, psi.conj())


def unitary_channel(u):
    """The channel rho -> U rho U^dag as one Kraus operator."""
    return np.asarray(u, dtype=complex)[None]


def apply_kraus(ch, rho):
    return sum(k @ rho @ k.conj().T for k in ch)


def apply_choi(ch, rho):
    """A channel's output Tr_I[J (rho^t (x) 1_O)], through the dense link oracle."""
    j = choi_from_kraus(ch) if ch.ndim == 3 else ch
    return link(j, rho)


def test_choi_of_identity_channel():
    j = choi_from_kraus(unitary_channel(np.eye(2)))
    # all four entries of the |ii><jj| block are 1
    want = np.zeros((4, 4))
    for i in (0, 3):
        for k in (0, 3):
            want[i, k] = 1.0
    assert np.array_equal(j, want)
    assert is_cptp(j)


def test_choi_of_depolarizing_via_pauli_kraus():
    ch = np.array([PAULI[k] / 2 for k in "ixyz"])
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
        assert frobenius(apply(unitary_channel(np.eye(2)), rho), rho) <= 1e-12
        out = apply(standard_channel("depolarizing", 2), rho)
        assert frobenius(out, np.eye(2) / 2) <= 1e-12
        plus = np.full((2, 2), 0.5, dtype=complex)
        out = apply(standard_channel("replace_zero", 2), plus)
        assert frobenius(out, np.diag([1.0, 0.0])) <= 1e-12


def test_apply_unitary_channel_matches_conjugation():
    rng, stream = np.random.default_rng(3), SampleStream(3)
    for _ in range(10):
        u = haar_random_unitary(3, stream)
        rho = rand_state(rng, 3)
        out = apply_choi(unitary_choi(u), rho)
        assert frobenius(out, u @ rho @ u.conj().T) <= 1e-10


def test_compose_unitals_hide_the_middle():
    stream = SampleStream(4)
    jd = choi_from_kraus(standard_channel("depolarizing", 2))
    for _ in range(100):
        u = unitary_choi(haar_random_unitary(2, stream))
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
    assert np.array_equal(j, choi_from_kraus(unitary_channel(np.eye(2))))
    jx = unitary_choi(PAULI["x"])
    support = {(i, k) for i, k in zip(*np.nonzero(np.abs(jx) > 1e-14))}
    assert support == {(1, 1), (1, 2), (2, 1), (2, 2)}  # |01>,|10> block
    # a non-unitary or non-finite input is rejected before any product that
    # would warn (an inf entry gives inf * 0 = NaN in U^dag U)
    for bad in (1.0, np.nan, np.inf):
        with pytest.raises(ValueError):
            unitary_choi(np.array([[1, bad], [0, 1]], dtype=complex))


@pytest.mark.parametrize("d", [2, 3])
def test_stacked_unitary_choi_and_compose_match_per_matrix(d):
    us = haar_random_unitaries(d, 5, d)
    stacked = unitary_choi(us)
    assert stacked.shape == (5, d * d, d * d)
    for u, j in zip(us, stacked):
        assert np.array_equal(j, unitary_choi(u))
    jd = choi_from_kraus(standard_channel("depolarizing", d))
    jlam = choi_from_kraus(standard_channel("replace_zero", d))
    for second, first in ((stacked, jd), (jlam, stacked), (stacked, stacked[::-1])):
        got = compose_channels(second, first)
        assert got.shape == stacked.shape
        for i, j in enumerate(got):
            pair = (np.broadcast_to(x, got.shape)[i] for x in (second, first))
            assert np.array_equal(j, compose_channels(*pair))
    # J_U2 . J_U1 is J_(U2 U1)
    got = compose_channels(stacked, stacked[::-1])
    assert frobenius(got.reshape(-1), unitary_choi(us @ us[::-1]).reshape(-1)) <= 1e-12


def test_unitary_choi_rejects_a_stack_with_one_bad_matrix():
    us = haar_random_unitaries(2, 4, 0)
    assert unitary_choi(us).shape == (4, 4, 4)
    for bad in (2.0, np.nan, np.inf, complex(0.0, -np.inf)):
        stack = us.copy()
        stack[2, 0, 1] = bad
        with pytest.raises(ValueError):
            unitary_choi(stack)


def test_fourier_choi_has_no_zero_entry():
    for d in (2, 3, 4):
        j = unitary_choi(fourier_matrix(d))
        mods = np.abs(j)
        assert mods.min() > 0
        assert np.abs(mods - 1.0 / d).max() <= 1e-12
        assert numerical_rank(j) == 1
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


def ginibre_qr_unitary(d, stream):
    """One Haar unitary the textbook way: QR of a complex Ginibre matrix, with
    the phases of diag(R) moved into Q."""
    z = (stream.normal((d, d)) + 1j * stream.normal((d, d))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    ph = np.diag(r).copy()
    ph /= np.abs(ph)
    return q * ph


@pytest.mark.parametrize("d", [2, 3, 4])
def test_stacked_haar_sampler_matches_successive_draws(d):
    n = 25
    stacked_rng, single_rng, ref_rng = (SampleStream(11) for _ in range(3))
    stacked = haar_random_unitaries(d, n, stacked_rng)
    assert stacked.shape == (n, d, d)
    assert np.array_equal(stacked, [haar_random_unitary(d, single_rng) for _ in range(n)])
    assert np.array_equal(stacked, [ginibre_qr_unitary(d, ref_rng) for _ in range(n)])
    # the streams are left in the same state
    assert stacked_rng.normal(1) == single_rng.normal(1) == ref_rng.normal(1)
    # an integer seed is a fresh stream; a numpy generator is no seed
    assert np.array_equal(haar_random_unitaries(d, n, 11), stacked)
    assert haar_random_unitaries(d, 0, 11).shape == (0, d, d)
    with pytest.raises(TypeError):
        haar_random_unitaries(d, n, np.random.default_rng(11))


def test_stream_draws_cut_into_blocks_keep_their_bits():
    # odd sizes summing to n, past the STREAM_BLOCK // 2 normals one block converts
    n = STREAM_BLOCK + 3
    sizes = (1, 3, 7, 5, 13, STREAM_BLOCK // 2 - 1, STREAM_BLOCK // 2 - 25)
    assert sum(sizes) == n
    for draw in ("uniform", "normal"):
        whole, cut = SampleStream(3), SampleStream(3)
        want = getattr(whole, draw)(n)
        got = np.concatenate([getattr(cut, draw)(k) for k in sizes])
        assert np.array_equal(got, want)
        assert np.array_equal(getattr(cut, draw)((2, 3)), getattr(whole, draw)((2, 3)))
    # normal k reads uniforms 2k and 2k + 1: sqrt(-2 ln u) cos(2 pi v)
    u = SampleStream(3).uniform((n, 2))
    assert np.array_equal(SampleStream(3).normal(n),
                          np.sqrt(-2.0 * np.log(u[:, 0])) * np.cos(2 * np.pi * u[:, 1]))


def test_stream_is_fixed_by_its_seed():
    first = SampleStream(5).normal(64)
    assert np.array_equal(SampleStream(5).normal(64), first)
    assert np.array_equal(SampleStream(np.int64(5)).normal(64), first)
    for other in (SampleStream(6).normal(64), SampleStream(50).normal(64)):
        assert not np.isin(other, first).any()
    later = SampleStream(5)
    later.normal(64)
    assert not np.isin(later.normal(64), first).any()
    for bad in (5.0, None, "5", np.random.default_rng(5)):
        with pytest.raises(TypeError):
            SampleStream(bad)


def test_stream_moments():
    # bounds fixed before the run: 5 standard errors of each statistic of
    # n standard normals (mean 1/sqrt(n), variance sqrt(2/n), tail fraction
    # sqrt(p(1 - p)/n) with p = P(|z| > 2) = erfc(sqrt 2))
    n, p = 2 ** 18, 0.04550026389635842
    z = SampleStream(2018).normal(n)
    assert abs(z.mean()) <= 5 / np.sqrt(n)
    assert abs(z.var() - 1) <= 5 * np.sqrt(2 / n)
    assert abs(np.mean(np.abs(z) > 2) - p) <= 5 * np.sqrt(p * (1 - p) / n)
    # uniforms are multiples of 2^-53 in (0, 1], of mean 1/2 and variance 1/12
    u = SampleStream(2018).uniform(n)
    assert u.min() > 0 and u.max() <= 1
    assert np.array_equal(u * 2.0 ** 53, np.round(u * 2.0 ** 53))
    assert abs(u.mean() - 0.5) <= 5 * np.sqrt(1 / 12 / n)


def test_haar_first_moment():
    # E[U (x) U*] = SWAP-free first moment: delta_ik delta_jl / d
    stream = SampleStream(123)
    n = 10_000
    acc = np.zeros((4, 4), dtype=complex)
    for _ in range(n):
        u = haar_random_unitary(2, stream)
        acc += np.kron(u, u.conj())
    acc /= n
    want = np.zeros((4, 4))
    for i in range(2):
        for j in range(2):
            want[i * 2 + i, j * 2 + j] = 0.5
    # componentwise within 3 standard errors (entry variance <= 1/n)
    assert np.abs(acc - want).max() <= 3.0 / np.sqrt(n)


def test_standard_channels_are_tp():
    for d in (2, 3):
        for kind in ("depolarizing", "replace_zero"):
            assert is_cptp(standard_channel(kind, d))
        for u in (np.eye(d), fourier_matrix(d)):
            assert is_cptp(unitary_channel(u))
    assert is_cptp(unitary_channel(PAULI["y"]))
    for d in (2, 3):
        assert is_cptp(unitary_choi(haar_random_unitary(d, d)))


def test_standard_channel_examples_and_errors():
    rng = np.random.default_rng(8)
    dep3 = standard_channel("depolarizing", 3)
    assert frobenius(apply_choi(dep3, rand_state(rng, 3)), np.eye(3) / 3) <= 1e-12
    non_unital = apply_choi(standard_channel("replace_zero", 2), np.eye(2))
    assert frobenius(non_unital, 2 * np.diag([1.0, 0.0])) <= 1e-12
    assert frobenius(non_unital, np.eye(2)) > 0.5
    jy = choi_from_kraus(unitary_channel(PAULI["y"]))
    assert frobenius(jy, unitary_choi(PAULI["y"])) <= 1e-12
    with pytest.raises(ValueError):
        standard_channel("amplitude_damping", 2)
    # plain (r, d, d) stacks: |i><j| / sqrt(d) with j fastest, and |0><i|
    eye = np.eye(3)
    assert np.array_equal(standard_channel("depolarizing", 3),
                          [np.outer(eye[i], eye[j]) / np.sqrt(3)
                           for i in range(3) for j in range(3)])
    assert np.array_equal(standard_channel("replace_zero", 3),
                          [np.outer(eye[0], eye[i]) for i in range(3)])


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
    stream = SampleStream(6)
    for d in (2, 3):
        fd = flip_operator(d)
        u = haar_random_unitary(d, stream)
        assert frobenius(fd @ unitary_choi(u) @ fd,
                         unitary_choi(u.T)) <= 1e-12


def test_kraus_validation():
    # an empty stack and a single operator not stacked are refused
    for bad in (np.zeros((0, 2, 2)), [], np.eye(2)):
        with pytest.raises(ValueError):
            choi_from_kraus(bad)
    # a stack of non-square operators C^2 -> C^3 is a channel
    assert choi_from_kraus(np.ones((1, 3, 2))).shape == (6, 6)
