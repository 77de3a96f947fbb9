import dataclasses
import itertools

import numpy as np
import pytest

from switchcert import span
from switchcert.channels import SampleStream, choi_from_kraus, haar_random_unitaries, \
    haar_random_unitary, standard_channel, unitary_choi
from switchcert.linalg import frobenius
from switchcert.span import (
    _branch_states,
    _phase_averages,
    _scaled_unitary_deviations,
    _span_residuals,
    build_span_generator,
    enumerate_generators,
    estimate_span_dimension,
    group_size_formulas,
    group_table,
    listed_operator_count,
    scale_match_residual,
    span_dimension_formula,
    span_projector,
    stated_list_operators,
    verify_group_combinatorics,
    verify_span_lemmas,
)

from oracles import build_group, same_side_lone_ketbras


def ketbra(d, a, b, c, e):
    m = np.zeros((d * d, d * d), dtype=complex)
    m[a * d + b, c * d + e] = 1.0
    return m


def test_generator_validation():
    with pytest.raises(ValueError):
        build_span_generator("A1", (0, 1, 1, 0), 1)
    with pytest.raises(ValueError):
        build_span_generator("A1", (0, 1, 0, 1), 2)   # not a recognized pattern
    with pytest.raises(ValueError):
        build_span_generator("A2", (0, 1, 1, 2), 3)   # not pairwise distinct
    with pytest.raises(ValueError):
        build_span_generator("A3", (0, 1, 2, 3), 4)   # no coincidence
    with pytest.raises(ValueError):
        build_span_generator("A4", (5,), 3)
    with pytest.raises(ValueError):
        build_span_generator("A5", (1, 1), 2)
    with pytest.raises(ValueError):
        build_span_generator("A9", (0, 1), 2)


def test_a1_state_matches_construction():
    gen = build_span_generator("A1", (0, 0, 1, 1), 2)
    th, ph = 0.7, 1.9
    psi = _branch_states([gen], np.array([[th, ph]]))[0, 0, 0]
    want = np.zeros(4, dtype=complex)
    want[0] = 1.0
    want[3] = np.exp(1j * th)   # complement empty at d = 2
    assert np.allclose(psi, want)


def test_a4_state_matches_construction():
    gen = build_span_generator("A4", (1,), 3)
    phases = np.array([0.3, 1.1, 2.7])
    psi = _branch_states([gen], phases[None])[0, 0, 0]
    want = np.zeros(9, dtype=complex)
    for i in range(3):
        want[i * 3 + (i + 1) % 3] = np.exp(1j * phases[i])
    assert np.allclose(psi, want)


def test_phase_average_examples():
    avg = _phase_averages([build_span_generator("A1", (0, 0, 1, 1), 2)], 4)[0]
    resid, s = scale_match_residual(avg, ketbra(2, 0, 0, 1, 1))
    assert resid <= 1e-14 and s.real > 0

    avg = _phase_averages([build_span_generator("A4", (0,), 2)], 3)[0]
    want = ketbra(2, 0, 0, 0, 0) + ketbra(2, 1, 1, 1, 1)
    resid, _ = scale_match_residual(avg, want)
    assert resid <= 1e-14

    avg = _phase_averages([build_span_generator("A5", (0, 1), 2)], 4)[0]
    want = ketbra(2, 0, 1, 0, 0) - ketbra(2, 1, 1, 1, 0)
    resid, s = scale_match_residual(avg, want)
    assert resid <= 1e-14 and abs(s - 0.25) < 1e-13

    avg = _phase_averages([build_span_generator("A5-variant", (0, 1), 2)], 4)[0]
    want = ketbra(2, 1, 0, 0, 0) - ketbra(2, 1, 1, 0, 1)
    resid, _ = scale_match_residual(avg, want)
    assert resid <= 1e-14


def test_phase_average_grid_threshold():
    gen = build_span_generator("A5", (0, 1), 2)
    with pytest.raises(ValueError):
        _phase_averages([gen], 3)
    a4 = _phase_averages([gen], 4)[0]
    a8 = _phase_averages([gen], 8)[0]
    assert frobenius(a4, a8) <= 1e-13


def test_a3_compensated_targets():
    # the sampled states stay exactly unitary after reshaping
    rng = np.random.default_rng(0)
    for idx in ((0, 1, 0, 2), (0, 1, 2, 1)):
        gen = build_span_generator("A3", idx, 3)
        for _ in range(5):
            ph = rng.uniform(0, 2 * np.pi, gen.phase_count)
            psi = _branch_states([gen], ph[None])[0, 0]
            assert _scaled_unitary_deviations(psi, 3)[0] <= 1e-12
        avg = _phase_averages([gen])[0]
        resid, _ = scale_match_residual(avg, gen.target)
        assert resid <= 1e-13
        # and the compensated difference of lone ket-bras is in the span
        assert _span_residuals([gen.target], 3)[0] <= 1e-9


def test_same_side_lone_ketbras_are_outside_span():
    # |ij><ik| and |ij><kj| alone have a non-identity partial trace, so they
    # cannot be combinations of unitary-channel Choi operators
    assert _span_residuals([ketbra(3, 0, 1, 0, 2)], 3)[0] > 0.5
    assert _span_residuals([ketbra(3, 0, 1, 2, 1)], 3)[0] > 0.5
    diff = ketbra(3, 0, 1, 0, 2) - ketbra(3, 1, 1, 1, 2)
    assert _span_residuals([diff], 3)[0] <= 1e-9


def test_partial_trace_characterization_cross_check():
    # independent membership oracle: both partial traces proportional to the
    # identity with the same constant
    rng, stream = np.random.default_rng(1), SampleStream(1)
    d = 3

    def marginals_dev(op):
        j4 = op.reshape(d, d, d, d)
        lam = np.trace(op.reshape(d * d, d * d)) / d
        tr_out = np.einsum("iaja->ij", j4.reshape(d, d, d, d))
        tr_in = np.einsum("iaib->ab", j4.reshape(d, d, d, d))
        return max(frobenius(tr_out, lam * np.eye(d)),
                   frobenius(tr_in, lam * np.eye(d)))

    combo = sum(complex(*rng.standard_normal(2))
                * unitary_choi(haar_random_unitary(d, stream))
                for _ in range(5))
    assert marginals_dev(combo) <= 1e-10
    assert _span_residuals([combo], d)[0] <= 1e-9

    outside = choi_from_kraus(standard_channel("replace_zero", d))
    assert marginals_dev(outside) > 0.5
    assert _span_residuals([outside], d)[0] > 0.1


def test_membership_residual_examples():
    for d in (2, 3):
        assert _span_residuals([np.eye(d * d) / d], d)[0] <= 1e-10
        u = haar_random_unitary(d, 7)
        assert _span_residuals([unitary_choi(u)], d)[0] <= 1e-12
        outside = choi_from_kraus(standard_channel("replace_zero", d))
        assert _span_residuals([outside], d)[0] > 0.1


@pytest.mark.parametrize("d", [2, 3])
def test_span_residuals_match_the_dense_projector(d):
    rng = np.random.default_rng(d)
    x = rng.standard_normal((20, d ** 4)) + 1j * rng.standard_normal((20, d ** 4))
    x = np.concatenate((x, [g.target.reshape(-1) for g in enumerate_generators(d)]))
    want = np.linalg.norm(x - x @ span_projector(d), axis=1)
    assert np.abs(_span_residuals(x, d) - want).max() <= 1e-12


def test_estimate_span_dimension():
    assert estimate_span_dimension(1, 10, seed=0) == 1
    assert estimate_span_dimension(2, 60, seed=0) == 10
    assert estimate_span_dimension(2, 200, seed=1) == 10
    assert estimate_span_dimension(3, 200, seed=0) == 65
    assert span_dimension_formula(2) == 10
    assert span_dimension_formula(3) == 65
    with pytest.raises(ValueError):
        estimate_span_dimension(2, 8, seed=0)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_span_dimension_svd_rank_matches_gram_rank(d):
    # the eigvalsh-of-the-Gram rank the singular-value rule replaced
    samples, seed = 3 * span_dimension_formula(d) + 30, 0
    stream = SampleStream(seed)
    vecs = np.array([unitary_choi(haar_random_unitary(d, stream)).reshape(-1)
                     for _ in range(samples)])
    gram = vecs.conj() @ vecs.T
    w = np.abs(np.linalg.eigvalsh((gram + gram.conj().T) / 2))
    gram_rank = int(np.count_nonzero(w > 1e-10 * w.max()))
    assert gram_rank == span_dimension_formula(d)
    assert estimate_span_dimension(d, samples, seed=seed) == gram_rank


@pytest.mark.parametrize("d", [2, 3])
def test_span_dimension_real_image_keeps_singular_values(d, monkeypatch):
    # the real isometric image of the Hermitian vec(J_U) has the Gram matrix
    # Tr(J_s J_t) of the complex stack, hence its singular values
    samples, seen, svd = 3 * span_dimension_formula(d) + 30, [], np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda a, **kw: seen.append(a) or svd(a, **kw))
    assert estimate_span_dimension(d, samples, seed=0) == span_dimension_formula(d)
    (image,) = seen
    assert image.dtype == np.float64 and image.shape == (samples, d ** 4)
    stack = np.array([unitary_choi(u).reshape(-1)
                      for u in haar_random_unitaries(d, samples, 0)])
    assert np.abs(svd(image, compute_uv=False)
                  - svd(stack, compute_uv=False)).max() <= 1e-12


@pytest.mark.parametrize("d,block", [(2, 7 * 16), (2, 1), (3, 5 * 81)])
def test_span_dimension_blocks_keep_the_matrix_bits(d, block, monkeypatch):
    # blocks of 7 and of 1 rows at d = 2 and of 5 rows at d = 3, the last one
    # short, fill the matrix of one draw bit for bit
    samples, seen, svd = 3 * span_dimension_formula(d) + 31, [], np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda a, **kw: seen.append(a) or svd(a, **kw))
    monkeypatch.setattr(span, "SAMPLE_BLOCK_ENTRIES", samples * d ** 4)
    whole = estimate_span_dimension(d, samples, seed=4)
    monkeypatch.setattr(span, "SAMPLE_BLOCK_ENTRIES", block)
    assert estimate_span_dimension(d, samples, seed=4) == whole == span_dimension_formula(d)
    assert np.array_equal(seen[0].view(np.uint64), seen[1].view(np.uint64))


def test_span_dimension_holds_little_beside_its_matrix():
    # 2^18 samples at d = 2: a 32 MiB matrix, filled 2 MiB at a time; one
    # draw of every sample held 2.75 times the matrix
    import tracemalloc
    samples = 2 ** 18
    tracemalloc.start()
    try:
        assert estimate_span_dimension(2, samples, seed=0) == 10
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * samples * 16 * 8


def haar_span_projector(d, seed=0):
    """V^H V for an orthonormal row basis V of sampled vec(J_U), via an SVD."""
    stream = SampleStream(seed)
    samples = 4 * span_dimension_formula(d)
    mat = np.array([unitary_choi(haar_random_unitary(d, stream)).reshape(-1)
                    for _ in range(samples)])
    _, s, vh = np.linalg.svd(mat, full_matrices=False)
    v = vh[:int(np.count_nonzero(s > 1e-10 * s[0]))]
    return v.conj().T @ v


def test_span_projector_closed_form():
    for d in (2, 3):
        p = span_projector(d)
        assert p.dtype == np.float64
        assert np.array_equal(p, p.T)
        assert frobenius(p @ p, p) <= 1e-12
        assert abs(np.trace(p) - ((d * d - 1) ** 2 + 1)) <= 1e-12
        assert frobenius(p, haar_span_projector(d)) <= 1e-10


def pointwise_phase_average(gen, n):
    """The defining grid sum, one point and one outer product at a time."""
    grid = 2.0 * np.pi * np.arange(n) / n
    acc = np.zeros((gen.d ** 2, gen.d ** 2), dtype=complex)
    for combo in itertools.product(range(n), repeat=gen.phase_count):
        phases = grid[list(combo)]
        w = np.exp(1j * np.dot(gen.weight_degrees, phases))
        for b, (bc, _) in enumerate(gen.branches):
            psi = _branch_states([gen], phases[None])[0, b, 0]
            acc += bc * w * np.outer(psi, psi.conj())
    return acc / n ** gen.phase_count


def test_phase_average_matches_pointwise_loop():
    # also on grids below the exactness threshold, where both alias alike
    for d in (2, 3):
        for gen in enumerate_generators(d):
            gen = dataclasses.replace(gen, min_grid=1)
            for n in (1, 2, gen.default_grid, 2 * gen.default_grid):
                assert frobenius(_phase_averages([gen], n)[0],
                                 pointwise_phase_average(gen, n)) <= 1e-13


def per_generator_phase_average(gen, n):
    """The grid sum of one generator, branch by branch and term by term."""
    grid = 2.0 * np.pi * np.arange(n) / n
    phases = grid[np.indices((n,) * gen.phase_count).reshape(gen.phase_count, -1).T]
    w = np.exp(1j * (phases @ np.array(gen.weight_degrees)))
    acc = np.zeros((gen.d ** 2, gen.d ** 2), dtype=complex)
    for bc, terms in gen.branches:
        psi = np.zeros((len(phases), gen.d ** 2), dtype=complex)
        for term in terms:
            psi[:, term.ket[0] * gen.d + term.ket[1]] += \
                term.coeff * np.exp(1j * (phases @ np.array(term.degrees)))
        acc += bc * ((w[:, None] * psi).T @ psi.conj())
    return acc / n ** gen.phase_count


def lemma_groups(d):
    groups = {}
    for gen in enumerate_generators(d):
        groups.setdefault(gen.lemma_id, []).append(gen)
    return groups.values()


@pytest.mark.parametrize("d", [2, 3])
def test_grouped_phase_averages_match_per_generator_loop(d):
    for gens in lemma_groups(d):
        for n in (gens[0].default_grid, 2 * gens[0].default_grid):
            avgs = _phase_averages(gens, n)
            assert len(avgs) == len(gens)
            for gen, avg in zip(gens, avgs):
                assert frobenius(avg, per_generator_phase_average(gen, n)) <= 1e-13
                assert np.array_equal(avg, _phase_averages([gen], n)[0])
    with pytest.raises(ValueError):
        _phase_averages(enumerate_generators(d)[:3], 2)


@pytest.mark.parametrize("d", [2, 3])
def test_stacked_scaled_unitary_check_matches_per_state_loop(d):
    rng = np.random.default_rng(5)
    for gens in lemma_groups(d):
        states = np.array([
            _branch_states([gen], rng.uniform(0, 2 * np.pi, (1, gen.phase_count)))[0, b, 0]
            for gen in gens for b in range(len(gen.branches))])
        stacked = _scaled_unitary_deviations(states, d)
        for psi, dev in zip(states, stacked):
            g = psi.reshape(d, d) @ psi.reshape(d, d).conj().T
            c = np.trace(g) / d
            want = np.linalg.norm(g - c * np.eye(d)) / np.linalg.norm(g)
            assert abs(dev - want) <= 1e-13
            assert dev == _scaled_unitary_deviations(psi[None], d)[0]
    # a non-unitary reshaping is seen
    bad = np.zeros((1, d * d), dtype=complex)
    bad[0, 0] = 1.0
    assert _scaled_unitary_deviations(bad, d)[0] > 0.5


def test_enumerate_generators_count():
    for d in (2, 3, 4):
        gens = enumerate_generators(d)
        assert len(gens) == listed_operator_count(d) == d * (d ** 3 - 3 * d + 3)


def written_out_stated_list(d):
    """The stated operator list, index loop by index loop."""
    rng = range(d)
    ops = [ketbra(d, *t) for i, j in itertools.permutations(rng, 2)
           for t in ((i, i, j, j), (i, j, j, i))]
    ops += [ketbra(d, *t) for t in itertools.permutations(rng, 4)]
    ops += [ketbra(d, *t) for x, y, z in itertools.permutations(rng, 3)
            for t in ((x, x, y, z), (x, y, y, z), (x, y, x, z), (x, y, z, y),
                      (x, y, z, z), (x, y, z, x))]
    ops += [sum(ketbra(d, i, (i + k) % d, i, (i + k) % d) for i in rng) for k in rng]
    for i, j in itertools.permutations(rng, 2):
        ops.append(ketbra(d, i, j, i, i) - ketbra(d, j, j, j, i))
        ops.append(ketbra(d, j, i, i, i) - ketbra(d, j, j, i, j))
    return ops


def test_stated_list_matches_written_out_list():
    # same operators up to order and the 1/4 of the A5 targets
    def key(op):
        v = op.reshape(-1) / np.abs(op).max()
        return tuple(np.round(np.concatenate([v.real, v.imag]), 12))

    for d in (2, 3, 4):
        got = sorted(key(op) for op in stated_list_operators(enumerate_generators(d)))
        assert got == sorted(key(op) for op in written_out_stated_list(d))


def test_verify_span_lemmas():
    for d in (2, 3):
        rep = verify_span_lemmas(d, seed=0)
        assert rep.passed, [c for c in rep.checks if not c.passed]
    rep2 = verify_span_lemmas(2, seed=0)
    assert rep2.check("listed_item_count").measured == 10


@pytest.mark.parametrize("d,rank", [(2, 10), (3, 63), (4, 220), (5, 565)])
def test_stated_list_rank(d, rank, monkeypatch):
    # the stated list is real, so its rank comes from a real SVD; a complex
    # list (here the same list times a phase) takes the complex SVD
    assert f"stated_list_rank={rank}" in verify_span_lemmas(d).notes
    if d == 3:
        stated = span.stated_list_operators
        monkeypatch.setattr(span, "stated_list_operators",
                            lambda gens: [np.exp(0.3j) * op for op in stated(gens)])
        assert f"stated_list_rank={rank}" in verify_span_lemmas(d).notes


def test_group_sizes_and_cover():
    for d in (2, 3, 4):
        forms = group_size_formulas(d)
        _, _, group, half = group_table(d)
        sizes = dict(zip(("G1", "G2", "G3"), np.bincount(group).tolist()))
        assert sizes == forms
        assert sizes["G1"] + d * sizes["G2"] + 2 * sizes["G3"] == d ** 4
        assert np.bincount(half).tolist() == [sizes["G1"] + d, d * (d - 1), d * (d - 1)]
        assert np.array_equal(half > 0, group == 2)
        rep = verify_group_combinatorics(d)
        assert rep.passed
    with pytest.raises(ValueError):
        group_table(1)


def test_group_table_matches_the_element_list():
    # the index table holds the written-out elements, terms and signs, in order
    for d in (2, 3, 4):
        element, coeff, group, half = group_table(d)
        ketbras = [tuple(t) for t in np.indices((d,) * 4).reshape(4, -1).T.tolist()]
        elements = [el for gid in ("G1", "G2", "G3") for el in build_group(gid, d)]
        assert len(group) == len(elements)
        for n, el in enumerate(elements):
            members = np.flatnonzero(element == n)
            assert sorted((coeff[k], ketbras[k]) for k in members) == sorted(el.terms)
            gid = ("G1", "G2", "G3")[group[n]]
            assert gid == el.group_id[:2]
            assert half[n] == {"G3p": 1, "G3pp": 2}.get(el.group_id, 0)


def test_group_membership_in_span():
    # G2 and G3 elements always lie in the span; G1 elements do except for
    # the two same-side coincidence patterns
    d = 3
    element, coeff, group, _ = group_table(d)
    vectors = np.zeros((len(group), d ** 4))
    vectors[element, np.arange(d ** 4)] = coeff
    resid = _span_residuals(vectors, d)
    assert resid[group > 0].max() <= 1e-9
    outside = 0
    for (i, j, i2, j2), n in zip(np.indices((d,) * 4).reshape(4, -1).T.tolist(), element):
        if group[n] > 0:
            continue
        if len({i, j, i2, j2}) == 3 and (i == i2 or j == j2):
            assert resid[n] > 0.1
            outside += 1
        else:
            assert resid[n] <= 1e-9
    assert outside == 2 * d * (d - 1) * (d - 2)


def test_lone_ketbras_are_the_same_side_list(monkeypatch):
    # the mask selects every |xy><xz| and |xy><zy| with x, y, z distinct, once
    residuals = span._span_residuals
    seen = []
    monkeypatch.setattr(span, "_span_residuals",
                        lambda x, d: seen.append(np.asarray(x)) or residuals(x, d))
    for d, count in ((3, 12), (4, 48)):
        seen.clear()
        notes = verify_span_lemmas(d).notes
        assert any(note.startswith(f"lone_same_side_ketbras={count} ") for note in notes)
        rows, cols = np.nonzero(seen[-1])
        assert seen[-1].shape == (count, d ** 4) and rows.tolist() == list(range(count))
        assert seen[-1][rows, cols].tolist() == [1.0] * count
        listed = [np.ravel_multi_index(t, (d,) * 4) for t in same_side_lone_ketbras(d)]
        assert len(listed) == count
        assert cols.tolist() == sorted(listed)


def test_group_combinatorics_certifies_membership():
    for d, outside in ((2, 0), (3, 12), (4, 48)):
        rep = verify_group_combinatorics(d)
        assert rep.passed
        assert rep.check("G1_outside_span_count").measured == outside
        assert rep.check("G1_inside_span_count").measured \
            == group_size_formulas(d)["G1"] - outside
        assert rep.check("max_G2_G3_span_residual").measured <= 1e-9
