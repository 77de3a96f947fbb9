"""Constructive generators for span{J_U} and the ket-bra grouping G1/G2/G3.

Each generator samples an (unnormalized) maximally entangled state whose
reshaped matrix is a scaled unitary, so its outer product is a scaled
unitary-channel Choi operator.  Averaging the outer products against a
Fourier weight over a uniform phase grid reproduces the generator's target
operator exactly, because every integrand is a Laurent polynomial of small
degree in the phases.

A subtlety for the two coincidence patterns |ij><ik| and |ij><kj| (repeated
index on the input side or on the output side): these lone ket-bras are NOT
elements of span{J_U} -- their partial trace over the non-repeated factor is
a nonzero |j><k| instead of a multiple of the identity.  The phase average
of the corresponding entangled family therefore lands on a compensated
combination (the lone ket-bra minus same-shaped companions), and that
combination is the target certified here.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import sqrt

import numpy as np

from .channels import haar_random_unitaries
from .linalg import frobenius
from .report import Timer, check_exact_int, check_leq, check_true, make_report, nan_max

SQ2 = sqrt(2.0)
RANK_TOL = 1e-10  # relative cut below which a singular value counts as zero
STACK_ENTRIES = 2 ** 16  # complex entries of one stacked block of sampled states (1 MiB)


def _ketbra(d: int, a: int, b: int, c: int, e: int) -> np.ndarray:
    """|ab><ce| on C^d (x) C^d."""
    m = np.zeros((d * d, d * d), dtype=complex)
    m[a * d + b, c * d + e] = 1.0
    return m


@dataclass(frozen=True)
class StateTerm:
    """One amplitude of a generator state: coeff * exp(i sum deg_p theta_p) |ket>."""

    ket: tuple[int, int]
    coeff: complex
    degrees: tuple[int, ...]


@dataclass(frozen=True)
class SpanGenerator:
    """A phase-parametrized family of scaled-unitary Choi vectors plus its target.

    ``branches`` holds one or more state families; the phase average combines
    them linearly (lemma families that need a sum/difference of two averaged
    outer products carry two branches).
    """

    lemma_id: str
    indices: tuple[int, ...]
    d: int
    weight_degrees: tuple[int, ...]
    branches: tuple[tuple[complex, tuple[StateTerm, ...]], ...]
    target: np.ndarray
    min_grid: int
    default_grid: int

    def __post_init__(self):
        t = np.array(self.target, dtype=complex, copy=True)
        t.flags.writeable = False
        object.__setattr__(self, "target", t)

    @property
    def phase_count(self) -> int:
        return len(self.weight_degrees)

    def state(self, branch: int, phases) -> np.ndarray:
        """The sampled state vector of one branch at the given phases."""
        phases = np.asarray(phases, dtype=float)
        if phases.shape != (self.phase_count,):
            raise ValueError(f"expected {self.phase_count} phases")
        return _branch_states([self], phases[None, :])[0, branch, 0]


def _term_tables(gens):
    """Padded term tables of generators that share a phase and branch count.

    Returns the coefficients (G, B, T), the phase degrees (G, B, T, phases)
    and the kets as one-hot rows (G, B, T, d^2); a padding term has
    coefficient 0 and an all-zero ket row.
    """
    d = gens[0].d
    shape = (len(gens), len(gens[0].branches),
             max(len(terms) for g in gens for _, terms in g.branches))
    coeffs = np.zeros(shape, dtype=complex)
    degrees = np.zeros(shape + (gens[0].phase_count,))
    kets = np.zeros(shape + (d * d,))
    for g, gen in enumerate(gens):
        for b, (_, terms) in enumerate(gen.branches):
            for t, term in enumerate(terms):
                coeffs[g, b, t] = term.coeff
                degrees[g, b, t] = term.degrees
                kets[g, b, t, term.ket[0] * d + term.ket[1]] = 1.0
    return coeffs, degrees, kets


def _branch_states(gens, phases: np.ndarray) -> np.ndarray:
    """States (G, B, S, d^2) of every generator branch at S phase points.

    ``phases`` is (S, phase_count), shared by all, or (G, B, S, phase_count).
    Each amplitude is coeff * exp(i phases . degrees); a product with the 0/1
    ket rows sums it into its ket, and multiplying by 0 or 1 is exact.
    """
    coeffs, degrees, kets = _term_tables(gens)
    amps = coeffs[..., None] * np.exp(1j * (degrees @ np.swapaxes(phases, -1, -2)))
    return np.swapaxes(amps, -1, -2) @ kets


def _complement_diag(d: int, excluded, degrees) -> list[StateTerm]:
    return [StateTerm((k, k), 1.0, degrees) for k in range(d) if k not in excluded]


def _validate_distinct(indices, n_distinct: int, what: str):
    if len(set(indices)) != n_distinct:
        raise ValueError(f"{what}: indices {indices} must have exactly "
                         f"{n_distinct} distinct values")


def _build_a1(indices, d):
    a, b, c, e = indices
    ok = (a == b and c == e and a != c) or (a == e and b == c and a != b)
    if not ok:
        raise ValueError(f"A1 needs indices (i,i,j,j) or (i,j,j,i), got {indices}")
    terms = [StateTerm((a, b), 1.0, (0, 0)), StateTerm((c, e), 1.0, (1, 0))]
    terms += _complement_diag(d, {a, b, c, e}, (0, 1))
    target = _ketbra(d, a, b, c, e)
    return (1, 0), ((1.0, tuple(terms)),), target


def _build_a2(indices, d):
    a, b, c, e = indices
    _validate_distinct(indices, 4, "A2")
    terms = [StateTerm((a, b), 1.0, (0, 0)), StateTerm((c, e), 1.0, (1, 0)),
             StateTerm((b, a), 1.0, (0, 1)), StateTerm((e, c), 1.0, (0, 1))]
    terms += _complement_diag(d, {a, b, c, e}, (0, 1))
    target = _ketbra(d, a, b, c, e)
    return (1, 0), ((1.0, tuple(terms)),), target


def _a3_case1(i, j, k, d, adjoint):
    # state for |ii><jk| (or its adjoint |jk><ii| under the conjugate weight)
    terms = [StateTerm((i, i), 1.0, (0, 0)), StateTerm((j, k), 1.0, (1, 0)),
             StateTerm((k, j), 1.0, (0, 1))]
    terms += _complement_diag(d, {i, j, k}, (0, 1))
    target = _ketbra(d, j, k, i, i) if adjoint else _ketbra(d, i, i, j, k)
    return terms, target


def _a3_case2(i, j, k, d, adjoint):
    # state for |ij><jk| (or its adjoint |jk><ij|)
    terms = [StateTerm((i, j), 1.0, (0, 0)), StateTerm((j, k), 1.0, (1, 0)),
             StateTerm((k, i), 1.0, (0, 1))]
    terms += _complement_diag(d, {i, j, k}, (0, 1))
    target = _ketbra(d, j, k, i, j) if adjoint else _ketbra(d, i, j, j, k)
    return terms, target


def _a3_case3(i, j, k, d):
    # repeated index on the input side; the +/- factors carry 1/sqrt(2) so the
    # reshaped matrix stays exactly unitary
    terms = [StateTerm((i, j), 1 / SQ2, (0, 0)), StateTerm((i, k), 1 / SQ2, (1, 0)),
             StateTerm((j, j), 1 / SQ2, (0, 1)), StateTerm((j, k), -1 / SQ2, (1, 1)),
             StateTerm((k, i), 1.0, (0, 1))]
    terms += _complement_diag(d, {i, j, k}, (0, 1))
    target = 0.5 * (_ketbra(d, i, j, i, k) - _ketbra(d, j, j, j, k)) \
        - (_ketbra(d, k, i, j, k)
           + sum(_ketbra(d, l, l, j, k) for l in range(d) if l not in (i, j, k))) / SQ2
    return terms, target


def _a3_case4(i, j, k, d):
    # repeated index on the output side
    terms = [StateTerm((i, j), 1 / SQ2, (0, 0)), StateTerm((k, j), 1 / SQ2, (1, 0)),
             StateTerm((i, i), 1 / SQ2, (0, 1)), StateTerm((k, i), -1 / SQ2, (1, 1)),
             StateTerm((j, k), 1.0, (0, 1))]
    terms += _complement_diag(d, {i, j, k}, (0, 1))
    target = 0.5 * (_ketbra(d, i, j, k, j) - _ketbra(d, i, i, k, i)) \
        - (_ketbra(d, j, k, k, i)
           + sum(_ketbra(d, l, l, k, i) for l in range(d) if l not in (i, j, k))) / SQ2
    return terms, target


def _build_a3(indices, d):
    p, q, r, s = indices
    _validate_distinct(indices, 3, "A3")
    weight = (1, 0)
    if p == q:
        terms, target = _a3_case1(p, r, s, d, adjoint=False)
    elif q == r:
        terms, target = _a3_case2(p, q, s, d, adjoint=False)
    elif p == r:
        terms, target = _a3_case3(p, q, s, d)
    elif q == s:
        terms, target = _a3_case4(p, q, r, d)
    elif r == s:
        weight = (-1, 0)
        terms, target = _a3_case1(r, p, q, d, adjoint=True)
    elif p == s:
        weight = (-1, 0)
        terms, target = _a3_case2(r, p, q, d, adjoint=True)
    else:  # unreachable given the distinctness validation
        raise ValueError(f"A3: no coincidence pattern in {indices}")
    return weight, ((1.0, tuple(terms)),), target


def _build_a4(indices, d):
    (k,) = indices
    if not 0 <= k < d:
        raise ValueError(f"A4 shift must lie in [0, {d}), got {k}")
    terms = []
    target = np.zeros((d * d, d * d), dtype=complex)
    for i in range(d):
        deg = tuple(1 if p == i else 0 for p in range(d))
        terms.append(StateTerm((i, (i + k) % d), 1.0, deg))
        target += _ketbra(d, i, (i + k) % d, i, (i + k) % d)
    return (0,) * d, ((1.0, tuple(terms)),), target


def _a5_branches(i, j, d):
    # u = (|i> + e^{i th2} |j>)/sqrt2,  v = (|i> - e^{i th2} |j>)/sqrt2
    kk = tuple(_complement_diag(d, {i, j}, (0, 0, 1)))
    # psi1 = u(x)u + e^{i th1} v(x)v + e^{i phi} |KK>
    psi1 = (StateTerm((i, i), 0.5, (0, 0, 0)), StateTerm((i, j), 0.5, (0, 1, 0)),
            StateTerm((j, i), 0.5, (0, 1, 0)), StateTerm((j, j), 0.5, (0, 2, 0)),
            StateTerm((i, i), 0.5, (1, 0, 0)), StateTerm((i, j), -0.5, (1, 1, 0)),
            StateTerm((j, i), -0.5, (1, 1, 0)), StateTerm((j, j), 0.5, (1, 2, 0))) + kk
    # psi2 = u(x)v + e^{i th1} v(x)u + e^{i phi} |KK>
    psi2 = (StateTerm((i, i), 0.5, (0, 0, 0)), StateTerm((i, j), -0.5, (0, 1, 0)),
            StateTerm((j, i), 0.5, (0, 1, 0)), StateTerm((j, j), -0.5, (0, 2, 0)),
            StateTerm((i, i), 0.5, (1, 0, 0)), StateTerm((i, j), 0.5, (1, 1, 0)),
            StateTerm((j, i), -0.5, (1, 1, 0)), StateTerm((j, j), -0.5, (1, 2, 0))) + kk
    return psi1, psi2


def _build_a5(indices, d, variant: bool):
    i, j = indices
    if i == j:
        raise ValueError("A5 needs two distinct indices")
    psi1, psi2 = _a5_branches(i, j, d)
    if variant:
        branches = ((0.5, psi1), (0.5, psi2))
        target = 0.25 * (_ketbra(d, j, i, i, i) - _ketbra(d, j, j, i, j))
    else:
        branches = ((0.5, psi1), (-0.5, psi2))
        target = 0.25 * (_ketbra(d, i, j, i, i) - _ketbra(d, j, j, j, i))
    return (1, -1, 0), branches, target


# lemma id -> (builder, exactness threshold of the grid, default grid)
_LEMMAS = {
    "A1": (_build_a1, 3, 4),
    "A2": (_build_a2, 3, 4),
    "A3": (_build_a3, 4, 4),
    "A4": (_build_a4, 2, 3),
    "A5": (lambda indices, d: _build_a5(indices, d, variant=False), 4, 4),
    "A5-variant": (lambda indices, d: _build_a5(indices, d, variant=True), 4, 4),
}


def build_span_generator(lemma_id: str, indices, d: int) -> SpanGenerator:
    """Construct the generator family of one lemma instance.

    ``indices`` names the target pattern: a 4-tuple (ket and bra indices)
    for A1/A2/A3, a 1-tuple shift for A4, and an ordered pair for A5 and
    A5-variant.  Requires d large enough for the complement sums (d >= 2).
    """
    indices = tuple(int(v) for v in indices)
    if d < 2:
        raise ValueError("span generators need d >= 2")
    if any(v < 0 or v >= d for v in indices):
        raise ValueError(f"indices {indices} out of range for d = {d}")
    if lemma_id not in _LEMMAS:
        raise ValueError(f"unknown lemma id {lemma_id!r}")
    build, min_grid, default_grid = _LEMMAS[lemma_id]
    weight, branches, target = build(indices, d)
    return SpanGenerator(
        lemma_id=lemma_id, indices=indices, d=d, weight_degrees=weight,
        branches=branches, target=target, min_grid=min_grid,
        default_grid=default_grid)


def phase_average(gen: SpanGenerator, n: int | None = None) -> np.ndarray:
    """Discrete weighted average (1/n^p) sum_grid weight * |psi><psi|.

    Exact (equal to the continuous phase integral) whenever n is at least the
    generator's exactness threshold, because all integrands are Laurent
    polynomials of bounded degree.
    """
    return _phase_averages([gen], n)[0]


def _phase_averages(gens, n: int | None = None) -> np.ndarray:
    """``phase_average(gen, n)`` of generators of one lemma id, in one stacked pass.

    The states of every generator at every grid point come from one pass over
    the padded term tables, and the weighted outer products from one stacked
    product.
    """
    first = gens[0]
    n = first.default_grid if n is None else n
    if n < first.min_grid:
        raise ValueError(f"grid {n} below exactness threshold {first.min_grid} "
                         f"for {first.lemma_id}")
    p = first.phase_count
    grid = 2.0 * np.pi * np.arange(n) / n
    phases = grid[np.indices((n,) * p).reshape(p, -1).T]
    psi = _branch_states(gens, phases)
    weights = np.array([g.weight_degrees for g in gens], dtype=float)
    w = np.exp(1j * (weights @ phases.T))
    prods = np.swapaxes(w[:, None, :, None] * psi, -1, -2) @ psi.conj()
    bcs = np.array([[bc for bc, _ in g.branches] for g in gens])
    return (bcs[..., None, None] * prods).sum(axis=1) / float(n ** p)


def _lemma_blocks(gens):
    """Positions of the generators in blocks of one lemma id, each small
    enough that its states on the doubled default grid fit STACK_ENTRIES."""
    groups: dict = {}
    for i, gen in enumerate(gens):
        groups.setdefault(gen.lemma_id, []).append(i)
    for members in groups.values():
        first = gens[members[0]]
        size = len(first.branches) * (2 * first.default_grid) ** first.phase_count \
            * first.d ** 2
        step = max(1, STACK_ENTRIES // size)
        for start in range(0, len(members), step):
            yield members[start:start + step]


def scale_match_residual(avg: np.ndarray, target: np.ndarray):
    """Relative residual of avg against target after a positive rescale."""
    s = complex(np.vdot(target, avg) / np.vdot(target, target))
    resid = np.linalg.norm(avg - s * target) / max(np.linalg.norm(avg), 1e-300)
    return float(resid), s


def scaled_unitary_deviation(psi: np.ndarray, d: int) -> float:
    """How far the reshaped state is from a scaled unitary: ||MM^dag - c I|| / ||MM^dag||."""
    return float(_scaled_unitary_deviations(np.asarray(psi)[None], d)[0])


def _frobenius_rows(x: np.ndarray) -> np.ndarray:
    """``np.linalg.norm`` of each x[i], bit-for-bit: the same two dot products."""
    f = x.reshape(len(x), 1, -1)
    re, im = f.real, f.imag
    return np.sqrt((re @ np.swapaxes(re, 1, 2) + im @ np.swapaxes(im, 1, 2))[:, 0, 0])


def _scaled_unitary_deviations(psi: np.ndarray, d: int) -> np.ndarray:
    """``scaled_unitary_deviation`` of each row of the (states x d^2) array."""
    m = psi.reshape(-1, d, d)  # M[a, b] = psi[ab]
    g = m @ np.swapaxes(m.conj(), 1, 2)
    c = np.trace(g, axis1=1, axis2=2) / d
    return _frobenius_rows(g - c[:, None, None] * np.eye(d)) \
        / np.maximum(_frobenius_rows(g), 1e-300)


def enumerate_generators(d: int) -> list[SpanGenerator]:
    """All lemma instances at dimension d, in deterministic order."""
    gens = []
    rng = range(d)
    for i, j in itertools.permutations(rng, 2):
        gens.append(build_span_generator("A1", (i, i, j, j), d))
    for i, j in itertools.permutations(rng, 2):
        gens.append(build_span_generator("A1", (i, j, j, i), d))
    for tup in itertools.permutations(rng, 4):
        gens.append(build_span_generator("A2", tup, d))
    patterns = [lambda x, y, z: (x, x, y, z), lambda x, y, z: (x, y, y, z),
                lambda x, y, z: (x, y, x, z), lambda x, y, z: (x, y, z, y),
                lambda x, y, z: (x, y, z, z), lambda x, y, z: (x, y, z, x)]
    for pat in patterns:
        for x, y, z in itertools.permutations(rng, 3):
            gens.append(build_span_generator("A3", pat(x, y, z), d))
    for k in rng:
        gens.append(build_span_generator("A4", (k,), d))
    for i, j in itertools.permutations(rng, 2):
        gens.append(build_span_generator("A5", (i, j), d))
    for i, j in itertools.permutations(rng, 2):
        gens.append(build_span_generator("A5-variant", (i, j), d))
    return gens


def listed_operator_count(d: int) -> int:
    """Closed form d (d^3 - 3 d + 3) for the number of enumerated generators."""
    return d * (d ** 3 - 3 * d + 3)


def stated_list_operators(gens: list[SpanGenerator]) -> list[np.ndarray]:
    """The operator list as stated, from ``enumerate_generators``: the lone
    ket-bra of every A1-A3 instance (not the compensated A3 targets), and the
    A4/A5 targets."""
    return [_ketbra(g.d, *g.indices) if g.lemma_id in ("A1", "A2", "A3") else g.target
            for g in gens]


# --- span{J_U} in closed form ------------------------------------------------


def vec_kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a (x) b reordered to act on vec(A (x) B); a, b act on row-major vec(A), vec(B)."""
    k = round(a.shape[0] ** 0.5)
    # (i j i2 j2, ...) -> (i i2 j j2, ...) on each side, for k x k matrices A, B
    return np.kron(a, b).reshape((k,) * 8).transpose(0, 2, 1, 3, 4, 6, 5, 7) \
        .reshape(k ** 4, k ** 4)


def span_projector(d: int) -> np.ndarray:
    """Real orthogonal projector onto vec(span{J_U}) in row-major vec order.

    As an element of L(I) (x) L(O), span{J_U} is C.1 (+) (traceless (x)
    traceless), so the projector is Pi (x) Pi + Q (x) Q with Pi = |I><I|/d and
    Q = 1 - Pi on L(C^d).
    """
    vec_id = np.eye(d).reshape(-1)
    pi = np.outer(vec_id, vec_id) / d
    q = np.eye(d * d) - pi
    return vec_kron(pi, pi) + vec_kron(q, q)


def _span_residuals(mats, d: int) -> np.ndarray:
    """Frobenius distance from each d^2 x d^2 matrix (or d^4 vector) to span{J_U}."""
    x = np.asarray(mats)
    x = x.reshape(len(x), -1)
    return np.linalg.norm(x - x @ span_projector(d), axis=1)


def membership_residual(op, d: int) -> float:
    """Frobenius distance from op to span{J_U}."""
    mat = np.asarray(op, dtype=complex)
    if mat.shape != (d * d, d * d):
        raise ValueError(f"operator must be {d * d} x {d * d}")
    return float(_span_residuals([mat], d)[0])


def estimate_span_dimension(d: int, samples: int, seed: int = 0) -> int:
    """Numerical rank of the matrix of vectorized Haar-sampled J_U.

    Its singular values s count when s > sqrt(RANK_TOL) s_max, the rule
    w > RANK_TOL w_max on the eigenvalues w = s^2 of its Gram matrix, without
    squaring the condition number."""
    if d == 1:
        return 1
    if samples <= span_dimension_formula(d):
        raise ValueError(f"need more than {span_dimension_formula(d)} samples "
                         f"to resolve the span at d = {d}, got {samples}")
    # vec(J_U) = phi (x) conj(phi) with phi = vec(U^T), for all samples at once
    phi = np.swapaxes(haar_random_unitaries(d, samples, seed), 1, 2).reshape(samples, -1)
    vecs = (phi[:, :, None] * phi.conj()[:, None, :]).reshape(samples, -1)
    s = np.linalg.svd(vecs, compute_uv=False)
    return int(np.count_nonzero(s > np.sqrt(RANK_TOL) * s.max()))


def span_dimension_formula(d: int) -> int:
    return (d * d - 1) ** 2 + 1


# --- ket-bra grouping G1 / G2 / G3 -------------------------------------------


@dataclass(frozen=True)
class GroupElement:
    """One element of the G1/G2/G3 grouping, as a signed sum of ket-bras."""

    group_id: str
    d: int
    indices: tuple[int, ...]
    terms: tuple[tuple[float, tuple[int, int, int, int]], ...]

    @property
    def operator(self) -> np.ndarray:
        return _group_vectors([self], self.d).reshape(self.d ** 2, self.d ** 2)


def _group_vectors(elements, d: int) -> np.ndarray:
    """Row-major vec of each element's operator, (elements x d^4), from one
    scatter of all the terms."""
    rows, cols, coeffs = [], [], []
    for r, el in enumerate(elements):
        for coeff, (a, b, c, e) in el.terms:
            rows.append(r)
            cols.append(((a * d + b) * d + c) * d + e)
            coeffs.append(coeff)
    x = np.zeros((len(elements), d ** 4))
    np.add.at(x, (rows, cols), coeffs)
    return x


def _g1_index_tuples(d: int):
    rng = range(d)
    for tup in itertools.product(rng, repeat=4):
        i, j, i2, j2 = tup
        distinct = len(set(tup))
        if distinct == 4:
            yield tup
        elif distinct == 3:
            yield tup
        elif i == j and i2 == j2 and i != i2:
            yield tup
        elif i == j2 and j == i2 and i != j:
            yield tup


def build_group(group_id: str, d: int) -> list[GroupElement]:
    """Elements of one group; sizes follow the closed forms.

    |G1| = d(d-1)(d^2+d-4), |G2| = d, |G3| = 2d(d-1); G3' and G3'' are the
    two halves of G3 (available as ids "G3p" and "G3pp").
    """
    if d < 2:
        raise ValueError("groups need d >= 2")
    rng = range(d)
    out = []
    if group_id == "G1":
        for tup in _g1_index_tuples(d):
            out.append(GroupElement("G1", d, tup, ((1.0, tup),)))
    elif group_id == "G2":
        for k in rng:
            terms = tuple((1.0, (i, (i + k) % d, i, (i + k) % d)) for i in rng)
            out.append(GroupElement("G2", d, (k,), terms))
    elif group_id in ("G3", "G3p", "G3pp"):
        if group_id in ("G3", "G3p"):
            for i, j in itertools.permutations(rng, 2):
                terms = ((1.0, (i, j, i, i)), (-1.0, (j, j, j, i)))
                out.append(GroupElement("G3p", d, (i, j), terms))
        if group_id in ("G3", "G3pp"):
            for i, j in itertools.permutations(rng, 2):
                terms = ((1.0, (j, i, i, i)), (-1.0, (j, j, i, j)))
                out.append(GroupElement("G3pp", d, (i, j), terms))
    else:
        raise ValueError(f"unknown group id {group_id!r}")
    return out


def group_size_formulas(d: int) -> dict:
    return {"G1": d * (d - 1) * (d * d + d - 4), "G2": d, "G3": 2 * d * (d - 1)}


def verify_group_combinatorics(d: int) -> "CertificateReport":
    """Certify the group sizes, the covering identity |G1| + d|G2| + 2|G3| = d^4,
    and which elements lie in span{J_U}.

    Every G2 and G3 element lies in the span, and so does every G1 element
    except the 2d(d-1)(d-2) same-side lone ket-bras |ij><ik| and |ij><kj|.
    The membership checks see the signs of the G3 terms: flipping one leaves
    the span by a residual of at least 1.
    """
    timer = Timer()
    groups = {gid: build_group(gid, d) for gid in ("G1", "G2", "G3")}
    sizes = {gid: len(els) for gid, els in groups.items()}
    forms = group_size_formulas(d)
    checks = [check_exact_int(f"size_{gid}", sizes[gid], forms[gid])
              for gid in ("G1", "G2", "G3")]
    covered = sizes["G1"] + d * sizes["G2"] + 2 * sizes["G3"]
    checks.append(check_exact_int("covering_identity_d4", covered, d ** 4))
    checks.append(check_exact_int("halves_of_G3",
                                  len(build_group("G3p", d)) + len(build_group("G3pp", d)),
                                  sizes["G3"]))
    resid = _span_residuals(_group_vectors(
        groups["G1"] + groups["G2"] + groups["G3"], d), d)
    g1_resid = resid[:sizes["G1"]]
    outside = 2 * d * (d - 1) * (d - 2)
    checks += [
        check_leq("max_G2_G3_span_residual", nan_max(0.0, *resid[sizes["G1"]:]), 1e-9),
        check_exact_int("G1_outside_span_count",
                        int(np.count_nonzero(g1_resid > 0.1)), outside),
        check_exact_int("G1_inside_span_count",
                        int(np.count_nonzero(g1_resid <= 1e-9)), sizes["G1"] - outside),
    ]
    return make_report(f"group_combinatorics_d{d}", checks, timer)


def _same_side_lone_ketbras(d: int) -> list[np.ndarray]:
    ops = []
    for x, y, z in itertools.permutations(range(d), 3):
        ops.append(_ketbra(d, x, y, x, z))   # repeated input index
        ops.append(_ketbra(d, x, y, z, y))   # repeated output index
    return ops


def verify_span_lemmas(d: int, seed: int = 0) -> "CertificateReport":
    """Replay every generator family at dimension d.

    Checks: the discrete phase average reproduces each generator target after
    a positive rescale; doubling the grid does not change the average; every
    sampled state reshapes to a scaled unitary; every target lies in
    span{J_U}; the enumerated family count matches d(d^3 - 3d + 3); and the
    stated operator list has the expected stacked rank.
    """
    timer = Timer()
    gens = enumerate_generators(d)
    rng = np.random.default_rng(seed)

    worst_resid = 0.0
    worst_scale_im = 0.0
    neg_scale_re = -np.inf
    worst_double = 0.0
    worst_unitary = 0.0
    # three random phase rows per (generator, branch), drawn in generator order
    phases = [rng.uniform(0.0, 2 * np.pi, size=(len(g.branches), 3, g.phase_count))
              for g in gens]
    for block in _lemma_blocks(gens):
        sub = [gens[i] for i in block]
        n = sub[0].default_grid
        for gen, avg, doubled in zip(sub, _phase_averages(sub, n),
                                     _phase_averages(sub, 2 * n)):
            resid, s = scale_match_residual(avg, gen.target)
            worst_resid = nan_max(worst_resid, resid)
            worst_scale_im = nan_max(worst_scale_im, abs(s.imag))
            neg_scale_re = nan_max(neg_scale_re, -s.real)
            worst_double = nan_max(worst_double, frobenius(avg, doubled))
        states = _branch_states(sub, np.array([phases[i] for i in block]))
        worst_unitary = nan_max(worst_unitary, *_scaled_unitary_deviations(
            states.reshape(-1, d * d), d))
    worst_member = nan_max(0.0, *_span_residuals([g.target for g in gens], d))

    stacked = np.array([op.reshape(-1) for op in stated_list_operators(gens)])
    if not stacked.imag.any():  # the usual case: a real SVD costs far less
        stacked = stacked.real
    svals = np.linalg.svd(stacked, compute_uv=False)
    stacked_rank = int(np.count_nonzero(svals > RANK_TOL * svals[0]))

    checks = [
        check_leq("max_target_residual", worst_resid, 1e-10),
        check_leq("max_scale_imag", worst_scale_im, 1e-10),
        check_true("scales_positive", neg_scale_re < 0),
        check_leq("max_grid_doubling_change", worst_double, 1e-13),
        check_leq("max_scaled_unitary_deviation", worst_unitary, 1e-10),
        check_leq("max_target_span_residual", worst_member, 1e-9),
        check_exact_int("listed_item_count", len(gens), listed_operator_count(d)),
        check_true("stated_list_rank_below_span_dim",
                   stacked_rank < span_dimension_formula(d) or d == 2),
    ]
    notes = [f"stated_list_rank={stacked_rank}",
             f"span_dim={span_dimension_formula(d)}"]
    if d == 2:
        checks.append(check_exact_int("stated_list_rank_d2", stacked_rank, 10))
    else:
        lone = _same_side_lone_ketbras(d)
        min_lone = -nan_max(*(-_span_residuals(lone, d)))
        checks.append(check_true("same_side_lone_ketbras_outside_span",
                                 min_lone > 0.1))
        notes.append(f"lone_same_side_ketbras={len(lone)} "
                     f"min_residual={min_lone:.3f} (outside span; the phase "
                     "averages produce them only in compensated combinations)")
    return make_report(f"span_lemmas_d{d}", checks, timer, notes=notes)
