"""Constructive generators for span{J_U} and the ket-bra grouping G1/G2/G3.

Each generator samples an (unnormalized) maximally entangled state whose
reshaped matrix is a scaled unitary, so its outer product is a scaled
unitary-channel Choi operator.  Averaging the outer products against a
Fourier weight over a uniform phase grid reproduces the generator's target
operator exactly, because every integrand is a Laurent polynomial of small
degree in the phases; the grid average is summed in closed form from the
integer degrees, by the orthogonality of the grid's Fourier modes.

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

from .channels import SampleStream, haar_random_unitaries
from .linalg import RANK_TOL, frobenius, frobenius_each
from .report import Timer, check_exact_int, check_leq, check_true, make_report, nan_max

SQ2 = sqrt(2.0)
SAMPLE_BLOCK_ENTRIES = 2 ** 18  # sample-matrix entries filled at once (2 MiB)


def _ketbras(d: int, *terms) -> np.ndarray:
    """sum coeff |ab><ce| on C^d (x) C^d over the (coeff, a, b, c, e) terms,
    which fill distinct entries, as one read-only array."""
    m = np.zeros((d * d, d * d), dtype=complex)
    for coeff, a, b, c, e in terms:
        m[a * d + b, c * d + e] = coeff
    m.flags.writeable = False
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
    outer products carry two branches).  The builders make ``target``
    read-only.
    """

    lemma_id: str
    indices: tuple[int, ...]
    d: int
    weight_degrees: tuple[int, ...]
    branches: tuple[tuple[complex, tuple[StateTerm, ...]], ...]
    target: np.ndarray

    @property
    def phase_count(self) -> int:
        return len(self.weight_degrees)


def _term_tables(gens):
    """Padded term tables of generators that share a phase and branch count.

    Returns the coefficients (G, B, T), the integer phase degrees (G, B, T, p)
    and the kets as one-hot rows (G, B, T, d^2); a padding term has
    coefficient 0 and an all-zero ket row.
    """
    d = gens[0].d
    shape = (len(gens), len(gens[0].branches),
             max(len(terms) for g in gens for _, terms in g.branches))
    coeffs = np.zeros(shape, dtype=complex)
    degrees = np.zeros(shape + (gens[0].phase_count,), dtype=np.int64)
    kets = np.zeros(shape + (d * d,))
    for g, gen in enumerate(gens):
        for b, (_, terms) in enumerate(gen.branches):
            for t, term in enumerate(terms):
                coeffs[g, b, t] = term.coeff
                degrees[g, b, t] = term.degrees
                kets[g, b, t, term.ket[0] * d + term.ket[1]] = 1.0
    return coeffs, degrees, kets


def _branch_states(gens, phases: np.ndarray, tables=None) -> np.ndarray:
    """States (G, B, S, d^2) of every generator branch at S phase points.

    ``phases`` is (S, phase_count), shared by all, or (G, B, S, phase_count).
    Each amplitude is coeff * exp(i phases . degrees); a product with the 0/1
    ket rows sums it into its ket, and multiplying by 0 or 1 is exact.
    ``tables`` are the term tables of ``gens``, built here if not given.
    """
    coeffs, degrees, kets = _term_tables(gens) if tables is None else tables
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
    target = _ketbras(d, (1.0, a, b, c, e))
    return (1, 0), ((1.0, tuple(terms)),), target


def _build_a2(indices, d):
    a, b, c, e = indices
    _validate_distinct(indices, 4, "A2")
    terms = [StateTerm((a, b), 1.0, (0, 0)), StateTerm((c, e), 1.0, (1, 0)),
             StateTerm((b, a), 1.0, (0, 1)), StateTerm((e, c), 1.0, (0, 1))]
    terms += _complement_diag(d, {a, b, c, e}, (0, 1))
    target = _ketbras(d, (1.0, a, b, c, e))
    return (1, 0), ((1.0, tuple(terms)),), target


def _a3_case1(i, j, k, d, adjoint):
    # state for |ii><jk| (or its adjoint |jk><ii| under the conjugate weight)
    terms = [StateTerm((i, i), 1.0, (0, 0)), StateTerm((j, k), 1.0, (1, 0)),
             StateTerm((k, j), 1.0, (0, 1))]
    terms += _complement_diag(d, {i, j, k}, (0, 1))
    target = _ketbras(d, (1.0, j, k, i, i) if adjoint else (1.0, i, i, j, k))
    return terms, target


def _a3_case2(i, j, k, d, adjoint):
    # state for |ij><jk| (or its adjoint |jk><ij|)
    terms = [StateTerm((i, j), 1.0, (0, 0)), StateTerm((j, k), 1.0, (1, 0)),
             StateTerm((k, i), 1.0, (0, 1))]
    terms += _complement_diag(d, {i, j, k}, (0, 1))
    target = _ketbras(d, (1.0, j, k, i, j) if adjoint else (1.0, i, j, j, k))
    return terms, target


def _a3_case3(i, j, k, d):
    # repeated index on the input side; the +/- factors carry 1/sqrt(2) so the
    # reshaped matrix stays exactly unitary
    terms = [StateTerm((i, j), 1 / SQ2, (0, 0)), StateTerm((i, k), 1 / SQ2, (1, 0)),
             StateTerm((j, j), 1 / SQ2, (0, 1)), StateTerm((j, k), -1 / SQ2, (1, 1)),
             StateTerm((k, i), 1.0, (0, 1))]
    terms += _complement_diag(d, {i, j, k}, (0, 1))
    target = _ketbras(d, (0.5, i, j, i, k), (-0.5, j, j, j, k), (-1 / SQ2, k, i, j, k),
                      *((-1 / SQ2, l, l, j, k) for l in range(d) if l not in (i, j, k)))
    return terms, target


def _a3_case4(i, j, k, d):
    # repeated index on the output side
    terms = [StateTerm((i, j), 1 / SQ2, (0, 0)), StateTerm((k, j), 1 / SQ2, (1, 0)),
             StateTerm((i, i), 1 / SQ2, (0, 1)), StateTerm((k, i), -1 / SQ2, (1, 1)),
             StateTerm((j, k), 1.0, (0, 1))]
    terms += _complement_diag(d, {i, j, k}, (0, 1))
    target = _ketbras(d, (0.5, i, j, k, j), (-0.5, i, i, k, i), (-1 / SQ2, j, k, k, i),
                      *((-1 / SQ2, l, l, k, i) for l in range(d) if l not in (i, j, k)))
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
    terms = [StateTerm((i, (i + k) % d), 1.0, tuple(1 if p == i else 0 for p in range(d)))
             for i in range(d)]
    target = _ketbras(d, *((1.0, i, (i + k) % d, i, (i + k) % d) for i in range(d)))
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
        target = _ketbras(d, (0.25, j, i, i, i), (-0.25, j, j, i, j))
    else:
        branches = ((0.5, psi1), (-0.5, psi2))
        target = _ketbras(d, (0.25, i, j, i, i), (-0.25, j, j, j, i))
    return (1, -1, 0), branches, target


# lemma id -> builder
_LEMMAS = {
    "A1": _build_a1,
    "A2": _build_a2,
    "A3": _build_a3,
    "A4": _build_a4,
    "A5": lambda indices, d: _build_a5(indices, d, variant=False),
    "A5-variant": lambda indices, d: _build_a5(indices, d, variant=True),
}
PHASE_GRID = 4  # points per phase of the averages the span lemmas replay, and then twice as many


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
    weight, branches, target = _LEMMAS[lemma_id](indices, d)
    return SpanGenerator(
        lemma_id=lemma_id, indices=indices, d=d, weight_degrees=weight,
        branches=branches, target=target)


def _phase_averages(gens, n: int, tables=None) -> np.ndarray:
    """Grid averages (1/n^p) sum_grid weight * |psi><psi| of generators of one
    lemma id, in closed form from their term ``tables`` (built if not given).

    A branch's weighted outer product sums c_t conj(c_t') |ket_t><ket_t'|
    exp(i m . theta) over its term pairs, with the integer vector
    m = weight + degrees_t - degrees_t'.  As (1/n) sum_k exp(2 pi i m k / n)
    = [n | m], the average is one masked product K^T pair K over the pairs
    with m = 0 mod n in every phase.  It is the phase integral once n exceeds
    every |m| of a pair with a nonzero coefficient, and a smaller n, which
    would alias some m to 0, is refused.
    """
    coeffs, degrees, kets = _term_tables(gens) if tables is None else tables
    weights = np.array([g.weight_degrees for g in gens])[:, None, None, None]
    bcs = np.array([[bc for bc, _ in g.branches] for g in gens])[..., None, None]
    m = weights + degrees[..., :, None, :] - degrees[..., None, :, :]
    pair = bcs * coeffs[..., :, None] * coeffs.conj()[..., None, :]
    degree = int(np.abs(m[pair != 0]).max(initial=0))
    if n <= degree:
        raise ValueError(f"grid {n} is not above the degree {degree} of {gens[0].lemma_id}")
    pair = pair * (m % n == 0).all(axis=-1)
    return (np.swapaxes(kets, -1, -2) @ pair @ kets).sum(axis=1)


def scale_match_residual(avg: np.ndarray, target: np.ndarray):
    """Relative residual of avg against target after a positive rescale."""
    s = complex(np.vdot(target, avg) / np.vdot(target, target))
    resid = frobenius(avg, s * target) / max(frobenius(avg), 1e-300)
    return resid, s


def _scaled_unitary_deviations(psi: np.ndarray, d: int) -> np.ndarray:
    """How far each row of the (states x d^2) array, reshaped to a d x d
    matrix M, is from a scaled unitary: ||MM^dag - c I|| / ||MM^dag||."""
    m = psi.reshape(-1, d, d)  # M[a, b] = psi[ab]
    g = m @ np.swapaxes(m.conj(), 1, 2)
    c = np.trace(g, axis1=1, axis2=2) / d
    return frobenius_each(g, c[:, None, None] * np.eye(d)) \
        / np.maximum(frobenius_each(g), 1e-300)


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
    return [_ketbras(g.d, (1.0, *g.indices)) if g.lemma_id in ("A1", "A2", "A3")
            else g.target
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
    """Frobenius distance from each d^2 x d^2 matrix (or d^4 vector) to span{J_U}.

    With the projector P of ``span_projector``, X - PX = A (x) 1 + 1 (x) B,
    where A and B are the traceless parts of Tr_O X / d and Tr_I X / d.  The
    two terms are orthogonal, so the distance is sqrt(d (||A||^2 + ||B||^2)),
    read off the partial traces without a d^4 x d^4 matrix.  Dividing by d
    last, not first, leaves the residual of every lemma target exactly 0 at
    d = 2..6.
    """
    x = np.asarray(mats)
    x = x.reshape((len(x),) + (d,) * 4)  # (n, I row, O row, I col, O col)
    parts = np.stack((np.trace(x, axis1=2, axis2=4),        # Tr_O X
                      np.trace(x, axis1=1, axis2=3)), axis=1)  # Tr_I X
    parts -= np.trace(parts, axis1=2, axis2=3)[..., None, None] / d * np.eye(d)
    return frobenius_each(parts.reshape(len(x), 2 * d, d)) / sqrt(d)


def estimate_span_dimension(d: int, samples: int, seed: int = 0) -> int:
    """Numerical rank of the matrix of vectorized Haar-sampled J_U.

    Each J_U = phi phi^dag (phi = vec(U^T)) is Hermitian, so it is written as
    its real isometric image: the diagonal |phi_i|^2, then sqrt2 Re and
    sqrt2 Im of phi_i conj(phi_j) for i < j.  The real rows have the same
    Gram matrix Tr(J_s J_t) as the complex vec(J_U), hence the same singular
    values, from a real SVD in place of a complex one.  They count when
    s > sqrt(RANK_TOL) s_max, the rule w > RANK_TOL w_max on the Gram
    eigenvalues w = s^2, without squaring the condition number.  Rows are drawn
    and filled SAMPLE_BLOCK_ENTRIES entries at a time, the bits of one draw."""
    if d == 1:
        return 1
    if samples <= span_dimension_formula(d):
        raise ValueError(f"need more than {span_dimension_formula(d)} samples "
                         f"to resolve the span at d = {d}, got {samples}")
    n, rng = d * d, SampleStream(seed)
    vecs = np.empty((samples, n * n))
    step = max(1, SAMPLE_BLOCK_ENTRIES // (n * n))
    for rows in (vecs[k:k + step] for k in range(0, samples, step)):
        phi = np.swapaxes(haar_random_unitaries(d, len(rows), rng), 1, 2).reshape(len(rows), -1)
        rows[:, :n] = np.abs(phi) ** 2
        col = n
        for i in range(n - 1):  # the entries right of the diagonal in row i
            h = SQ2 * phi[:, i, None] * phi[:, i + 1:].conj()
            k = h.shape[1]
            rows[:, col:col + k], rows[:, col + k:col + 2 * k] = h.real, h.imag
            col += 2 * k
    s = np.linalg.svd(vecs, compute_uv=False)
    return int(np.count_nonzero(s > np.sqrt(RANK_TOL) * s.max()))


def span_dimension_formula(d: int) -> int:
    return (d * d - 1) ** 2 + 1


# --- ket-bra grouping G1 / G2 / G3 -------------------------------------------


GROUP_IDS = ("G1", "G2", "G3")


def _ketbra_indices(d: int) -> np.ndarray:
    """(a, b, c, e) of every slot ket-bra |ab><ce|, (4, d^4) in row-major order."""
    return np.indices((d,) * 4).reshape(4, -1)


def group_table(d: int):
    """The G1/G2/G3 grouping as one partition of the d^4 slot ket-bras.

    Returns, per ket-bra in row-major (a, b, c, e) order, its element and
    coefficient, and per element its group (an index into GROUP_IDS) and its
    half of G3 (1 for G3', 2 for G3'', 0 outside G3).  Element k of G2 holds
    the ket-bras with a = c, b = e and k = (b - a) mod d; G3'(i, j) is
    +|ij><ii| - |jj><ji| and G3''(i, j) is +|ji><ii| - |jj><ij| for i != j;
    every other ket-bra is a G1 element of its own.  Elements are numbered
    G1 in ket-bra order, then G2 by k, then G3' and G3'' by (i, j).
    """
    if d < 2:
        raise ValueError("groups need d >= 2")
    n = d ** 4
    a, b, c, e = _ketbra_indices(d)
    key, coeff = np.arange(n), np.ones(n)
    group, half = np.zeros(n, dtype=np.int64), np.zeros(n, dtype=np.int64)
    g2 = (a == c) & (b == e)
    key[g2], group[g2] = n + (b - a)[g2] % d, 1
    # (half, sign, i, j, coincidence mask) of each of the four G3 term shapes
    for h, sign, i, j, same in ((1, 1.0, a, b, (a == c) & (a == e)),     # |ij><ii|
                                (1, -1.0, e, a, (a == b) & (a == c)),    # |jj><ji|
                                (2, 1.0, b, a, (b == c) & (b == e)),     # |ji><ii|
                                (2, -1.0, c, a, (a == b) & (a == e))):   # |jj><ij|
        m = same & (i != j)
        key[m] = (n + d + (h - 1) * d * d + i * d + j)[m]
        coeff[m], group[m], half[m] = sign, 2, h
    _, first, element = np.unique(key, return_index=True, return_inverse=True)
    return element, coeff, group[first], half[first]


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
    element, coeff, group, half = group_table(d)
    sizes = dict(zip(GROUP_IDS, np.bincount(group, minlength=len(GROUP_IDS)).tolist()))
    forms = group_size_formulas(d)
    checks = [check_exact_int(f"size_{gid}", sizes[gid], forms[gid])
              for gid in GROUP_IDS]
    covered = sizes["G1"] + d * sizes["G2"] + 2 * sizes["G3"]
    checks.append(check_exact_int("covering_identity_d4", covered, d ** 4))
    # G3' and G3'' split G3 evenly: twice the smaller half is all of G3
    checks.append(check_exact_int("halves_of_G3",
                                  2 * int(np.bincount(half, minlength=3)[1:].min()),
                                  sizes["G3"]))
    vectors = np.zeros((len(group), d ** 4))
    vectors[element, np.arange(d ** 4)] = coeff  # each ket-bra in one element
    resid = _span_residuals(vectors, d)
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
    rng = SampleStream(seed)

    worst_resid = 0.0
    worst_scale_im = 0.0
    neg_scale_re = -np.inf
    worst_double = 0.0
    worst_unitary = 0.0
    # three random phase rows per (generator, branch), drawn in generator order
    phases = [2 * np.pi * rng.uniform((len(g.branches), 3, g.phase_count)) for g in gens]
    groups: dict = {}
    for i, gen in enumerate(gens):
        groups.setdefault(gen.lemma_id, []).append(i)
    for group in groups.values():
        sub = [gens[i] for i in group]
        tables, n = _term_tables(sub), PHASE_GRID
        for gen, avg, doubled in zip(sub, _phase_averages(sub, n, tables),
                                     _phase_averages(sub, 2 * n, tables)):
            resid, s = scale_match_residual(avg, gen.target)
            worst_resid = nan_max(worst_resid, resid)
            worst_scale_im = nan_max(worst_scale_im, abs(s.imag))
            neg_scale_re = nan_max(neg_scale_re, -s.real)
            worst_double = nan_max(worst_double, frobenius(avg, doubled))
        states = _branch_states(sub, np.array([phases[i] for i in group]), tables)
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
        # |xy><xz| and |xy><zy| for distinct x, y, z: the one coincidence of
        # the indices is a repeated input (a = c) or output (b = e) index
        a, b, c, e = _ketbra_indices(d)
        repeats = sum(p == q for p, q in itertools.combinations((a, b, c, e), 2))
        lone = np.flatnonzero((repeats == 1) & ((a == c) | (b == e)))
        onehot = np.zeros((len(lone), d ** 4))
        onehot[np.arange(len(lone)), lone] = 1.0
        min_lone = -nan_max(*(-_span_residuals(onehot, d)))
        checks.append(check_true("same_side_lone_ketbras_outside_span",
                                 min_lone > 0.1))
        notes.append(f"lone_same_side_ketbras={len(lone)} "
                     f"min_residual={min_lone:.3f} (outside span; the phase "
                     "averages produce them only in compensated combinations)")
    return make_report(f"span_lemmas_d{d}", checks, timer, notes=notes)
