"""Numerical certificates for the uniqueness arguments and counterexamples.

Each certificate replays, at machine precision, the concrete identities a
uniqueness proof consumes: forced diagonal support, forced off-diagonal
values, exact combinatorial sums of the grouped ket-bra actions, and the
behaviour of the derived one-slot processes.  Certificates are deterministic
given (dimension, seed), check fixed numbers of Haar samples against fixed
bounds, and accept an optional process override so corrupted processes fail.
An override is a ``Process``, a weighted stack of vectors (a Hermitian
matrix is its eigenvectors weighted by its eigenvalues), read through
``Process.entry``, ``Process.nonzeros`` or ``unitary_actions``, never dense.
"""

from __future__ import annotations

import itertools

import numpy as np

from .channels import (
    PAULI,
    choi_from_kraus,
    compose_channels,
    flip_operator,
    fourier_matrix,
    haar_random_unitaries,
    standard_channel,
    unitary_choi,
)
from .linalg import (
    frobenius,
    frobenius_each,
    min_eigenvalue,
    numerical_rank,
)
from .report import (
    CertificateReport,
    Timer,
    check_close,
    check_exact_int,
    check_leq,
    check_true,
    make_report,
    nan_max,
)
from .span import GROUP_IDS, group_table
from .switch import (
    ACTION_TOL,
    Process,
    max_action_distance,
    switch_choi_vector,
    unitary_actions,
)

CP_GRID_POINTS = 101  # p values on [0, 1] at which C_p >= 0 is checked
CERT_TOL = 1e-12  # bound on the exact identities of the identity and diagonal certificates
IDENTITY_TRIALS = 20  # Haar samples of the identity certificate's action check
COROLLARY_TRIALS = 100  # Haar samples of each corollary's action check
CIRCUIT_TRIALS = 100  # Haar samples on which the two circuits must agree
CP_TRIALS = 50  # Haar samples of the C_p family's action check


def build_identity_process(d: int) -> Process:
    """The rank-1 process C0 = sum |ij><kl| (x) |ij><kl| acting as Lambda -> Lambda."""
    if d < 2:
        raise ValueError("identity process needs d >= 2")
    return Process(d, np.eye(d * d).reshape(-1))


def build_derived_one_slot(kind: str, d: int, a: np.ndarray | None = None,
                           b: np.ndarray | None = None) -> Process:
    """One-slot processes derived from C0 = |c><c| by a change of variables m.

    Each is the pure process of m c, i.e. m C0 m^dag; as c is vec(1) on
    (I O) x (P F), m c is read off in closed form, never building m:
    ``sandwich``: m = A_I (x) B_F realizes U -> B U A, and m c has the
    entries A[i, p] B[f, o] at (i, o, p, f).
    ``transpose``: m = F_IO realizes U -> U^T, and m c is vec(F).
    ``conjugate_qubit``: the Y,Y sandwich realizing qubit U -> U* (d = 2).
    """
    if d < 2:
        raise ValueError("derived processes need d >= 2")
    eye = np.eye(d, dtype=complex)
    if kind == "sandwich":
        if a is None or b is None:
            raise ValueError("sandwich needs the two fixed unitaries")
        a = np.asarray(a, dtype=complex)
        b = np.asarray(b, dtype=complex)
        for name, u in (("A", a), ("B", b)):
            if u.shape != (d, d) or frobenius(u.conj().T @ u, eye) > 1e-10:
                raise ValueError(f"{name} must be a {d} x {d} unitary")
        vec = a[:, None, :, None] * b.T[None, :, None, :]
    elif kind == "transpose":
        vec = flip_operator(d)
    elif kind == "conjugate_qubit":
        if d != 2:
            raise ValueError("conjugate_qubit is a qubit construction (d = 2)")
        return build_derived_one_slot("sandwich", 2, PAULI["y"], PAULI["y"])
    else:
        raise ValueError(f"unknown derived process kind {kind!r}")
    return Process(d, vec.reshape(-1))


def build_cp_family(p: float) -> Process:
    """Qubit process family C_p = M_p (x) phi+ with identical action on unitaries.

    M_p has 1 on the corners and p elsewhere; phi+ is the maximally entangled
    state (trace 1).  C_p is PSD for all p in [0, 1] and sends every J_U to a
    multiple of J_I; C_1 is rank 1, yet C_p != C_1 for p < 1.  C_p is the stack
    a (x) phi+, b (x) phi+ weighted (1 + p)/2, (1 - p)/2 (a, b = (1, +-1, +-1, 1)).
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    phi = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0)
    return Process(2, np.kron([[1, 1, 1, 1], [1, -1, -1, 1]], phi), ((1 + p) / 2, (1 - p) / 2))


def cp_factor_matrix(p: float) -> np.ndarray:
    return build_cp_family(p).op.entries.reshape(4, 4, 4, 4)[:, 0, :, 0] * 2.0


# --- identity-supermap certificate -------------------------------------------


def certify_identity_uniqueness(d: int, process: Process | None = None,
                                seed: int = 0) -> CertificateReport:
    """Replay the five concrete facts forcing C = C0 for the identity supermap.

    (i) each in-diagonal group sums to 1, (ii) Tr C = d^2, (iii) the swap and
    diagonal-pair off-diagonals equal 1, (iv) the diagonal support is exactly
    the d^2 doubled pairs (ij, ij), (v) the Fourier-channel witness has no
    zero entry and forces every surviving off-diagonal to 1 through the
    factorized matrix-element chain.  Also spot-checks the defining action
    J_U -> J_U on Haar samples.
    """
    timer = Timer()
    proc = process if process is not None else build_identity_process(d)
    n = d * d
    # C[(a, o), (b, p)] over input pairs a, b and output pairs o, p; diag[a, o]
    # is C[(a, o), (a, o)] and pair[r, c] is C[(r, r), (c, c)]
    diag = proc.entry(np.arange(proc.size), np.arange(proc.size)).real.reshape(n, n)
    doubled = np.arange(n) * (n + 1)
    pair = proc.entry(doubled[:, None], doubled[None, :])

    # (i) for every output pair, the in-diagonal sums to 1
    dev_i = float(np.abs(diag.sum(axis=0) - 1.0).max())
    # (ii)
    trace = float(diag.sum())
    # (iii) swap and diagonal-pair entries
    i, j = np.array(list(itertools.permutations(range(d), 2))).T
    dev_iii = nan_max(0.0, *np.abs(pair[i * d + j, j * d + i] - 1.0),
                      *np.abs(pair[i * d + i, j * d + j] - 1.0))
    # (iv) diagonal support is exactly {(ij, ij)}
    support_dev = float(np.abs(np.diag(diag) - 1.0).max())
    off_support = float(np.abs(diag - np.diag(np.diag(diag))).max())
    support_count = int(np.count_nonzero(np.abs(np.diag(diag) - 1.0) <= CERT_TOL))
    # (v) Fourier witness
    f = fourier_matrix(d)
    jf = unitary_choi(f)
    min_entry = float(np.abs(jf).min())
    out = unitary_actions(proc, f[None])[0]
    action_dev = frobenius(out, jf)
    chain_dev = float(np.abs(out - pair * jf).max())
    forced_dev = float(np.abs(pair - 1.0).max())
    # defining action on Haar samples
    action_haar = max_action_distance(
        proc, haar_random_unitaries(d, IDENTITY_TRIALS, seed), unitary_choi)

    checks = [
        check_leq("in_diagonal_group_sums_dev", dev_i, CERT_TOL),
        check_close("trace", trace, d * d, CERT_TOL),
        check_leq("swap_and_pair_offdiagonals_dev", dev_iii, CERT_TOL),
        check_leq("diagonal_support_dev", support_dev, CERT_TOL),
        check_leq("offsupport_diagonal_dev", off_support, CERT_TOL),
        check_exact_int("diagonal_support_count", support_count, d * d),
        check_close("fourier_min_entry_modulus", min_entry, 1.0 / d, 1e-12),
        check_leq("fourier_action_dev", action_dev, CERT_TOL),
        check_leq("factorized_chain_dev", chain_dev, CERT_TOL),
        check_leq("forced_offdiagonal_dev", forced_dev, CERT_TOL),
        check_leq("haar_action_dev", action_haar, 1e-10),
    ]
    return make_report(f"identity_uniqueness_d{d}", checks, timer,
                       notes=(f"trials={IDENTITY_TRIALS}",))


# --- switch diagonal certificate ----------------------------------------------


def _switch_tuples(i, j, k, kind: int) -> np.ndarray:
    """Support tuples of the switch vector as (n, 8) index rows in canonical
    order: |i j j k i k 00> for kind 0 and |i j k i k j 11> for kind 1."""
    c = np.full_like(i, kind)
    cols = (i, j, j, k, i, k) if kind == 0 else (i, j, k, i, k, j)
    return np.stack(cols + (c, c), axis=-1)


def diagonal_support_sets(d: int) -> dict:
    """The seven index families whose diagonal entries are forced to 1.

    Keys S1..S7; values are (n, 8) index arrays in canonical system order
    (I1, O1, I2, O2, PT, FT, PC, FC), the 2 d^3 support tuples split by
    which of i, j, k coincide.
    """
    i, j, k = np.indices((d, d, d)).reshape(3, -1)
    first, second = _switch_tuples(i, j, k, 0), _switch_tuples(i, j, k, 1)
    ij, jk, ki = i == j, j == k, k == i
    return {"S1": np.concatenate((first[~ij & ~jk], second[~ij & ~ki])),
            "S2": first[~ij & jk], "S3": second[~ij & ki],
            "S4": first[ij & ~jk], "S5": second[ij & ~jk],
            "S6": first[ij & jk], "S7": second[ij & jk]}


def _swap_families(x, y) -> list:
    """S2..S7 written as patterns of two index values x != y in (i, j, k)."""
    return [_switch_tuples(*ijk, kind) for kind, ijk in
            ((0, (x, y, y)), (1, (x, y, x)), (0, (x, x, y)),
             (1, (x, x, y)), (0, (x, x, x)), (1, (x, x, x)))]


def _switch_rows(d: int, a, b, c, e) -> np.ndarray:
    """Rows of the switch vector at slot kets |a b c e> on (I1, O1, I2, O2), by the
    closed form delta_bc |a e 00> + delta_ae |c b 11> on (PT, FT, PC, FC): not
    read from ``switch_choi_vector``, so that the certificate tests that vector."""
    rows = np.zeros((len(a), 4 * d * d))
    n = np.arange(len(a))
    rows[n, (a * d + e) * 4] = b == c
    rows[n, (c * d + b) * 4 + 3] = a == e
    return rows


def diagonal_certificate(d: int, process: Process | None = None) -> CertificateReport:
    """Replay the diagonal-forcing facts for the switch process matrix.

    Verifies the four displayed ket-bra actions, the unit value of every
    diagonal in the seven forced families (with their exact counts summing to
    2 d^3), the vanishing of every other diagonal, tightness of the 2 x 2
    principal-minor bounds on those families, and the 4 x 4 toy example whose
    diagonal is forced to (1, 0, 0, 1).  W is read through ``Process.entry``
    only, its diagonal too.
    """
    timer = Timer()
    if process is not None and process.d != d:
        raise ValueError("process dimension mismatch")
    proc = process if process is not None else Process(d, switch_choi_vector(d))
    dims, nout, flat = proc.dims, proc.nout, np.ravel_multi_index
    diag = proc.entry(np.arange(proc.size), np.arange(proc.size)).real

    # (i) the displayed ket-bra actions |ijkl><jilk|, |ijkk><jill|, |iikl><jjlk|,
    # |iikk><jjll| (i != j, k != l; s and t pick the case) against the row
    # formula, reading the output blocks W[(ket, .), (bra, .)] d(d - 1) at a time
    g = np.indices((d, d, d, d, 2, 2)).reshape(6, -1)
    i, j, k, l, s, t = g[:, (g[0] != g[1]) & (g[2] != g[3])]
    kets = (i, np.where(s, i, j), k, np.where(t, k, l))
    bras = (j, np.where(s, j, i), l, np.where(t, l, k))
    o = np.arange(nout)
    ket_at = flat(kets, dims[:4])[:, None, None] * nout + o[:, None]
    bra_at = flat(bras, dims[:4])[:, None, None] * nout + o
    ket_rows, bra_rows = _switch_rows(d, *kets), _switch_rows(d, *bras)
    step = d * (d - 1)
    action_dev = nan_max(0.0, *(float(np.abs(
        proc.entry(ket_at[m:m + step], bra_at[m:m + step])
        - ket_rows[m:m + step, :, None] * bra_rows[m:m + step, None, :]).max())
        for m in range(0, len(i), step)))

    # (ii) + (iii) forced diagonal families and their counts
    sets = diagonal_support_sets(d)
    members = flat(np.concatenate(list(sets.values())).T, dims)
    fam_dev = float(np.abs(proc.entry(members, members) - 1.0).max())
    support = np.flatnonzero(np.bincount(members))  # np.unique loads numpy.ma
    counts = [len(m) for m in sets.values()]  # S1..S7
    paired = (counts[0], counts[1] + counts[2], counts[3] + counts[4], counts[5] + counts[6])
    expected = (2 * d * (d - 1) ** 2, 2 * d * (d - 1), 2 * d * (d - 1), 2 * d)
    # every diagonal outside the families must vanish
    off_dev = float(np.abs(np.delete(diag, support)).max())
    sup_dev = float(np.abs(diag[support] - 1.0).max())

    # (iv) tight 2 x 2 principal minors: each first-kind S1 tuple with its
    # second-kind partner |j i k j k i 11>, each S2..S7 tuple with the one that
    # swaps its two index values
    i, j, k = np.indices((d, d, d)).reshape(3, -1)
    s1 = (i != j) & (j != k)
    x, y = np.array(list(itertools.permutations(range(d), 2))).T
    p = flat(np.concatenate([_switch_tuples(i, j, k, 0)[s1], *_swap_families(x, y)]).T, dims)
    q = flat(np.concatenate([_switch_tuples(j, i, k, 1)[s1], *_swap_families(y, x)]).T, dims)
    minor_cross_dev = float(np.abs(proc.entry(p, q) - 1.0).max())
    minor_prod_dev = float(np.abs(diag[p] * diag[q] - 1.0).max())

    # (v) the 4 x 4 demonstration: scan the constrained diagonals on a grid,
    # one value of a at a time
    grid = np.linspace(0.0, 2.0, 101)
    dd_, ee = np.meshgrid(grid, grid, indexing="ij")
    pts = []
    for ia, a in enumerate(grid):
        hh = 2.0 - a - dd_ - ee
        feasible = (hh >= -1e-12) & (a * hh >= 1.0 - 1e-12)
        pts += [(ia, *pt) for pt in np.argwhere(feasible)]
    forced_ok = (len(pts) == 1 and grid[pts[0][0]] == 1.0
                 and grid[pts[0][1]] == 0.0 and grid[pts[0][2]] == 0.0)
    forced = np.zeros((4, 4))
    forced[0, 0] = forced[0, 3] = forced[3, 0] = forced[3, 3] = 1.0
    forced_psd = min_eigenvalue(forced) >= -1e-12

    checks = [
        check_leq("displayed_action_dev", action_dev, CERT_TOL),
        check_leq("forced_diagonal_family_dev", fam_dev, CERT_TOL),
        check_exact_int("support_count", len(support), 2 * d ** 3),
        check_leq("offsupport_diagonal_dev", off_dev, CERT_TOL),
        check_leq("support_diagonal_dev", sup_dev, CERT_TOL),
        check_leq("minor_cross_dev", minor_cross_dev, CERT_TOL),
        check_leq("minor_product_dev", minor_prod_dev, CERT_TOL),
        check_true("family_counts_match",
                   paired == expected and sum(counts) == 2 * d ** 3),
        check_true("toy_forced_diagonal_unique", forced_ok),
        check_true("toy_forced_matrix_psd_trace2",
                   forced_psd and abs(np.trace(forced) - 2.0) == 0.0),
    ]
    notes = (f"family_counts={paired}",)
    return make_report(f"switch_diagonal_d{d}", checks, timer, notes=notes)


# --- switch off-diagonal certificate (grouped 1-norm sums) ---------------------


def grouped_sum_formulas(d: int) -> dict:
    """Closed forms for sum_(J in Ga x Gb) ||Tr_in W0 J^t||_1, a <= b."""
    return {
        ("G1", "G1"): 2 * d * (d - 1) * (2 * d ** 4 + 2 * d ** 3 - 18 * d ** 2 + 11 * d + 8),
        ("G1", "G2"): 2 * d * (d - 1) * (2 * d * d - d - 4),
        ("G2", "G2"): 2 * d * d * (d + 1),
        ("G1", "G3"): 4 * d * (d - 1) * (4 * d * d - 5 * d - 2),
        ("G2", "G3"): 4 * d * (d - 1) * (d + 2),
        ("G3", "G3"): 16 * d * d * (d - 1),
    }


def _grouped_sums(proc: Process) -> tuple[dict, float]:
    """Sums of output 1-norms over the nine ordered group pairs, in one pass.

    The group elements partition the d^4 slot ket-bras, so each nonzero of W
    adds its value times the coefficients of its two slot ket-bras to one
    output entry of exactly one element pair.  Returns the integer sum per
    ordered group pair and the largest deviation of the accumulated entries
    from integers (NaN if one is not finite or too large to tell).
    """
    n, nout = proc.d ** 2, proc.nout
    element, coeff, group, _ = group_table(proc.d)  # per slot ket-bra |ab><ce|
    rows, cols, vals = proc.nonzeros()
    r1, r2, o = np.unravel_index(rows, (n, n, nout))
    c1, c2, p = np.unravel_index(cols, (n, n, nout))
    k1, k2 = r1 * n + c1, r2 * n + c2
    shape = (len(group), len(group), nout, nout)
    keys, at = np.unique(np.ravel_multi_index((element[k1], element[k2], o, p), shape),
                         return_inverse=True)
    terms = coeff[k1] * coeff[k2] * vals
    av = np.abs(np.bincount(at, terms.real, len(keys))
                + 1j * np.bincount(at, terms.imag, len(keys)))

    ok = av < 2.0 ** 53  # False for inf/NaN, or too large to tell integrality
    nearest = np.rint(av[ok])
    nonint = float(np.abs(av[ok] - nearest).max(initial=0.0)) if ok.all() else np.nan
    ga, gb = np.take(group, np.unravel_index(keys[ok], shape)[:2])
    pair = ga * len(GROUP_IDS) + gb
    sums = {ab: sum(nearest[pair == i].astype(np.int64).tolist())
            for i, ab in enumerate(itertools.product(GROUP_IDS, repeat=2))}
    return sums, nonint


def offdiagonal_certificate(d: int, process: Process | None = None) -> CertificateReport:
    """Exact integer reproduction of the six grouped 1-norm sums.

    Reads the nonzero entries of the process once (for the rank-1 switch,
    products of two entries of its vector), accumulates them into the output
    entries of every ordered pair of group elements, and compares each
    unordered sum with its closed form; the ordered total must saturate the
    (2 d^3)^2 bound on the entrywise 1-norm.
    """
    if not 2 <= d <= 4:
        raise ValueError("group-sum enumeration is supported for 2 <= d <= 4")
    if process is not None and process.d != d:
        raise ValueError("process dimension mismatch")
    timer = Timer()
    proc = process if process is not None else Process(d, switch_choi_vector(d))
    sums, nonint = _grouped_sums(proc)
    forms = grouped_sum_formulas(d)
    checks = [check_leq("entries_integer_dev", nonint, 1e-12)]
    for (a, b), target in forms.items():
        checks.append(check_exact_int(f"sum_{a}x{b}", sums[(a, b)], target))
    sym_dev = max(abs(sums[(a, b)] - sums[(b, a)])
                  for a, b in itertools.combinations(GROUP_IDS, 2))
    checks.append(check_exact_int("ordered_pair_symmetry_dev", sym_dev, 0))
    ordered_total = sum(sums.values())
    unordered_total = sum(forms.values())
    checks.append(check_exact_int("ordered_total_saturates_bound",
                                  ordered_total, (2 * d ** 3) ** 2))
    notes = (f"ordered_total={ordered_total}", f"unordered_total={unordered_total}")
    return make_report(f"switch_offdiagonal_d{d}", checks, timer, notes=notes)


# --- corollaries: sandwich, transpose, conjugation ------------------------------


def verify_corollary(kind: str, d: int, seed,
                     a: np.ndarray | None = None, b: np.ndarray | None = None,
                     process: Process | None = None) -> CertificateReport:
    """Check a derived one-slot process acts correctly on unitaries and beyond.

    On COROLLARY_TRIALS Haar samples the process must send J_U to the Choi
    operator of B U A, U^T, or U* respectively; on the non-unitary replace
    channel it must land exactly on the claimed unique extension, computed
    by an independent composition (or flip conjugation) oracle.
    ``conjugate_qubit`` is the sandwich with A = B = Y, since Y U Y = U* for
    every qubit unitary.
    """
    timer = Timer()
    if kind == "sandwich" and (a is None or b is None):
        raise ValueError("sandwich needs the two fixed unitaries")
    proc = process if process is not None else build_derived_one_slot(kind, d, a, b)
    if kind == "conjugate_qubit":
        a = b = PAULI["y"]

    worst = max_action_distance(
        proc, haar_random_unitaries(d, COROLLARY_TRIALS, seed),
        lambda us: unitary_choi(np.swapaxes(us, 1, 2) if kind == "transpose" else b @ us @ a))

    replace = standard_channel("replace_zero", d)
    jlam = choi_from_kraus(replace)
    # summed one Kraus operator at a time: a stacked call holds all d outputs at once
    got = sum(unitary_actions(proc, k[None])[0] for k in replace)
    if kind == "transpose":
        f = flip_operator(d)
        want = f @ jlam @ f
    else:
        want = compose_channels(unitary_choi(b), compose_channels(jlam, unitary_choi(a)))
    extension_dev = frobenius(got, want)

    checks = [
        check_leq("max_haar_distance", worst, ACTION_TOL),
        check_leq("replace_channel_extension_dev", extension_dev, 1e-12),
    ]
    notes = [f"trials={COROLLARY_TRIALS}"]
    if kind == "conjugate_qubit":
        # Y |0><0| Y = |1><1|: the conjugated replace channel replaces with |1>
        one = np.zeros((2, 2), dtype=complex)
        one[1, 1] = 1.0
        checks.append(check_leq("replace_target_is_one_projector",
                                frobenius(got, np.kron(np.eye(2), one)), 1e-12))
    return make_report(f"corollary_{kind}_d{d}", checks, timer, notes=tuple(notes))


# --- counterexamples -------------------------------------------------------------


def fig_circuits_certificate(seed: int = 0) -> CertificateReport:
    """Two circuits equal on every unitary yet different on a non-unital channel.

    Circuit 1 is D . M . D and circuit 2 is id . M . D for the qubit
    depolarizing channel D.  Both send every unitary to D, checked on
    CIRCUIT_TRIALS Haar samples; on the replace channel they differ, with
    output Choi distance ||I (x) (I/2 - |0><0|)||_F.
    """
    timer = Timer()
    jd = choi_from_kraus(standard_channel("depolarizing", 2))

    ju = unitary_choi(haar_random_unitaries(2, CIRCUIT_TRIALS, seed))
    worst1 = nan_max(0.0, *frobenius_each(compose_channels(jd, compose_channels(ju, jd)), jd))
    worst2 = nan_max(0.0, *frobenius_each(compose_channels(ju, jd), jd))

    jlam = choi_from_kraus(standard_channel("replace_zero", 2))
    out1 = compose_channels(jd, compose_channels(jlam, jd))
    out2 = compose_channels(jlam, jd)
    dist = frobenius(out1, out2)
    # independent oracle for the gap: I (x) (I/2 - |0><0|)
    gap = np.kron(np.eye(2), np.eye(2) / 2 - np.diag([1.0, 0.0]))
    oracle = float(np.linalg.norm(gap))

    checks = [
        check_leq("circuit1_unitary_dev", worst1, 1e-10),
        check_leq("circuit2_unitary_dev", worst2, 1e-10),
        check_leq("circuit1_replace_is_depolarizing", frobenius(out1, jd), 1e-12),
        check_leq("circuit2_replace_is_replace", frobenius(out2, jlam), 1e-12),
        check_close("replace_output_distance", dist, oracle, 1e-10),
    ]
    return make_report("equal_on_unitaries_circuits", checks, timer,
                       notes=(f"trials={CIRCUIT_TRIALS}", f"oracle_distance={oracle!r}"))


def cp_family_certificate(seed: int = 0) -> CertificateReport:
    """Non-uniqueness witness: the C_p family shares its action on all unitaries.

    Checks C_p >= 0 across the p grid, rank(C_1) = 1, that each of CP_TRIALS
    Haar unitaries is sent to a multiple of J_I, and that the action is
    independent of p even though C_p varies; the proportionality constant itself depends on
    the unitary (it vanishes for Pauli Z), so rank-1 extensions need not be
    unique.
    """
    timer = Timer()
    ps = np.linspace(0.0, 1.0, CP_GRID_POINTS)
    neg_eig = nan_max(*(-min_eigenvalue(build_cp_family(p).op) for p in ps))
    rank_c1 = numerical_rank(build_cp_family(1.0).op)

    jid = unitary_choi(np.eye(2))
    jid_hat = jid / frobenius(jid)
    us = haar_random_unitaries(2, CP_TRIALS, seed)
    # outs[k, t] is the output of the k-th C_p on the t-th unitary
    outs = np.array([unitary_actions(build_cp_family(p), us)
                     for p in (0.0, 0.25, 0.5, 0.75, 1.0)])
    coeffs = outs.reshape(outs.shape[:2] + (-1,)) @ jid_hat.conj().reshape(-1)
    prop_dev = nan_max(0.0, *frobenius_each(outs, coeffs[..., None, None] * jid_hat).ravel())
    p_dev = nan_max(0.0, *frobenius_each(outs[1:], outs[0]).ravel())
    spread = float(np.ptp(coeffs[0].real))

    eig_dev = 0.0
    for p in (0.0, 0.3, 1.0):
        w = np.linalg.eigvalsh(cp_factor_matrix(p))[::-1]
        eig_dev = nan_max(eig_dev, np.abs(w - np.array([2 + 2 * p, 2 - 2 * p, 0, 0])).max())

    checks = [
        check_leq("min_eigenvalue_over_grid", neg_eig, 1e-12),
        check_exact_int("rank_c1", rank_c1, 1),
        check_leq("output_proportional_to_identity_choi", prop_dev, 1e-10),
        check_leq("action_p_independence_dev", p_dev, 1e-10),
        check_leq("factor_eigenvalue_dev", eig_dev, 1e-12),
        check_true("constant_depends_on_unitary", spread > 0.1),
    ]
    notes = (f"grid_points={CP_GRID_POINTS}", f"trials={CP_TRIALS}",
             f"constant_spread={spread:.3f}")
    return make_report("cp_family_nonuniqueness", checks, timer, notes=notes)
