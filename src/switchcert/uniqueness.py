"""Numerical certificates for the uniqueness arguments and counterexamples.

Each certificate replays, at machine precision, the concrete identities a
uniqueness proof consumes: forced diagonal support, forced off-diagonal
values, exact combinatorial sums of the grouped ket-bra actions, and the
behaviour of the derived one-slot processes.  Certificates are deterministic
given (dimension, seed, tolerances) and accept an optional process override
so corrupted processes demonstrably fail.
"""

from __future__ import annotations

import itertools

import numpy as np

from .channels import (
    choi_from_kraus,
    compose_channels,
    flip_operator,
    fourier_matrix,
    haar_random_unitaries,
    standard_channel,
    unitary_choi,
)
from .linalg import (
    Operator,
    frobenius,
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
from .span import build_group
from .switch import (
    Process,
    apply_one_slot,
    switch_choi_vector,
    verify_unitary_action,
)

PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
CP_GRID_POINTS = 101  # p values on [0, 1] at which C_p >= 0 is checked


def build_identity_process(d: int) -> Process:
    """The rank-1 process C0 = sum |ij><kl| (x) |ij><kl| acting as Lambda -> Lambda."""
    if d < 2:
        raise ValueError("identity process needs d >= 2")
    return Process(d, vector=np.eye(d * d).reshape(-1))


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
        return build_derived_one_slot("sandwich", 2, PAULI_Y, PAULI_Y)
    else:
        raise ValueError(f"unknown derived process kind {kind!r}")
    return Process(d, vector=vec.reshape(-1))


def build_cp_family(p: float) -> Process:
    """Qubit process family C_p = M_p (x) phi+ with identical action on unitaries.

    M_p has 1 on the corners and p elsewhere; phi+ is the maximally entangled
    state (trace 1).  C_p is PSD for all p in [0, 1] and sends every J_U to a
    multiple of J_I; C_1 is rank 1, yet C_p != C_1 for p < 1.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    m = np.array([[1, p, p, 1],
                  [p, 1, 1, p],
                  [p, 1, 1, p],
                  [1, p, p, 1]], dtype=complex)
    phi = np.zeros(4, dtype=complex)
    phi[0] = phi[3] = 1.0 / np.sqrt(2.0)
    return Process(2, Operator(np.kron(m, np.outer(phi, phi.conj()))))


def cp_factor_matrix(p: float) -> np.ndarray:
    return build_cp_family(p).op.entries.reshape(4, 4, 4, 4)[:, 0, :, 0] * 2.0


# --- identity-supermap certificate -------------------------------------------


def certify_identity_uniqueness(d: int, process: Process | None = None,
                                seed: int = 0, tol: float = 1e-12,
                                trials: int = 20) -> CertificateReport:
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
    c4 = proc.op.entries.reshape(n, n, n, n)

    # (i) for every output pair, the in-diagonal sums to 1
    in_diag_sums = np.einsum("aoao->o", c4)
    dev_i = float(np.abs(in_diag_sums - 1.0).max())
    # (ii)
    trace = float(np.trace(proc.op.entries).real)
    # (iii) swap and diagonal-pair entries
    dev_iii = 0.0
    for i, j in itertools.permutations(range(d), 2):
        ij, ji, ii, jj = i * d + j, j * d + i, i * d + i, j * d + j
        dev_iii = nan_max(dev_iii, abs(c4[ij, ij, ji, ji] - 1.0),
                          abs(c4[ii, ii, jj, jj] - 1.0))
    # (iv) diagonal support is exactly {(ij, ij)}
    diag = np.einsum("aoao->ao", c4).real
    support_dev = float(np.abs(np.diag(diag) - 1.0).max())
    off_support = float(np.abs(diag - np.diag(np.diag(diag))).max())
    support_count = int(np.count_nonzero(np.abs(np.diag(diag) - 1.0) <= tol))
    # (v) Fourier witness
    jf = unitary_choi(fourier_matrix(d))
    min_entry = float(np.abs(jf).min())
    out = apply_one_slot(proc, jf)
    action_dev = frobenius(out, jf)
    pair = np.einsum("rrcc->rc", c4)
    chain_dev = float(np.abs(out - pair * jf).max())
    forced_dev = float(np.abs(pair - 1.0).max())
    # defining action on Haar samples
    action_haar = 0.0
    for u in haar_random_unitaries(d, trials, seed):
        ju = unitary_choi(u)
        action_haar = nan_max(action_haar, frobenius(apply_one_slot(proc, ju), ju))

    checks = [
        check_leq("in_diagonal_group_sums_dev", dev_i, tol),
        check_close("trace", trace, d * d, tol),
        check_leq("swap_and_pair_offdiagonals_dev", dev_iii, tol),
        check_leq("diagonal_support_dev", support_dev, tol),
        check_leq("offsupport_diagonal_dev", off_support, tol),
        check_exact_int("diagonal_support_count", support_count, d * d),
        check_close("fourier_min_entry_modulus", min_entry, 1.0 / d, 1e-12),
        check_leq("fourier_action_dev", action_dev, tol),
        check_leq("factorized_chain_dev", chain_dev, tol),
        check_leq("forced_offdiagonal_dev", forced_dev, tol),
        check_leq("haar_action_dev", action_haar, 1e-10),
    ]
    return make_report(f"identity_uniqueness_d{d}", checks, timer,
                       notes=(f"trials={trials}",))


# --- switch diagonal certificate ----------------------------------------------


def diagonal_support_sets(d: int) -> dict:
    """The seven index families whose diagonal entries are forced to 1.

    Keys S1..S7; values are lists of 8-tuples in canonical system order
    (I1, O1, I2, O2, PT, FT, PC, FC).
    """
    rng = range(d)
    sets = {name: [] for name in ("S1", "S2", "S3", "S4", "S5", "S6", "S7")}
    for i, k, l in itertools.product(rng, repeat=3):
        if i != k and k != l:
            sets["S1"].append((i, k, k, l, i, l, 0, 0))
    for i, j, k in itertools.product(rng, repeat=3):
        if i != j and k != i:
            sets["S1"].append((i, j, k, i, k, j, 1, 1))
    for i, j in itertools.permutations(rng, 2):
        sets["S2"].append((i, j, j, j, i, j, 0, 0))
        sets["S3"].append((i, j, i, i, i, j, 1, 1))
    for i, l in itertools.permutations(rng, 2):
        sets["S4"].append((i, i, i, l, i, l, 0, 0))
        sets["S5"].append((i, i, l, i, l, i, 1, 1))
    for i in rng:
        sets["S6"].append((i, i, i, i, i, i, 0, 0))
        sets["S7"].append((i, i, i, i, i, i, 1, 1))
    return sets


def _displayed_action(d: int, case: int, i: int, j: int, k: int, l: int) -> np.ndarray:
    """The four displayed ket-bra actions, built directly from their factored form."""
    n = 4 * d * d

    def e00(a, b):
        v = np.zeros(n)
        v[(a * d + b) * 4] = 1.0
        return v

    def e11(a, b):
        v = np.zeros(n)
        v[(a * d + b) * 4 + 3] = 1.0
        return v

    dlt = lambda a, b: 1.0 if a == b else 0.0
    if case == 1:    # |ijkl><jilk|
        left = dlt(j, k) * e00(i, l) + dlt(i, l) * e11(k, j)
        right = dlt(i, l) * e00(j, k) + dlt(j, k) * e11(l, i)
    elif case == 2:  # |ijkk><jill|
        left = dlt(j, k) * e00(i, k) + dlt(i, k) * e11(k, j)
        right = dlt(i, l) * e00(j, l) + dlt(j, l) * e11(l, i)
    elif case == 3:  # |iikl><jjlk|
        left = dlt(i, k) * e00(i, l) + dlt(i, l) * e11(k, i)
        right = dlt(j, l) * e00(j, k) + dlt(j, k) * e11(l, j)
    else:            # |iikk><jjll|
        left = dlt(i, k) * (e00(i, k) + e11(k, i))
        right = dlt(j, l) * (e00(j, l) + e11(l, j))
    return np.outer(left, right)


def _displayed_ketbra(case: int, i: int, j: int, k: int, l: int):
    if case == 1:
        return (i, j, k, l), (j, i, l, k)
    if case == 2:
        return (i, j, k, k), (j, i, l, l)
    if case == 3:
        return (i, i, k, l), (j, j, l, k)
    return (i, i, k, k), (j, j, l, l)


def diagonal_certificate(d: int, process: Process | None = None,
                         tol: float = 1e-12) -> CertificateReport:
    """Replay the diagonal-forcing facts for the switch process matrix.

    Verifies the four displayed ket-bra actions, the unit value of every
    diagonal in the seven forced families (with their exact counts summing to
    2 d^3), the vanishing of every other diagonal, tightness of the 2 x 2
    principal-minor bounds on those families, and the 4 x 4 toy example whose
    diagonal is forced to (1, 0, 0, 1).
    """
    timer = Timer()
    dims = (d, d, d, d, d, d, 2, 2)
    if process is not None and process.d != d:
        raise ValueError("process dimension mismatch")
    proc = process if process is not None else Process(d, vector=switch_choi_vector(d))

    flat = np.ravel_multi_index

    def action(ket, bra):
        return proc.block(flat(ket, dims[:4]), flat(bra, dims[:4]))

    def entry(idx_row, idx_col):
        return proc.entry(flat(idx_row, dims), flat(idx_col, dims))

    diag = proc.diagonal()

    # (i) displayed ket-bra actions against the process action
    action_dev = 0.0
    for case in (1, 2, 3, 4):
        for i, j in itertools.permutations(range(d), 2):
            for k, l in itertools.permutations(range(d), 2):
                ket, bra = _displayed_ketbra(case, i, j, k, l)
                action_dev = nan_max(action_dev, float(np.abs(
                    action(ket, bra) - _displayed_action(d, case, i, j, k, l)).max()))

    # (ii) + (iii) forced diagonal families and their counts
    sets = diagonal_support_sets(d)
    fam_dev = 0.0
    support = set()
    for members in sets.values():
        for idx in members:
            fam_dev = nan_max(fam_dev, abs(entry(idx, idx) - 1.0))
            support.add(flat(idx, dims))
    counts = {name: len(m) for name, m in sets.items()}
    paired = (counts["S1"], counts["S2"] + counts["S3"],
              counts["S4"] + counts["S5"], counts["S6"] + counts["S7"])
    expected = (2 * d * (d - 1) ** 2, 2 * d * (d - 1), 2 * d * (d - 1), 2 * d)
    # every diagonal outside the families must vanish
    mask = np.ones(len(diag), dtype=bool)
    mask[list(support)] = False
    off_dev = float(np.abs(diag[mask]).max())
    sup_dev = float(np.abs(diag[list(support)] - 1.0).max())

    # (iv) tight 2 x 2 principal minors on the paired families
    minor_cross_dev = 0.0
    minor_prod_dev = 0.0

    def minor(idx_a, idx_b):
        nonlocal minor_cross_dev, minor_prod_dev
        cross = entry(idx_a, idx_b)
        minor_cross_dev = nan_max(minor_cross_dev, abs(cross - 1.0))
        prod = entry(idx_a, idx_a).real * entry(idx_b, idx_b).real
        minor_prod_dev = nan_max(minor_prod_dev, abs(prod - 1.0))

    for i, k, l in itertools.product(range(d), repeat=3):
        if i != k and k != l:
            minor((i, k, k, l, i, l, 0, 0), (k, i, l, k, l, i, 1, 1))
    for i, k in itertools.permutations(range(d), 2):
        minor((i, k, k, k, i, k, 0, 0), (k, i, i, i, k, i, 0, 0))
        minor((k, i, k, k, k, i, 1, 1), (i, k, i, i, i, k, 1, 1))
        minor((i, i, i, k, i, k, 0, 0), (k, k, k, i, k, i, 0, 0))
        minor((i, i, k, i, k, i, 1, 1), (k, k, i, k, i, k, 1, 1))
    for a, b in itertools.permutations(range(d), 2):
        minor((a, a, a, a, a, a, 0, 0), (b, b, b, b, b, b, 0, 0))
        minor((a, a, a, a, a, a, 1, 1), (b, b, b, b, b, b, 1, 1))

    # (v) the 4 x 4 demonstration: scan the constrained diagonals on a grid
    grid = np.linspace(0.0, 2.0, 101)
    aa, dd_, ee = np.meshgrid(grid, grid, grid, indexing="ij")
    hh = 2.0 - aa - dd_ - ee
    feasible = (hh >= -1e-12) & (aa * hh >= 1.0 - 1e-12)
    pts = np.argwhere(feasible)
    forced_ok = (len(pts) == 1 and grid[pts[0][0]] == 1.0
                 and grid[pts[0][1]] == 0.0 and grid[pts[0][2]] == 0.0)
    forced = np.zeros((4, 4))
    forced[0, 0] = forced[0, 3] = forced[3, 0] = forced[3, 3] = 1.0
    forced_psd = min_eigenvalue(forced) >= -1e-12

    checks = [
        check_leq("displayed_action_dev", action_dev, tol),
        check_leq("forced_diagonal_family_dev", fam_dev, tol),
        check_exact_int("support_count", len(support), 2 * d ** 3),
        check_leq("offsupport_diagonal_dev", off_dev, tol),
        check_leq("support_diagonal_dev", sup_dev, tol),
        check_leq("minor_cross_dev", minor_cross_dev, tol),
        check_leq("minor_product_dev", minor_prod_dev, tol),
        check_true("family_counts_match",
                   paired == expected and sum(counts.values()) == 2 * d ** 3),
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


def _group_pair_sum(process: Process, ga, gb):
    """Brute-force sum of output 1-norms over one ordered group pair.

    Accumulates the nonzero output-block entries of the process over the
    ket-bra terms of each element pair.  Returns (integer sum, max deviation
    of the accumulated entries from integers).
    """
    d = process.d
    total = 0
    nonint = 0.0
    acc: dict = {}
    for ea in ga:
        for eb in gb:
            acc.clear()
            for ca, ta in ea.terms:
                for cb, tb in eb.terms:
                    row = (ta[0] * d + ta[1]) * d * d + tb[0] * d + tb[1]
                    col = (ta[2] * d + ta[3]) * d * d + tb[2] * d + tb[3]
                    coeff = ca * cb
                    for o, p, v in process.block_entries(row, col):
                        acc[(o, p)] = acc.get((o, p), 0.0) + coeff * v
            for v in acc.values():
                av = abs(v)
                if not av < 2.0 ** 53:  # inf/NaN, or too large to tell integrality
                    nonint = np.nan
                    continue
                nonint = nan_max(nonint, abs(av - round(av)))
                total += int(round(av))
    return total, nonint


def offdiagonal_certificate(d: int, process: Process | None = None) -> CertificateReport:
    """Exact integer reproduction of the six grouped 1-norm sums.

    Enumerates every ordered pair of group elements, reads the process
    action off the nonzero entries of its output blocks (for the rank-1
    switch, products of two rows of its vector), and compares each unordered
    sum with its closed form; the ordered total must saturate the (2 d^3)^2
    bound on the entrywise 1-norm.
    """
    if not 2 <= d <= 4:
        raise ValueError("group-sum enumeration is supported for 2 <= d <= 4")
    if process is not None and process.d != d:
        raise ValueError("process dimension mismatch")
    timer = Timer()
    proc = process if process is not None else Process(d, vector=switch_choi_vector(d))
    groups = {gid: build_group(gid, d) for gid in ("G1", "G2", "G3")}
    sums = {}
    nonint = 0.0
    for a, b in itertools.product(("G1", "G2", "G3"), repeat=2):
        s, ni = _group_pair_sum(proc, groups[a], groups[b])
        sums[(a, b)] = s
        nonint = nan_max(nonint, ni)
    forms = grouped_sum_formulas(d)
    checks = [check_leq("entries_integer_dev", nonint, 1e-12)]
    for (a, b), target in forms.items():
        checks.append(check_exact_int(f"sum_{a}x{b}", sums[(a, b)], target))
    sym_dev = max(abs(sums[(a, b)] - sums[(b, a)])
                  for a, b in itertools.combinations(("G1", "G2", "G3"), 2))
    checks.append(check_exact_int("ordered_pair_symmetry_dev", sym_dev, 0))
    ordered_total = sum(sums.values())
    unordered_total = sum(forms.values())
    checks.append(check_exact_int("ordered_total_saturates_bound",
                                  ordered_total, (2 * d ** 3) ** 2))
    notes = (f"ordered_total={ordered_total}", f"unordered_total={unordered_total}")
    return make_report(f"switch_offdiagonal_d{d}", checks, timer, notes=notes)


# --- corollaries: sandwich, transpose, conjugation ------------------------------


def verify_corollary(kind: str, d: int, trials: int, seed,
                     a: np.ndarray | None = None, b: np.ndarray | None = None,
                     process: Process | None = None,
                     tol: float = 1e-9) -> CertificateReport:
    """Check a derived one-slot process acts correctly on unitaries and beyond.

    On Haar samples the process must send J_U to the Choi operator of B U A,
    U^T, or U* respectively; on the non-unitary replace channel it must land
    exactly on the claimed unique extension, computed by an independent
    composition (or flip conjugation) oracle.  ``conjugate_qubit`` is the
    sandwich with A = B = Y, since Y U Y = U* for every qubit unitary.
    """
    timer = Timer()
    if kind == "sandwich" and (a is None or b is None):
        raise ValueError("sandwich needs the two fixed unitaries")
    proc = process if process is not None else build_derived_one_slot(kind, d, a, b)
    if kind == "conjugate_qubit":
        a = b = PAULI_Y

    worst = 0.0
    for u in haar_random_unitaries(d, trials, seed):
        target = unitary_choi(u.T if kind == "transpose" else b @ u @ a)
        worst = nan_max(worst, frobenius(apply_one_slot(proc, unitary_choi(u)), target))

    jlam = choi_from_kraus(standard_channel("replace_zero", d))
    got = apply_one_slot(proc, jlam)
    if kind == "transpose":
        f = flip_operator(d)
        want = f @ jlam @ f
    else:
        want = compose_channels(unitary_choi(b), compose_channels(jlam, unitary_choi(a)))
    extension_dev = frobenius(got, want)

    checks = [
        check_leq("max_haar_distance", worst, tol),
        check_leq("replace_channel_extension_dev", extension_dev, 1e-12),
    ]
    notes = [f"trials={trials}"]
    if kind == "conjugate_qubit":
        # Y |0><0| Y = |1><1|: the conjugated replace channel replaces with |1>
        one = np.zeros((2, 2), dtype=complex)
        one[1, 1] = 1.0
        checks.append(check_leq("replace_target_is_one_projector",
                                frobenius(got, np.kron(np.eye(2), one)), 1e-12))
    return make_report(f"corollary_{kind}_d{d}", checks, timer, notes=tuple(notes))


# --- counterexamples -------------------------------------------------------------


def fig_circuits_certificate(trials: int = 100, seed: int = 0) -> CertificateReport:
    """Two circuits equal on every unitary yet different on a non-unital channel.

    Circuit 1 is D . M . D and circuit 2 is id . M . D for the qubit
    depolarizing channel D.  Both send every unitary to D; on the replace
    channel they differ, with output Choi distance ||I (x) (I/2 - |0><0|)||_F.
    """
    timer = Timer()
    jd = choi_from_kraus(standard_channel("depolarizing", 2))

    worst1 = worst2 = 0.0
    for u in haar_random_unitaries(2, trials, seed):
        ju = unitary_choi(u)
        out1 = compose_channels(jd, compose_channels(ju, jd))
        out2 = compose_channels(ju, jd)
        worst1 = nan_max(worst1, frobenius(out1, jd))
        worst2 = nan_max(worst2, frobenius(out2, jd))

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
                       notes=(f"trials={trials}", f"oracle_distance={oracle!r}"))


def cp_family_certificate(trials: int = 50, seed: int = 0) -> CertificateReport:
    """Non-uniqueness witness: the C_p family shares its action on all unitaries.

    Checks C_p >= 0 across the p grid, rank(C_1) = 1, that every Haar unitary
    is sent to a multiple of J_I, and that the action is independent of p
    even though C_p varies; the proportionality constant itself depends on
    the unitary (it vanishes for Pauli Z), so rank-1 extensions need not be
    unique.
    """
    timer = Timer()
    ps = np.linspace(0.0, 1.0, CP_GRID_POINTS)
    neg_eig = nan_max(*(-min_eigenvalue(build_cp_family(p).op) for p in ps))
    rank_c1 = numerical_rank(build_cp_family(1.0).op, tol=1e-10)

    jid = unitary_choi(np.eye(2))
    jid_hat = jid / np.linalg.norm(jid)
    procs = [build_cp_family(p) for p in (0.0, 0.25, 0.5, 0.75, 1.0)]
    prop_dev = 0.0
    p_dev = 0.0
    consts = []
    for u in haar_random_unitaries(2, trials, seed):
        ju = unitary_choi(u)
        outs = [apply_one_slot(pr, ju) for pr in procs]
        for out in outs:
            coeff = np.vdot(jid_hat, out)
            prop_dev = nan_max(prop_dev, np.linalg.norm(out - coeff * jid_hat))
        for out in outs[1:]:
            p_dev = nan_max(p_dev, frobenius(out, outs[0]))
        consts.append(float(np.vdot(jid_hat, outs[0]).real))
    spread = float(np.ptp(consts))

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
    notes = (f"grid_points={CP_GRID_POINTS}", f"trials={trials}",
             f"constant_spread={spread:.3f}")
    return make_report("cp_family_nonuniqueness", checks, timer, notes=notes)


# --- aggregate switch certificate -------------------------------------------------


def switch_verification_suite(d: int, seed: int = 0, trials: int | None = None,
                              process: Process | None = None,
                              probe_starts: int = 10,
                              tol: float = 1e-9) -> list[CertificateReport]:
    """All switch certificates plus a final aggregate report.

    The alternating-projection probe runs at d = 2 only, where the dense
    switch process is 256 x 256; elsewhere it is skipped with a note.
    """
    from .probe import alternating_projection_probe, build_constraint_system
    from .span import verify_span_lemmas

    timer = Timer()
    if trials is None:
        trials = 200 if d == 2 else 100
    parts = [
        verify_unitary_action(d, trials=trials, seed=seed, process=process, tol=tol),
        verify_span_lemmas(d, seed=seed),
        diagonal_certificate(d, process=process),
        offdiagonal_certificate(d, process=process),
    ]
    notes = []
    if d == 2:
        sys = build_constraint_system("switch", d, process=process)
        parts.append(alternating_projection_probe(sys, starts=probe_starts, seed=seed))
    else:
        notes.append("probe skipped: the switch probe supports d = 2 only")
    checks = [check_true(part.name, part.passed) for part in parts]
    aggregate = make_report(f"switch_uniqueness_d{d}", checks, timer,
                            notes=tuple(notes))
    return parts + [aggregate]
