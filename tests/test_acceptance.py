"""End-to-end acceptance suite.

Each test exercises one acceptance criterion at its stated tolerance and
prints a single PASS/FAIL line (run with ``pytest -s`` to see them inline).
"""

import numpy as np
import pytest

from switchcert import cli
from switchcert.channels import choi_from_kraus, haar_random_unitary
from switchcert.linalg import frobenius, numerical_rank
from switchcert.probe import alternating_projection_probe, build_constraint_system
from switchcert.span import (
    estimate_span_dimension,
    span_dimension_formula,
    verify_group_combinatorics,
    verify_span_lemmas,
)
from switchcert.switch import build_switch_choi, verify_unitary_action
from switchcert.uniqueness import (
    build_cp_family,
    certify_identity_uniqueness,
    cp_family_certificate,
    diagonal_certificate,
    fig_circuits_certificate,
    offdiagonal_certificate,
    verify_corollary,
)

from oracles import apply_two_slot, random_kraus_channel, switch_kraus_output

SEED = 2024


def announce(num, ok, detail):
    print(f"ACCEPTANCE {num:02d} [{'PASS' if ok else 'FAIL'}] {detail}")
    assert ok, detail


def test_criterion_01_switch_on_unitaries():
    rep2 = verify_unitary_action(2, seed=SEED)
    rep3 = verify_unitary_action(3, seed=SEED)
    worst = max(rep2.check("max_frobenius_distance").measured,
                rep3.check("max_frobenius_distance").measured)
    announce(1, rep2.passed and rep3.passed,
             f"controlled-order action on Haar pairs, max distance {worst:.2e} <= 1e-9")


def test_criterion_02_kraus_choi_route_equivalence():
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for d in (2, 3):
        proc = build_switch_choi(d)
        pairs = [[random_kraus_channel(d, int(rng.integers(1, d * d + 1)), rng)
                  for _ in range(2)] for _ in range(100)]
        chois = np.array([[choi_from_kraus(k) for k in pair] for pair in pairs])
        # the 100 pairs' Choi routes in one contraction
        via_choi = apply_two_slot(proc, chois[:, 0], chois[:, 1])
        for out, (ka, kb) in zip(via_choi, pairs):
            worst = max(worst, frobenius(out, switch_kraus_output(ka, kb)))
    announce(2, worst <= 1e-9,
             f"Kraus vs Choi route on 100 CPTP pairs per d in (2,3): {worst:.2e} <= 1e-9")


def test_criterion_03_span_dimension():
    got2 = estimate_span_dimension(2, 60, seed=SEED)
    got3 = estimate_span_dimension(3, 200, seed=SEED)
    ok = got2 == span_dimension_formula(2) == 10 and \
        got3 == span_dimension_formula(3) == 65
    announce(3, ok, f"span dimensions: d=2 -> {got2} (want 10), d=3 -> {got3} (want 65)")


def test_criterion_04_span_generator_families():
    reports = [verify_span_lemmas(d, seed=SEED) for d in (2, 3, 4)]
    worst_resid = max(r.check("max_target_residual").measured for r in reports)
    worst_double = max(r.check("max_grid_doubling_change").measured for r in reports)
    ok = all(r.passed for r in reports)
    announce(4, ok, "generator families at d=2,3,4: residual "
                    f"{worst_resid:.2e} <= 1e-10, grid doubling {worst_double:.2e} <= 1e-13")


def test_criterion_05_group_combinatorics():
    reports = [verify_group_combinatorics(d) for d in (2, 3, 4)]
    announce(5, all(r.passed for r in reports),
             "group sizes and covering identity |G1| + d|G2| + 2|G3| = d^4 at d=2,3,4")


def test_criterion_06_grouped_sum_closed_forms():
    rep2 = offdiagonal_certificate(2)
    rep3 = offdiagonal_certificate(3)
    got2 = tuple(int(rep2.check(f"sum_{a}x{b}").measured)
                 for a, b in (("G1", "G1"), ("G1", "G2"), ("G2", "G2"),
                              ("G1", "G3"), ("G2", "G3"), ("G3", "G3")))
    got3 = tuple(int(rep3.check(f"sum_{a}x{b}").measured)
                 for a, b in (("G1", "G1"), ("G1", "G2"), ("G2", "G2"),
                              ("G1", "G3"), ("G2", "G3"), ("G3", "G3")))
    ok = (rep2.passed and rep3.passed
          and got2 == (24, 8, 24, 32, 32, 64)
          and got3 == (1140, 132, 72, 456, 120, 288)
          and rep2.check("ordered_total_saturates_bound").measured == 256
          and rep3.check("ordered_total_saturates_bound").measured == 2916)
    announce(6, ok, f"grouped 1-norm sums exact: d=2 {got2}, d=3 {got3}, "
                    "ordered totals 256 / 2916")


def test_criterion_07_diagonal_support():
    oks = []
    for d in (2, 3):
        rep = diagonal_certificate(d)
        oks.append(rep.passed
                   and rep.check("support_count").measured == 2 * d ** 3
                   and rep.check("family_counts_match").passed
                   and rep.check("displayed_action_dev").measured == 0.0
                   and rep.check("toy_forced_diagonal_unique").passed)
    announce(7, all(oks), "diagonal support 2d^3 with family counts, displayed "
                          "ket-bra actions exact, 4x4 toy forced to (1,0,0,1)")


def test_criterion_08_identity_supermap():
    reports = [certify_identity_uniqueness(d, seed=SEED) for d in (2, 3)]
    fourier_ok = all(r.check("fourier_min_entry_modulus").passed for r in reports)
    announce(8, all(r.passed for r in reports) and fourier_ok,
             "identity-supermap replay at d=2,3 incl. zero-free Fourier witness")


def test_criterion_09_corollaries():
    a = haar_random_unitary(2, SEED + 1)
    b = haar_random_unitary(2, SEED + 2)
    reports = [
        verify_corollary("transpose", 2, seed=SEED),
        verify_corollary("transpose", 3, seed=SEED),
        verify_corollary("conjugate_qubit", 2, seed=SEED),
        verify_corollary("sandwich", 2, seed=SEED, a=a, b=b),
    ]
    worst = max(r.check("max_haar_distance").measured for r in reports)
    ext = max(r.check("replace_channel_extension_dev").measured for r in reports)
    announce(9, all(r.passed for r in reports),
             f"derived one-slot processes: Haar distance {worst:.2e} <= 1e-9, "
             f"replace-channel extension {ext:.2e} exact")


def test_criterion_10_counterexamples():
    fig = fig_circuits_certificate(seed=SEED)
    # oracle for the output gap, computed directly from its defining expression
    oracle = float(np.linalg.norm(
        np.kron(np.eye(2), np.eye(2) / 2 - np.diag([1.0, 0.0]))))
    dist_ok = abs(fig.check("replace_output_distance").measured - oracle) <= 1e-10

    cp = cp_family_certificate(seed=SEED)
    grid_ok = cp.check("min_eigenvalue_over_grid").passed
    prop_ok = cp.check("output_proportional_to_identity_choi").passed
    rank_ok = numerical_rank(build_cp_family(1.0).op) == 1
    ok = fig.passed and dist_ok and cp.passed and grid_ok and prop_ok and rank_ok
    announce(10, ok, "circuits agree on unitaries, split on the replace channel "
                     f"by {oracle!r}; C_p PSD on 101-grid, outputs prop. to J_I, "
                     "rank(C_1) = 1")


def test_criterion_11_probe():
    reports = []
    sys_id2 = build_constraint_system("identity", 2)
    reports.append(alternating_projection_probe(sys_id2, starts=20, seed=SEED))
    sys_id3 = build_constraint_system("identity", 3)
    reports.append(alternating_projection_probe(sys_id3, starts=10, seed=SEED))
    sys_sw = build_constraint_system("switch", 2)
    reports.append(alternating_projection_probe(sys_sw, starts=10, seed=SEED))
    conv = max(r.check("max_distance_to_reference").measured for r in reports)

    sys_cp = build_constraint_system("cp_family", 2)
    cp = alternating_projection_probe(sys_cp, starts=10, seed=SEED)
    ok = all(r.passed for r in reports) and cp.passed
    announce(11, ok, f"projection probe: uniqueness runs within {conv:.2e} <= 1e-6; "
                     "non-uniqueness witness >= 0.1 found for the C_p system")


@pytest.mark.parametrize("subcommand", [
    "identity-verify", "span-verify", "corollary-verify", "counterexamples",
    "probe", "switch-verify", "all",
])
def test_criterion_12_deterministic_reports(tmp_path, subcommand):
    args = [subcommand, "--dim", "2", "--seed", "5", "--format", "json",
            "--no-timestamp", "--probe-starts", "2"]
    first = tmp_path / "first.json"
    second = tmp_path / "second.json"
    assert cli.main(args + ["--out", str(first)]) == 0
    assert cli.main(args + ["--out", str(second)]) == 0
    ok = first.read_bytes() == second.read_bytes()
    announce(12, ok, f"byte-identical JSON report for '{subcommand}' reruns")
