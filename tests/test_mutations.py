"""Deliberately broken variants of the program that a named certificate must reject."""

import numpy as np
import pytest

from switchcert import probe, span, switch, uniqueness
from switchcert.channels import haar_random_unitary
from switchcert.probe import alternating_projection_probe, build_constraint_system
from switchcert.span import verify_group_combinatorics
from switchcert.switch import Process, switch_choi_vector, verify_unitary_action
from switchcert.uniqueness import offdiagonal_certificate, verify_corollary

import test_probe


def test_flipped_g3_sign_fails_group_combinatorics(monkeypatch):
    group_table = span.group_table

    def flipped(d):
        element, coeff, group, half = group_table(d)
        first_g3 = np.flatnonzero(group == 2)[0]
        coeff = np.where((element == first_g3) & (coeff < 0), 1.0, coeff)
        return element, coeff, group, half

    assert verify_group_combinatorics(3).passed
    monkeypatch.setattr(span, "group_table", flipped)
    rep = verify_group_combinatorics(3)
    assert rep.name == "group_combinatorics_d3"
    assert not rep.passed
    assert rep.check("max_G2_G3_span_residual").measured >= 1.0
    assert [c.name for c in rep.checks if not c.passed] == ["max_G2_G3_span_residual"]


def test_pi_pi_only_slot_projector_fails_family_rank(monkeypatch):
    def pi_pi_only(d):  # drops the traceless (x) traceless part of span{J_U}
        return ((), -1.0), ((0, 1), 1 / d ** 2)  # X -> X - X + Tr X 1 / d^2

    vec_id = np.eye(2).reshape(-1)
    pi = np.outer(vec_id, vec_id) / 2
    y = np.random.default_rng(0).standard_normal((64, 64))
    y += y.T  # the probe stores real symmetric matrices
    assert alternating_projection_probe(build_constraint_system("identity", 2),
                                        starts=1).passed
    monkeypatch.setattr(probe, "_slot_map", pi_pi_only)
    want = test_probe.slot_pair_product(span.vec_kron(pi, pi), 1, y)
    assert np.abs(test_probe.slot_map(2, 1, y) - want).max() <= 1e-14
    for kind in ("identity", "switch"):
        assert build_constraint_system(kind, 2).family_rank == 1
    rep = alternating_projection_probe(build_constraint_system("identity", 2),
                                       starts=1)
    assert not rep.passed
    assert not rep.check("family_rank_full").passed


def test_vec_kron_without_reorder_fails_dense_agreement(monkeypatch):
    test_probe.test_switch_constrained_part_matches_dense_product_d2()
    for module in (span, probe):
        monkeypatch.setattr(module, "vec_kron", np.kron)
    with pytest.raises(AssertionError):
        test_probe.test_switch_constrained_part_matches_dense_product_d2()


def sandwich_corollary():
    """``corollary-verify --dim 2 --seed 0``'s sandwich, with Haar A and B."""
    a, b = haar_random_unitary(2, 101), haar_random_unitary(2, 202)
    return verify_corollary("sandwich", 2, seed=0, a=a, b=b)


def failed_checks(rep):
    return [c.name for c in rep.checks if not c.passed]


def unconjugated_actions(proc, us):
    """``unitary_actions`` of a pure process with |v><v*| in place of |v><v|."""
    d, n = proc.d, len(us)
    phi = np.swapaxes(us, -1, -2).reshape(n, proc.slots, d * d)
    x = phi[:, 0]
    if proc.slots == 2:
        x = (x[:, :, None] * phi[:, 1, None, :]).reshape(n, -1)
    v = x @ proc.vectors[0].reshape(proc.nin, -1)
    out = v[:, :, None] * v[:, None, :]
    return out if proc.slots == 1 else switch._channel_order(out, d)


def test_link_without_conjugation_fails_sandwich_corollary(monkeypatch):
    # the link contraction in unitary_actions also gives the replace channel's
    # output, one Kraus operator at a time, so its extension check fails too
    assert sandwich_corollary().passed
    for module in (switch, uniqueness):
        monkeypatch.setattr(module, "unitary_actions", unconjugated_actions)
    rep = sandwich_corollary()
    assert rep.name == "corollary_sandwich_d2"
    assert failed_checks(rep) == ["max_haar_distance", "replace_channel_extension_dev"]


def test_unitary_actions_without_conjugation_fails_haar_checks(monkeypatch):
    assert verify_unitary_action(2, seed=0).passed
    for module in (switch, uniqueness):
        monkeypatch.setattr(module, "unitary_actions", unconjugated_actions)
    rep = verify_unitary_action(2, seed=0)
    assert rep.name == "switch_unitary_action_d2"
    assert failed_checks(rep) == ["max_frobenius_distance"]


def test_overflowing_switch_vector_fails_unitary_action():
    # finite entries whose products overflow to inf, and inf - inf to NaN
    huge = Process(2, switch_choi_vector(2) * 1e200)
    with np.errstate(over="ignore", invalid="ignore"):
        rep = verify_unitary_action(2, seed=0, process=huge)
    assert not rep.passed
    assert not rep.check("max_frobenius_distance").passed
    assert not rep.check("identity_pair_distance").passed


def test_untransposed_b_in_sandwich_fails_corollary(monkeypatch):
    build = uniqueness.build_derived_one_slot

    def untransposed(kind, d, a=None, b=None):  # the vector then holds b where b.T belongs
        return build(kind, d, a, b.T if kind == "sandwich" else b)

    assert sandwich_corollary().passed
    monkeypatch.setattr(uniqueness, "build_derived_one_slot", untransposed)
    rep = sandwich_corollary()
    assert rep.name == "corollary_sandwich_d2"
    assert failed_checks(rep) == ["max_haar_distance", "replace_channel_extension_dev"]


def test_dropped_row_entry_fails_offdiagonal_sums(monkeypatch):
    nonzeros = Process.nonzeros

    def dropped(self):  # every entry at the first nonzero of w, the first entry
        rows, cols, vals = nonzeros(self)  # of the first non-empty row of Wm, is lost
        first = np.flatnonzero(self.vectors[0])[0]
        keep = (rows != first) & (cols != first)
        return rows[keep], cols[keep], vals[keep]

    assert offdiagonal_certificate(2).passed
    monkeypatch.setattr(Process, "nonzeros", dropped)
    rep = offdiagonal_certificate(2)
    assert rep.name == "switch_offdiagonal_d2"
    assert failed_checks(rep) == ["sum_G1xG1", "sum_G2xG2", "sum_G1xG3", "sum_G2xG3",
                                  "sum_G3xG3", "ordered_total_saturates_bound"]


def test_aliasing_a3_grid_fails_span_lemmas(monkeypatch):
    # on a 2-point grid the A3 degree vectors with an entry +-2 alias to 0,
    # which the average's exactness guard, read off the degrees, refuses
    phase_averages = span._phase_averages

    def a3_on_two_points(gens, n, tables=None):
        return phase_averages(gens, 2 if gens[0].lemma_id == "A3" else n, tables)

    assert span.verify_span_lemmas(3).passed
    monkeypatch.setattr(span, "_phase_averages", a3_on_two_points)
    with pytest.raises(ValueError, match="^grid 2 is not above the degree 2 of A3$"):
        span.verify_span_lemmas(3)
