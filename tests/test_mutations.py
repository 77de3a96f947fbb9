"""Deliberately broken variants of the program that a named certificate must reject."""

import numpy as np
import pytest

from switchcert import probe, span, switch, uniqueness
from switchcert.channels import haar_random_unitary
from switchcert.probe import alternating_projection_probe, build_constraint_system
from switchcert.span import GroupElement, verify_group_combinatorics
from switchcert.switch import Process, link
from switchcert.uniqueness import offdiagonal_certificate, verify_corollary

import test_probe


def test_flipped_g3_sign_fails_group_combinatorics(monkeypatch):
    build_group = span.build_group

    def flipped(group_id, d):
        els = build_group(group_id, d)
        if group_id == "G3":
            (c1, t1), (c2, t2) = els[0].terms
            els[0] = GroupElement(els[0].group_id, d, els[0].indices, ((c1, t1), (-c2, t2)))
        return els

    assert verify_group_combinatorics(3).passed
    monkeypatch.setattr(span, "build_group", flipped)
    rep = verify_group_combinatorics(3)
    assert rep.name == "group_combinatorics_d3"
    assert not rep.passed
    assert rep.check("max_G2_G3_span_residual").measured >= 1.0
    assert [c.name for c in rep.checks if not c.passed] == ["max_G2_G3_span_residual"]


def test_pi_pi_only_slot_projector_fails_family_rank(monkeypatch):
    def pi_pi_only(d):  # drops the traceless (x) traceless part of span{J_U}
        vec_id = np.eye(d).reshape(-1)
        pi = np.outer(vec_id, vec_id) / d
        return span.vec_kron(pi, pi)

    assert alternating_projection_probe(build_constraint_system("identity", 2),
                                        starts=1).passed
    monkeypatch.setattr(probe, "span_projector", pi_pi_only)
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
    return verify_corollary("sandwich", 2, trials=100, seed=0, a=a, b=b)


def failed_checks(rep):
    return [c.name for c in rep.checks if not c.passed]


def test_link_without_conjugation_fails_sandwich_corollary(monkeypatch):
    def unconjugated(w, x):
        if w.ndim == 1:
            wm = w.reshape(x.shape[0], -1)
            return wm.T @ x @ wm
        return link(w, x)

    assert sandwich_corollary().passed
    monkeypatch.setattr(switch, "link", unconjugated)
    rep = sandwich_corollary()
    assert rep.name == "corollary_sandwich_d2"
    assert failed_checks(rep) == ["max_haar_distance", "replace_channel_extension_dev"]


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
    row_entries = Process._row_entries.func

    def dropped(self):  # loses the first entry of the first non-empty row of Wm
        rows = list(row_entries(self))
        r = next(i for i, row in enumerate(rows) if row)
        rows[r] = rows[r][1:]
        return tuple(rows)

    assert offdiagonal_certificate(2).passed
    monkeypatch.setattr(Process, "_row_entries", property(dropped))
    rep = offdiagonal_certificate(2)
    assert rep.name == "switch_offdiagonal_d2"
    assert failed_checks(rep) == ["sum_G1xG1", "sum_G2xG2", "sum_G1xG3", "sum_G2xG3",
                                  "sum_G3xG3", "ordered_total_saturates_bound"]


def test_dropped_phase_grid_point_fails_span_lemmas(monkeypatch):
    branch_states = span._branch_states

    def dropped(gens, phases):  # the shared phase grid loses its first point
        states = branch_states(gens, phases)
        if phases.ndim == 2:
            states[:, :, 0] = 0.0
        return states

    assert span.verify_span_lemmas(2).passed
    monkeypatch.setattr(span, "_branch_states", dropped)
    for d in (2, 3):
        rep = span.verify_span_lemmas(d)
        assert rep.name == f"span_lemmas_d{d}"
        assert failed_checks(rep) == ["max_target_residual", "max_grid_doubling_change"]
