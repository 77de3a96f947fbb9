"""Deliberately broken variants of the program that a named certificate must reject."""

import numpy as np
import pytest

from switchcert import probe, span
from switchcert.probe import alternating_projection_probe, build_constraint_system
from switchcert.span import GroupElement, verify_group_combinatorics

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
