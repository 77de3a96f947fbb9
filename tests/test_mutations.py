"""Deliberately broken variants of the program that a named certificate must reject."""

from switchcert import span
from switchcert.span import GroupElement, verify_group_combinatorics


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
