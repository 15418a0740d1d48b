"""The assembled degree-one obstruction pipeline."""

import weakref

import pytest

from surfbraid import braid, verifier
from surfbraid.errors import ParameterError
from surfbraid.surface import SurfaceParams
from surfbraid.verifier import (
    HYPOTHESIS_NOT_MET,
    OBSTRUCTION_ESTABLISHED,
    format_report,
    verify_nonexistence,
)

POSITIVE = [(1, 1, 2), (1, 0, 2), (2, 1, 3), (1, 0, 3), (2, 0, 2)]
NEGATIVE = [(0, 1, 2), (0, 2, 3)]


class TestVerdicts:
    @pytest.mark.parametrize("g,p,n", POSITIVE)
    def test_obstruction_established(self, g, p, n):
        rep = verify_nonexistence(SurfaceParams(g, p, n))
        assert rep.verdict == OBSTRUCTION_ESTABLISHED
        assert all(st.passed for st in rep.steps)

    @pytest.mark.parametrize("g,p,n", NEGATIVE)
    def test_hypothesis_not_met_for_genus_zero(self, g, p, n):
        rep = verify_nonexistence(SurfaceParams(g, p, n))
        assert rep.verdict == HYPOTHESIS_NOT_MET
        assert rep.steps[0].name == "handle_relation"
        assert not rep.steps[0].passed

    def test_needs_two_strands(self):
        with pytest.raises(ParameterError):
            verify_nonexistence(SurfaceParams(1, 1, 1))


class TestSteps:
    def test_step_inventory(self):
        rep = verify_nonexistence(SurfaceParams(1, 1, 2))
        names = [st.name for st in rep.steps]
        assert names == [
            "handle_relation",
            "squared_crossing_symbol",
            "degree_one_class",
            "graded_embedding",
            "commutator_vanishing",
        ]
        modes = {st.name: st.mode for st in rep.steps}
        assert modes["handle_relation"] == "COMPUTED"
        assert modes["squared_crossing_symbol"] == "COMPUTED"
        assert modes["degree_one_class"] == "COMPUTED"
        assert modes["graded_embedding"] == "CITED"
        assert modes["commutator_vanishing"] == "CITED"

    def test_symbol_and_class_details(self):
        rep = verify_nonexistence(SurfaceParams(1, 1, 2))
        details = {st.name: st.detail for st in rep.steps}
        assert "1 * Z(1,2) ; perm=(1)(2)" in details["squared_crossing_symbol"]
        assert "h1 class = 1 * Z12" in details["degree_one_class"]

    def test_report_format(self):
        rep = verify_nonexistence(SurfaceParams(1, 1, 2))
        text = format_report(rep)
        lines = text.splitlines()
        assert lines[0] == "surface genus=1 boundary=1 strands=2"
        assert lines[1].startswith("STEP handle_relation COMPUTED PASS")
        assert lines[-1] == "VERDICT ObstructionEstablished"

    def test_deterministic(self):
        a = format_report(verify_nonexistence(SurfaceParams(2, 1, 3)))
        b = format_report(verify_nonexistence(SurfaceParams(2, 1, 3)))
        assert a == b


def _report(g, p, n):
    perm = "".join(f"({i})" for i in range(1, n + 1))
    return "\n".join([
        f"surface genus={g} boundary={p} strands={n}",
        "STEP handle_relation COMPUTED PASS relator 2.iii instance found: "
        "s1^-1 s1^-1 a1 s1^-1 b1 s1^-1 a1^-1 s1 b1^-1 s1; rewrite to s1^2 in 1 move(s)",
        f"STEP squared_crossing_symbol COMPUTED PASS symbol = 1 * Z(1,2) ; perm={perm}; "
        "difference from (Z(1,2); id) is in the relation ideal (0 certificate term(s), "
        "re-expansion verified)",
        "STEP degree_one_class COMPUTED PASS h1 class = 1 * Z12; witness monomial Z12 "
        f"(coefficient 1); disk augmentation 1 * Z(1,2) ; perm={perm} nonzero in the "
        "explicit degree-1 basis",
        "STEP graded_embedding CITED PASS a functorial universal degree-one invariant "
        "would induce an injective map of graded quotients, sending the class of "
        "s1^2 - 1 to the nonzero chord class computed above",
        "STEP commutator_vanishing CITED PASS a multiplicative invariant with "
        "commutative degree-one target kills every commutator class; s1^2 - 1 is a "
        "commutator combination by the handle relation, so its image would have to "
        "vanish — contradiction",
        "VERDICT ObstructionEstablished",
    ])


class TestHandleStep:
    @pytest.mark.parametrize("g,p,n", [(1, 1, 2), (3, 0, 3)])
    def test_full_report_text(self, g, p, n):
        assert format_report(verify_nonexistence(SurfaceParams(g, p, n))) == _report(g, p, n)

    def test_builds_no_move_table(self, monkeypatch):
        def refuse(self, s):
            raise AssertionError("verify_nonexistence built a relator move table")

        monkeypatch.setattr(braid._MoveTable, "__init__", refuse)
        # no table shared with an equal surface built elsewhere
        monkeypatch.setattr(braid, "_MOVE_TABLES", weakref.WeakKeyDictionary())
        for g, p, n in POSITIVE:
            assert verify_nonexistence(SurfaceParams(g, p, n)).verdict == OBSTRUCTION_ESTABLISHED
        for g, p, n in NEGATIVE:
            assert verify_nonexistence(SurfaceParams(g, p, n)).verdict == HYPOTHESIS_NOT_MET

    def test_reads_the_catalogue_once(self, monkeypatch):
        calls = []
        catalogue = braid.relators

        def counting(s):
            calls.append(s)
            return catalogue(s)

        monkeypatch.setattr(braid, "relators", counting)
        monkeypatch.setattr(verifier, "relators", counting)
        for g, p, n in POSITIVE:
            s = SurfaceParams(g, p, n)
            calls.clear()
            assert verify_nonexistence(s).verdict == OBSTRUCTION_ESTABLISHED
            assert calls == [s]
