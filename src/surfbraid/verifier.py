"""Machine-checked assembly of the degree-one obstruction.

For a surface of genus >= 1 the handle relation expresses the squared
half-twist ``s1^2`` as a commutator of braid generators.  That step is one
move, the commutator rewritten to ``s1^2``, checked against the relator
catalogue (``is_relator_move``) and replayed by free reduction; it runs no
search.  The degree-one symbol of ``s1^2 - 1`` is the single chord
``(Z(1,2); id)``, whose class in the abelianized degree-one piece is
nonzero (witnessed both by the explicit commutative model and by erasing
beads onto the disk algebra, where degree <= 1 has an explicit basis).  A
multiplicative universal invariant that embedded the graded quotient would
have to send this commutator class to a nonzero abelianized value — but
commutators die in any commutative target.  The two purely logical
inferences in that chain cannot be computed and are reported as cited
steps; everything else is computed and certified.

For genus 0 the handle relation does not exist and the obstruction does not
arise; the verifier reports the hypothesis as not met.
"""

from __future__ import annotations

from dataclasses import dataclass

from .abelianization import format_h1, h1_class, h1_nonzero
from .braid import Move, Relator, apply_move, is_relator_move
from .braid import relators  # noqa: F401  (read as verifier.relators by bench/)
from .diagrams import (
    Truncation,
    chord_generator,
    degree_one_symbol,
    disk_augmentation,
    disk_nonzero,
    format_diagram,
)
from .errors import ParameterError
from .group_algebra import JSummand
from .surface import SurfaceParams, format_word, free_reduce

OBSTRUCTION_ESTABLISHED = "ObstructionEstablished"
HYPOTHESIS_NOT_MET = "HypothesisNotMet"


@dataclass(frozen=True)
class Step:
    name: str
    mode: str  # "COMPUTED" | "CITED"
    passed: bool
    detail: str


@dataclass(frozen=True)
class VerificationReport:
    surface: SurfaceParams
    steps: tuple[Step, ...]
    verdict: str


def format_report(rep: VerificationReport) -> str:
    lines = [
        f"surface genus={rep.surface.genus} boundary={rep.surface.boundary} "
        f"strands={rep.surface.strands}"
    ]
    for st in rep.steps:
        status = "PASS" if st.passed else "FAIL"
        lines.append(f"STEP {st.name} {st.mode} {status} {st.detail}")
    lines.append(f"VERDICT {rep.verdict}")
    return "\n".join(lines)


def _handle_commutator_word() -> tuple:
    # [a1, s1^-1 b1 s1^-1]
    inner = (("s", 1, -1), ("b", 1, 1), ("s", 1, -1))
    inv_inner = (("s", 1, 1), ("b", 1, -1), ("s", 1, 1))
    return free_reduce((("a", 1, 1),) + inner + (("a", 1, -1),) + inv_inner)


def verify_nonexistence(s: SurfaceParams) -> VerificationReport:
    """Run the computable steps of the obstruction on ``s``.  The symbol is
    one chord with no beads, so it is built in ``Truncation(1, 0)`` and
    compared with the chord itself: no window or wider truncation can
    change any step."""
    if s.strands < 2:
        raise ParameterError("the obstruction concerns braids on at least 2 strands")

    steps: list[Step] = []

    if s.genus == 0:
        steps.append(Step(
            "handle_relation", "COMPUTED", False,
            "genus 0: no handle relation exists, s1^2 has no commutator "
            "expression in this presentation",
        ))
        return VerificationReport(s, tuple(steps), HYPOTHESIS_NOT_MET)

    # (a) the handle relation is present and rewrites the commutator to s1^2
    # in one move, which the relator catalogue checks
    commutator = _handle_commutator_word()
    square = (("s", 1, 1), ("s", 1, 1))
    expected_relator = free_reduce((("s", 1, -1), ("s", 1, -1)) + commutator)
    move = Move(0, commutator, square, "2.iii")
    matched = is_relator_move(move, s)
    present = matched == Relator("2.iii", expected_relator)
    moved = matched is not None and apply_move(commutator, move) == square
    ok_a = present and moved
    steps.append(Step(
        "handle_relation", "COMPUTED", ok_a,
        f"relator 2.iii instance found: {format_word(expected_relator)}; "
        f"rewrite to s1^2 in 1 move(s)" if ok_a else
        f"relator present={present}, relator move={moved}",
    ))

    # (b) degree-one symbol of s1^2 - 1 equals the bare chord
    trunc = Truncation(1, 0)
    symbol = degree_one_symbol([JSummand(1, (), 1, (("s", 1, 1),))], s, trunc)
    ok_b = symbol == chord_generator(s.strands, 1, 2, trunc)
    steps.append(Step(
        "squared_crossing_symbol", "COMPUTED", ok_b,
        f"symbol = {format_diagram(symbol)}; "
        f"{'equal to' if ok_b else 'not equal to'} (Z(1,2); id)",
    ))

    # (c) the abelianized degree-one class is nonzero, with a disk witness
    h = h1_class(symbol, s)
    witness = h1_nonzero(h)
    disk_ok = disk_nonzero(symbol)
    disk = disk_augmentation(symbol)
    ok_c = witness.nonzero and disk_ok
    steps.append(Step(
        "degree_one_class", "COMPUTED", ok_c,
        f"h1 class = {format_h1(h)}; witness monomial {witness.monomial} "
        f"(coefficient {witness.coefficient}); disk augmentation "
        f"{format_diagram(disk)} nonzero in the explicit degree-1 basis"
        if ok_c else f"h1 = {format_h1(h)}, disk nonzero = {disk_ok}",
    ))

    steps.append(Step(
        "graded_embedding", "CITED", True,
        "a functorial universal degree-one invariant would induce an "
        "injective map of graded quotients, sending the class of s1^2 - 1 "
        "to the nonzero chord class computed above",
    ))
    steps.append(Step(
        "commutator_vanishing", "CITED", True,
        "a multiplicative invariant with commutative degree-one target kills "
        "every commutator class; s1^2 - 1 is a commutator combination by the "
        "handle relation, so its image would have to vanish — contradiction",
    ))

    verdict = OBSTRUCTION_ESTABLISHED if (ok_a and ok_b and ok_c) else HYPOTHESIS_NOT_MET
    return VerificationReport(s, tuple(steps), verdict)
