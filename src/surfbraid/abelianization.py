"""Abelianization of the diagram algebra in chord degrees 0 and 1.

In the commutative quotient the strands become indistinguishable: a bead
``gamma@i`` maps to a strand-independent variable (``abar_s``, ``bbar_s``
or ``zbar_k``) with its sign as an integer exponent, every chord maps to
the single degree-one variable ``Z12``, and a permutation contributes
``tau`` raised to its parity (``tau^2 = 1``).  The computation is exact
over the rationals.  Integer structure (torsion of the degree-one piece)
is answered separately by ``degree_one_torsion``: it counts the normal
words with one chord in the box completion that windowed membership uses
(``diagrams._box``, the relations homogenized by a commuting letter
``t``), in one pass over the grading (chords, other letters).  When every
leading coefficient of the completion is +-1 the diamond lemma holds over
the integers, so the normal words are a basis and the piece is free; when
one is not, the check refuses rather than guess.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .braid import perm_sign
from .diagrams import (
    Truncation,
    WreathDiagram,
    _box,
    bead_multidegree,
    chord_degree,
    relation_instances,
)
from .errors import HypothesisError, ParameterError, UnsupportedDegreeError
from .rewriting import _coefficient, one_marked_counts
from .surface import SurfaceParams

# an H1 element maps keys (z_exponent, tau_bit, ((kind, idx), net), ...) to
# rational coefficients, ints when integral
H1Key = tuple


def h1_class(x: WreathDiagram, s: SurfaceParams) -> dict[H1Key, int | Fraction]:
    """Class of a chord-degree <= 1 element in the commutative quotient."""
    out: dict[H1Key, int | Fraction] = {}
    for (mono, perm), coef in x.terms.items():
        z = chord_degree(mono)
        if z > 1:
            raise UnsupportedDegreeError(
                "the abelianized model is computed in chord degree <= 1 only"
            )
        tau = 0 if perm_sign(perm) > 0 else 1
        key = (z, tau, bead_multidegree(mono))
        c = out.get(key, 0) + coef
        if c:
            out[key] = _coefficient(c)
        elif key in out:
            del out[key]
    return out


_VAR_NAMES = {"a": "abar", "b": "bbar", "z": "zbar"}


def format_h1_key(key: H1Key) -> str:
    z, tau, variables = key
    parts = []
    if z:
        parts.append("Z12")
    for (kind, idx), exp in variables:
        name = f"{_VAR_NAMES[kind]}{idx}"
        parts.append(name if exp == 1 else f"{name}^{exp}")
    if tau:
        parts.append("tau")
    return " * ".join(parts) if parts else "1"


def format_h1(h: dict) -> str:
    if not h:
        return "0"
    lines = []
    for key in sorted(h, key=lambda k: (k[0], k[1], k[2])):
        lines.append(f"{h[key]} * {format_h1_key(key)}")
    return "\n".join(lines)


@dataclass(frozen=True)
class H1Witness:
    """Nonvanishing certificate: a monomial with nonzero coefficient."""

    nonzero: bool
    monomial: str | None = None
    coefficient: int | Fraction | None = None


def h1_nonzero(h: dict) -> H1Witness:
    for key in sorted(h, key=lambda k: (k[0], k[1], k[2])):
        if h[key]:
            return H1Witness(True, format_h1_key(key), h[key])
    return H1Witness(False)


def h1_degree_zero_report(s: SurfaceParams) -> str:
    """The computed degree-zero generating set.  Every handle index occurs:
    the relation ideal identifies strands but imposes nothing between
    different handles, so the set below is reported as computed rather than
    matched against any shorter list."""
    names = []
    for r in range(1, s.genus + 1):
        names += [f"abar{r}", f"abar{r}^-1", f"bbar{r}", f"bbar{r}^-1"]
    for k in range(1, s.boundary):
        names += [f"zbar{k}", f"zbar{k}^-1"]
    names.append("tau")
    lines = [
        "degree-0 generators (computed): " + ", ".join(names),
        "tau^2 = 1; bead variables are strand-independent and invertible",
        "note: all handle indices appear; no identification between handles"
        " follows from the relation ideal",
    ]
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# integer torsion check in chord degree one
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TorsionReport:
    """The chord-degree-1 piece of ``degree_one_torsion``.  Only a free
    piece is reported (otherwise it raises), so ``divisors_gt_one`` is
    always ``()`` and ``torsion_free`` always true.  They stay because the
    report text prints both and the benchmark's torsion oracle reads both."""

    surface: SurfaceParams
    trunc: Truncation
    columns: int
    rows: int
    rank: int
    divisors_gt_one: tuple
    torsion_free: bool


def format_torsion_report(rep: TorsionReport) -> str:
    divisors = ", ".join(str(d) for d in rep.divisors_gt_one) or "none"
    return "\n".join([
        f"surface genus={rep.surface.genus} boundary={rep.surface.boundary} "
        f"strands={rep.surface.strands}",
        f"truncation: chords<={rep.trunc.max_chords} beads<={rep.trunc.max_beads}",
        f"chord-degree-1 monomials: {rep.columns}",
        f"relation instances completed: {rep.rows}, rank {rep.rank}",
        f"elementary divisors > 1: {divisors}",
        "torsion-free: " + ("yes" if rep.torsion_free else "NO"),
    ])


def degree_one_torsion(s: SurfaceParams, trunc: Truncation = Truncation()) -> TorsionReport:
    """Rank and integer torsion of the chord-degree-1 relation span at the
    given truncation, from one completion of the relations.

    The span is that of every chord-degree <= 1 relation instance framed by
    monomials on both sides within ``trunc.max_beads = L`` beads.  The
    completion is the box of ``diagrams._box`` over every base letter, at
    window L and chord degree 1, the one windowed membership reads: each
    instance padded up to its largest bead length with a letter ``t`` that
    commutes with every other, and every ambiguity with at most one chord
    and L beads and ``t`` resolved.  A chord-degree-1 monomial of k <= L
    beads is then a word of one chord, k beads and ``t^(L-k)``, and the
    framed span is the ideal's piece of the box with one chord and L other
    letters.  The padding is what makes a completion bounded at L exact
    there: unpadded, ``gamma gamma^-1 - 1`` yields rules derived through
    words longer than the window, which then act inside it and identify
    more than the framed span does.

    Bergman's diamond lemma holds over any commutative ring: rules whose
    leading coefficients are +-1 and that resolve every ambiguity in that
    piece leave its normal words a basis of the quotient over the integers.
    So when the completion divided only by +-1, the piece is free: the
    report is torsion-free with no divisor above 1, as a proof, and
    ``rank`` is ``columns`` minus the normal words with one chord and L
    other letters, counted over the grading (chords, other letters) by
    ``rewriting.one_marked_counts``.
    Otherwise the answer is unknown, and ``HypothesisError`` names the
    coefficient.  ``rows`` is the number of relation instances completed.
    A truncation without chords has no chord-degree-1 piece:
    ``ParameterError``.
    """
    if trunc.max_chords < 1:
        raise ParameterError("the chord-degree-1 piece needs a truncation with chords")
    L = trunc.max_beads
    box = _box(s, tuple(sorted({let[:2] for let in s.pi1_letters()})), trunc, L, 1)
    if box.system.non_unit_lead is not None:
        raise HypothesisError(
            f"torsion unknown on genus {s.genus}, boundary {s.boundary}, "
            f"{s.strands} strands at {L} beads: the completion divided by the "
            f"leading coefficient {box.system.non_unit_lead}, so its normal words "
            "need not be a basis over the integers"
        )
    chords = sum(sym[0] == "C" for sym in box.symbols)
    beads = len(box.symbols) - chords
    columns = chords * sum((k + 1) * beads ** k for k in range(L + 1))
    # chords are the first codes, t the last
    normal = one_marked_counts(len(box.symbols) + 1, range(chords), box.system.rules, L)[L]
    return TorsionReport(
        surface=s,
        trunc=trunc,
        columns=columns,
        rows=sum(inst is not None for inst in box.instances),
        rank=columns - normal,
        divisors_gt_one=(),
        torsion_free=True,
    )


def relation_classes_killed(s: SurfaceParams, trunc: Truncation) -> bool:
    """h1_class of every chord-degree <= 1 relation instance vanishes."""
    for inst in relation_instances(s, trunc):
        if inst.element.max_chord_degree() > 1:
            continue
        if h1_class(inst.element, s):
            return False
    return True
