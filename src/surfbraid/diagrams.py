"""Chord diagrams with beads on n strands, twisted by strand permutations.

A monomial is a free word in two kinds of symbols: ``Bead(strand, letter)``
(a signed fundamental-group generator sitting on one strand) and
``Chord(i, j)`` (a horizontal chord between strands ``i < j``).  Monomials
do not simplify — ``a1@1 a1^-1@1`` keeps both symbols; all identifications
live in the relation ideal.  A ``WreathDiagram`` is a rational combination
of (monomial, permutation) pairs, truncated to a maximum chord degree and
bead length.  An operation that would make a monomial past the truncation
raises TruncationOverflowError (``Truncation.check``) where it makes it, so
no term is ever dropped.

A coefficient (of a diagram, a relation instance, a certificate term) is
``int | Fraction``: an ``int`` when it is integral, a ``Fraction`` only
when it is not (``rewriting._coefficient``), and a float is refused.  Every
relation has integer coefficients, so the normal form, the box reduction
and the certificates run on ints unless a query brings a fraction; an
equal int and Fraction compare and hash alike, so neither equality nor
printing tells them apart.

Relation families (all with identity permutation, homogeneous in chord
degree; ``F`` is the set of signed loop letters of the surface):

* ``BeadBead``    gamma@i delta@j - delta@j gamma@i          (i != j)
* ``BeadPush``    gamma@i Z(i,j) - Z(i,j) gamma@j — a bead slides across a
                  chord onto the other strand; both directions are emitted.
                  Their sum (gamma@i + gamma@j) Z - Z (gamma@i + gamma@j),
                  the commutator form the family is usually quoted in, lies
                  in their span and is not catalogued
* ``BeadFar``     gamma@k Z(i,j) - Z(i,j) gamma@k            (k not on the chord)
* ``ChordSym``    Z(i,j) = Z(j,i) — vacuous, chords are stored sorted
* ``ChordFar``    [Z(i,j), Z(k,l)] for disjoint strand pairs
* ``FourT``       [Z(i,j), Z(j,k) + Z(i,k)] for distinct i, j, k
* ``ClosedSum``   sum_s [a_s@i, b_s@i] per strand i           (closed surfaces)
* ``BeadGroup``   gamma@i gamma^-1@i - 1 per signed letter and strand
* ``BeadRelator`` the closed-surface relator word as beads on one strand - 1

``BeadGroup`` and ``BeadRelator`` are not redundant: beads are labeled by
group-ring elements, so bead words that are equal in the fundamental group
must be identified, and no combination of the other families produces those
cancellations in the free monomial model.  The slide form of ``BeadPush``
is likewise required: the commutator form alone never mixes the two chord
endpoints, which an explicit character of the collapsed algebra shows is
too weak to transport conjugated chords from one strand to the other.

``ideal_member`` answers membership at a bead window.  It first writes
the query in its bead normal form (``_bead_normal_form``): the chords, then
the beads by strand with every inverse pair cancelled, on the closed torus
in the exponent form ``a1^m b1^k`` per strand.  Every step is a framed
relation row, so the steps give the certificate its first rows.  Except
on closed surfaces of genus >= 2 the normal words in chord degree <= 1 are
those of a complete rewriting system of the relations there, so that
normal form decides chord degree <= 1: a non-zero one is a proven
NotMember, and a vanishing one a Member.  Everything else is decided by
one completion truncated to a box of the window (``_box``), the same box
the torsion report of ``abelianization`` counts normal words in:
NotMemberAtWindow is proven at that window, not against the whole ideal.
Member answers return a certificate that is re-expanded and compared with
the input before being returned.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass, replace
from fractions import Fraction

from .braid import (
    WreathElement,
    compose_perms,
    format_perm_cycles,
    identity_perm,
    invert_perm,
    parse_perm_cycles,
    transposition_perm,
    wreath_image,
)
from .errors import (
    DimensionMismatchError,
    InvalidGeneratorError,
    ParameterError,
    ParseError,
    SurfbraidError,
    TruncationOverflowError,
    UnsupportedDegreeError,
)
from .rewriting import RewritingSystem, _add, _coefficient, complete
from .surface import SurfaceParams, Word, check_pi1_word, format_letter, inverse_word

# symbols: ("B", strand, (kind, idx, sign)) and ("C", i, j) with i < j
Monomial = tuple


@dataclass(frozen=True)
class Truncation:
    """Caps on chord degree and bead length of stored monomials."""

    max_chords: int = 2
    max_beads: int = 4

    def __post_init__(self):
        if self.max_chords < 0 or self.max_beads < 0:
            raise ParameterError("truncation bounds must be non-negative")

    def fits(self, mono: Monomial) -> bool:
        return chord_degree(mono) <= self.max_chords and bead_length(mono) <= self.max_beads

    def check(self, mono: Monomial) -> Monomial:
        """``mono`` itself; raises TruncationOverflowError when it does not fit."""
        if not self.fits(mono):
            raise TruncationOverflowError(
                f"monomial {format_monomial(mono)} with {chord_degree(mono)} chords and "
                f"{bead_length(mono)} beads exceeds the truncation {self}"
            )
        return mono


def bead(strand: int, let) -> tuple:
    return ("B", strand, tuple(let))


def chord(i: int, j: int) -> tuple:
    if i == j:
        raise InvalidGeneratorError("a chord needs two distinct strands")
    return ("C", min(i, j), max(i, j))


def chord_degree(mono: Monomial) -> int:
    return sum(1 for sym in mono if sym[0] == "C")


def bead_length(mono: Monomial) -> int:
    return sum(1 for sym in mono if sym[0] == "B")


def bead_multidegree(mono: Monomial) -> tuple:
    """Net signed exponent per base letter, as a sorted tuple of
    ((kind, idx), total) pairs — preserved by every relation family as long
    as at most one handle contributes to ClosedSum."""
    acc: dict = {}
    for sym in mono:
        if sym[0] == "B":
            kind, idx, sign = sym[2]
            key = (kind, idx)
            acc[key] = acc.get(key, 0) + sign
            if not acc[key]:
                del acc[key]
    return tuple(sorted(acc.items()))


def _symbol_key(sym) -> tuple:
    if sym[0] == "B":
        kind, idx, sign = sym[2]
        return (0, sym[1], kind, idx, 0 if sign > 0 else 1)
    return (1, sym[1], "", sym[2], 0)


def mono_key(mono: Monomial) -> tuple:
    return (len(mono), tuple(_symbol_key(s) for s in mono))


def relabel_mono(mono: Monomial, perm: tuple[int, ...]) -> Monomial:
    """Relabel strand indices by a permutation (1-based labels, 0-based perm)."""
    out = []
    for sym in mono:
        if sym[0] == "B":
            out.append(("B", perm[sym[1] - 1] + 1, sym[2]))
        else:
            a, b = perm[sym[1] - 1] + 1, perm[sym[2] - 1] + 1
            out.append(("C", min(a, b), max(a, b)))
    return tuple(out)


class WreathDiagram:
    """Rational combination of (monomial, permutation) pairs under a fixed
    truncation.  The constructors and the product raise at a monomial past
    it; ``__init__`` does not check, so a sum of framed relation rows
    (``expand_certificate``) may hold longer frames."""

    __slots__ = ("strands", "trunc", "terms")

    def __init__(self, strands: int, trunc: Truncation, terms=None):
        self.strands = strands
        self.trunc = trunc
        clean: dict[tuple[Monomial, tuple], int | Fraction] = {}
        for (mono, perm), coef in (terms or {}).items():
            # ``_coefficient``'s int test inline: a fifth of this loop's time
            if type(coef) is not int:
                coef = _coefficient(coef)
            if not coef:
                continue
            key = (tuple(mono), tuple(perm))
            c = clean.get(key, 0) + coef
            if c:
                clean[key] = c if type(c) is int else _coefficient(c)
            elif key in clean:
                del clean[key]
        self.terms = clean

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, strands: int, trunc: Truncation) -> "WreathDiagram":
        return cls(strands, trunc)

    @classmethod
    def unit(cls, strands: int, trunc: Truncation) -> "WreathDiagram":
        return cls(strands, trunc, {((), identity_perm(strands)): 1})

    @classmethod
    def from_term(cls, strands: int, trunc: Truncation, mono, perm=None, coef=1) -> "WreathDiagram":
        perm = identity_perm(strands) if perm is None else tuple(perm)
        return cls(strands, trunc, {(trunc.check(tuple(mono)), perm): coef})

    # -- structure ----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def _check_compatible(self, other: "WreathDiagram"):
        if self.strands != other.strands or self.trunc != other.trunc:
            raise DimensionMismatchError("diagrams have different strand counts or truncations")

    def __add__(self, other: "WreathDiagram") -> "WreathDiagram":
        self._check_compatible(other)
        out = dict(self.terms)
        for key, c in other.terms.items():
            out[key] = out.get(key, 0) + c
        return WreathDiagram(self.strands, self.trunc, out)

    def __sub__(self, other: "WreathDiagram") -> "WreathDiagram":
        return self + (-other)

    def __neg__(self) -> "WreathDiagram":
        return WreathDiagram(self.strands, self.trunc, {k: -c for k, c in self.terms.items()})

    def scale(self, coef) -> "WreathDiagram":
        coef = _coefficient(coef)
        return WreathDiagram(self.strands, self.trunc, {k: coef * c for k, c in self.terms.items()})

    def __mul__(self, other: "WreathDiagram") -> "WreathDiagram":
        self._check_compatible(other)
        out: dict = {}
        for (m1, p1), c1 in self.terms.items():
            # strand labels are starting positions: label j of the right
            # factor continues the left strand p1^-1(j)
            back = invert_perm(p1)
            for (m2, p2), c2 in other.terms.items():
                key = (self.trunc.check(m1 + relabel_mono(m2, back)), compose_perms(p1, p2))
                out[key] = out.get(key, 0) + c1 * c2
        return WreathDiagram(self.strands, self.trunc, out)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, WreathDiagram)
            and self.strands == other.strands
            and self.trunc == other.trunc
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.strands, self.trunc, frozenset(self.terms.items())))

    def __repr__(self):
        return f"WreathDiagram({format_diagram(self)!r})"

    def max_chord_degree(self) -> int:
        return max((chord_degree(m) for (m, _) in self.terms), default=0)


# ---------------------------------------------------------------------------
# embeddings and named generators
# ---------------------------------------------------------------------------


def _bead_monomial(w: WreathElement, trunc: Truncation) -> Monomial:
    """The beads of a wreath-product element as one monomial, strand 1
    first, labelled by starting strand; raises on bead-length overflow."""
    return trunc.check(tuple(
        bead(strand0 + 1, let) for strand0, word in enumerate(w.beads) for let in word
    ))


def chord_generator(strands: int, i: int, j: int, trunc: Truncation) -> WreathDiagram:
    _check_strand_range(strands, (i, j))
    mono = trunc.check((chord(i, j),))
    return WreathDiagram(strands, trunc, {(mono, identity_perm(strands)): 1})


def conjugated_chord(
    s: SurfaceParams, i: int, j: int, gamma: Word, trunc: Truncation
) -> WreathDiagram:
    """The transported chord gamma@i Z(i,j) gamma^-1@i: the image of the
    gamma-decorated crossing generator between strands i and j."""
    _check_strand_range(s.strands, (i, j))
    if i == j:
        raise InvalidGeneratorError("a chord needs two distinct strands")
    check_pi1_word(gamma, s)
    mono = trunc.check(tuple(bead(i, l) for l in gamma) + (chord(i, j),)
                       + tuple(bead(i, l) for l in inverse_word(gamma)))
    return WreathDiagram(s.strands, trunc, {(mono, identity_perm(s.strands)): 1})


def _check_strand_range(strands: int, indices) -> None:
    for i in indices:
        if not 1 <= i <= strands:
            raise InvalidGeneratorError(f"strand index {i} out of range 1..{strands}")


# ---------------------------------------------------------------------------
# relation instances
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RelationInstance:
    """One relation, expanded to an explicit identity-permutation element."""

    family: str
    rid: str
    element: WreathDiagram

    def mono_terms(self) -> list[tuple[Monomial, int | Fraction]]:
        return [(mono, c) for (mono, _), c in self.element.terms.items()]


def relation_instances(s: SurfaceParams, trunc: Truncation) -> list[RelationInstance]:
    """Every relation instance with single-letter beads that fits the
    truncation.  A relation with a longer bead word, such as ``a1 b1``
    sliding across a chord, is a sum of these framed by monomials."""
    n = s.strands
    letters = s.pi1_letters()
    ident = identity_perm(n)
    out: list[RelationInstance] = []

    def emit(family: str, rid: str, term_list):
        terms = {}
        for mono, coef in term_list:
            mono = tuple(mono)
            if not trunc.fits(mono):
                return
            key = (mono, ident)
            terms[key] = terms.get(key, 0) + coef
        element = WreathDiagram(n, trunc, terms)
        if not element.is_zero:
            out.append(RelationInstance(family, rid, element))

    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            for ga in letters:
                for de in letters:
                    emit(
                        "BeadBead",
                        f"BeadBead[{format_letter(ga)}@{i},{format_letter(de)}@{j}]",
                        [((bead(i, ga), bead(j, de)), 1),
                         ((bead(j, de), bead(i, ga)), -1)],
                    )

    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            z = chord(i, j)
            for ga in letters:
                name = format_letter(ga)
                emit(
                    "BeadPush",
                    f"BeadPush[{name};{i}>{j}]",
                    [((bead(i, ga), z), 1), ((z, bead(j, ga)), -1)],
                )
                emit(
                    "BeadPush",
                    f"BeadPush[{name};{j}>{i}]",
                    [((bead(j, ga), z), 1), ((z, bead(i, ga)), -1)],
                )

    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            z = chord(i, j)
            for k in range(1, n + 1):
                if k in (i, j):
                    continue
                for ga in letters:
                    emit(
                        "BeadFar",
                        f"BeadFar[{format_letter(ga)}@{k};{i},{j}]",
                        [((bead(k, ga), z), 1), ((z, bead(k, ga)), -1)],
                    )

    # ChordSym is vacuous: chords are stored with i < j already.

    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            for k in range(i, n + 1):
                for l in range(k + 1, n + 1):
                    if (k, l) <= (i, j) or {i, j} & {k, l}:
                        continue
                    z1, z2 = chord(i, j), chord(k, l)
                    emit(
                        "ChordFar",
                        f"ChordFar[{i},{j};{k},{l}]",
                        [((z1, z2), 1), ((z2, z1), -1)],
                    )

    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            for k in range(1, n + 1):
                if k in (i, j):
                    continue
                zij, zjk, zik = chord(i, j), chord(j, k), chord(i, k)
                emit(
                    "FourT",
                    f"FourT[{i},{j};{k}]",
                    [((zij, zjk), 1), ((zij, zik), 1),
                     ((zjk, zij), -1), ((zik, zij), -1)],
                )

    if s.closed and s.genus >= 1:
        for i in range(1, n + 1):
            term_list = []
            for t in range(1, s.genus + 1):
                at, bt = ("a", t, 1), ("b", t, 1)
                term_list.append(((bead(i, at), bead(i, bt)), 1))
                term_list.append(((bead(i, bt), bead(i, at)), -1))
            emit("ClosedSum", f"ClosedSum[{i}]", term_list)

    for i in range(1, n + 1):
        for ga in letters:
            inv = (ga[0], ga[1], -ga[2])
            emit(
                "BeadGroup",
                f"BeadGroup[{format_letter(ga)}@{i}]",
                [((bead(i, ga), bead(i, inv)), 1), ((), -1)],
            )

    if s.closed and s.genus >= 1:
        rel = s.surface_relator()
        for i in range(1, n + 1):
            for word, mark in ((rel, "+"), (inverse_word(rel), "-")):
                emit(
                    "BeadRelator",
                    f"BeadRelator[{i};{mark}]",
                    [(tuple(bead(i, let) for let in word), 1), ((), -1)],
                )

    return out


# ---------------------------------------------------------------------------
# ideal membership
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CertificateTerm:
    """One summand coef * left * relation * right placed in a permutation coset."""

    coef: int | Fraction
    left: Monomial
    relation_id: str
    right: Monomial
    perm: tuple


@dataclass(frozen=True)
class Membership:
    """Outcome of ideal_member.

    * ``member``: at the window; the certificate has been re-expanded and
      compared with the query (None when the caller asked not to certify).
    * ``not_member``: proven at every window.  ``witness`` is the bead
      normal form of the query's chord-degree <= 1 part, non-zero, on a
      surface other than a closed one of genus >= 2, where the bead normal
      words are those of a complete rewriting system of the ideal in chord
      degree <= 1.
    * ``not_member_at_window``: proven at the window only, not against the
      whole ideal.  ``witness`` is the query's normal form in the truncated
      completion; the query minus it is a member at the window.
    """

    status: str  # "member" | "not_member" | "not_member_at_window"
    certificate: tuple[CertificateTerm, ...] | None = ()
    witness: WreathDiagram | None = None

    @property
    def is_member(self) -> bool:
        return self.status == "member"


@dataclass(frozen=True)
class _CodedSystem:
    """The rewriting rules of a box over int-coded chord and bead symbols,
    whose words are padded with a letter ``t`` (code ``len(symbols)``) that
    commutes with every other.  Each rule's proof is its derivation in
    ``system.derivations``, whose input relation ``index`` is
    ``instances[index]``, or a commutator ``x t - t x`` when that is None."""

    symbols: tuple  # code -> chord or bead symbol
    code: dict  # chord or bead symbol -> code
    system: RewritingSystem | None = None
    instances: tuple = ()  # RelationInstance or None, by input relation index

    def word(self, mono: Monomial, length: int) -> tuple:
        """``mono`` padded with ``t`` up to ``length`` beads."""
        pad = (len(self.symbols),) * (length - bead_length(mono))
        return tuple(self.code[sym] for sym in mono) + pad

    def mono(self, word: tuple) -> Monomial:
        return tuple(self.symbols[x] for x in word if x < len(self.symbols))

    def rows(self, steps, perm) -> list[CertificateTerm]:
        """The relation rows of rewriting steps ``(coef, left, lead, right)``
        with ``t`` erased, which erases the commutators: they sum to what
        the steps took away."""
        acc: dict = {}
        for (left, index, right), c in self.system.proof(steps).items():
            inst = self.instances[index]
            if inst is not None:
                _add(acc, (self.mono(left), inst.rid, self.mono(right)), c)
        return [CertificateTerm(_coefficient(c), *key, perm) for key, c in acc.items()]


@functools.lru_cache(maxsize=None)
def _catalogue(s: SurfaceParams) -> dict:
    """The relation instances with at most one chord and two beads, by id:
    every row of ``_bead_normal_form`` names one of them."""
    return {inst.rid: inst for inst in relation_instances(s, Truncation(1, 2))}


def _cancel(beads: tuple, left: tuple, right: tuple, coef, rows) -> tuple:
    """``beads`` with every inverse pair on one strand cancelled, as a stack
    does; each cancellation of ``left beads right`` appends its BeadGroup
    row to ``rows`` unless that is None."""
    out: list = []
    for k, b in enumerate(beads):
        top = out[-1] if out else None
        if top and top[1] == b[1] and top[2] == (b[2][0], b[2][1], -b[2][2]):
            out.pop()
            if rows is not None:
                rows.append((coef, left + tuple(out), f"BeadGroup[{format_letter(top[2])}@{b[1]}]",
                             beads[k + 1:] + right))
        else:
            out.append(b)
    return tuple(out)


def _swap_rows(later, sooner, left: tuple, right: tuple, coef, rows) -> None:
    """The rows of the step ``left later sooner right -> left sooner later
    right``: BeadBead when the two beads sit on different strands, else the
    closed torus swap ``b1^e a1^d -> a1^d b1^e``.  That one is ClosedSum
    framed by L, the inverses of the letters with a negative exponent, as
    sigma (L ClosedSum L^-1 - G(L a1 b1 L^-1) + G(L b1 a1 L^-1)) with sigma
    = -e d and G(w) the cancellations that freely reduce w."""
    if later[1] != sooner[1]:
        rows.append((-coef, left, f"BeadBead[{format_letter(sooner[2])}@{sooner[1]},"
                     f"{format_letter(later[2])}@{later[1]}]", right))
        return
    e, d, strand = later[2][2], sooner[2][2], later[1]
    sigma = -e * d * coef
    frame = tuple(bead(strand, (kind, 1, -1)) for kind, sign in (("a", d), ("b", e)) if sign < 0)
    a1, b1 = bead(strand, ("a", 1, 1)), bead(strand, ("b", 1, 1))
    rows.append((sigma, left + frame, f"ClosedSum[{strand}]", frame[::-1] + right))
    _cancel(frame + (a1, b1) + frame[::-1], left, right, -sigma, rows)
    _cancel(frame + (b1, a1) + frame[::-1], left, right, sigma, rows)


def _bead_normal_form(mono: Monomial, s: SurfaceParams, coef, rows) -> Monomial:
    """The bead normal form of ``mono``: its chords in order, then its beads
    sorted stably by strand with every inverse pair on one strand cancelled,
    on the closed torus each strand's beads in the exponent form ``a1^m
    b1^k``.  First each bead left of a chord moves right across it, onto the
    chord's other strand when it sits on the chord (pushes, the last bead
    first), then the beads are sorted by insertion, on the closed torus the
    a1 letters of a strand before its b1 letters, then they cancel.

    When ``rows`` is a list, each step appends its rows ``(c, left,
    relation id, right)``, each naming a relation of ``_catalogue(s)``:
    they sum to ``coef`` times ``mono`` minus its normal form."""
    word = list(mono)
    for start in range(len(word) - 1, -1, -1):
        i = start
        while word[i][0] == "B" and i + 1 < len(word) and word[i + 1][0] == "C":
            b, (_, lo, hi) = word[i], word[i + 1]
            moved = bead(lo + hi - b[1], b[2]) if b[1] in (lo, hi) else b
            if rows is not None:
                rid = f"BeadPush[{format_letter(b[2])};{b[1]}>{moved[1]}]" if moved != b \
                    else f"BeadFar[{format_letter(b[2])}@{b[1]};{lo},{hi}]"
                rows.append((coef, tuple(word[:i]), rid, tuple(word[i + 2:])))
            word[i:i + 2] = word[i + 1], moved
            i += 1
    torus = s.closed and s.genus == 1

    def key(b):
        return b[1], torus and b[2][0] == "b"

    first = chord_degree(mono)
    for start in range(first + 1, len(word)):
        i = start
        while i > first and key(word[i - 1]) > key(word[i]):
            if rows is not None:
                _swap_rows(word[i - 1], word[i], tuple(word[:i - 1]), tuple(word[i + 1:]),
                           coef, rows)
            word[i - 1:i + 1] = word[i], word[i - 1]
            i -= 1
    return tuple(word[:first]) + _cancel(tuple(word[first:]), tuple(word[:first]), (), coef, rows)


def _support_letters(x: WreathDiagram) -> set:
    return {sym[2][:2] for mono, _ in x.terms for sym in mono if sym[0] == "B"}


def _instance_applicable(inst: RelationInstance, base_letters) -> bool:
    return all(sym[0] == "C" or sym[2][:2] in base_letters
               for mono, _ in inst.element.terms for sym in mono)


def expand_certificate(
    certificate, instances_by_id: dict, strands: int, trunc: Truncation
) -> WreathDiagram:
    """The sum of ``coef * left * relation * right`` in the coset ``perm``
    over the certificate's terms, each relation read from
    ``instances_by_id`` by its id.  Every product is added into one dict, so
    the cost is linear in the number of terms times the terms of their
    instances.  Raises ParameterError naming a relation id that is not in
    ``instances_by_id``."""
    acc: dict = {}
    for term in certificate:
        inst = instances_by_id.get(term.relation_id)
        if inst is None:
            raise ParameterError(f"the certificate names an unknown relation {term.relation_id!r}")
        for mono, c in inst.mono_terms():
            _add(acc, (term.left + mono + term.right, term.perm), c * term.coef)
    return WreathDiagram(strands, trunc, acc)


@functools.lru_cache(maxsize=None)
def _box(s: SurfaceParams, letters: tuple, trunc: Truncation, window: int,
         degree: int) -> _CodedSystem:
    """The instances of ``relation_instances(s, trunc)`` on the base
    ``letters`` with at most ``degree`` chords, padded with ``t`` to their
    longest term, completed over the words of at most ``degree`` chords and
    ``window`` beads and ``t``.  Ideal membership and the torsion report
    (``abelianization.degree_one_torsion``) both read it."""
    n = s.strands
    chords = [chord(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    symbols = tuple(chords + [bead(i, let) for i in range(1, n + 1)
                              for let in s.pi1_letters() if let[:2] in letters])
    box = _CodedSystem(symbols, {sym: x for x, sym in enumerate(symbols)})
    insts = [inst for inst in relation_instances(s, trunc)
             if inst.element.max_chord_degree() <= degree and _instance_applicable(inst, letters)]
    t = len(symbols)
    relations = [{box.word(mono, max(bead_length(m) for m, _ in inst.mono_terms())): c
                  for mono, c in inst.mono_terms()} for inst in insts]
    relations += [{(x, t): 1, (t, x): -1} for x in range(t)]

    def inside(word):
        k = sum(x < len(chords) for x in word)
        return k <= degree and len(word) - k <= window

    return replace(box, system=complete([1] * (t + 1), relations, inside),
                   instances=tuple(insts) + (None,) * t)


def ideal_member(
    x: WreathDiagram,
    s: SurfaceParams,
    trunc: Truncation,
    window: int = 6,
    certify: bool = True,
) -> Membership:
    """Membership of x in the two-sided relation ideal at ``window``: in the
    span of the instances of ``relation_instances(s, trunc)`` framed by
    monomials so that every term keeps at most ``window`` beads.

    ``_bead_normal_form`` writes each term of the query in its bead normal
    form, on the closed torus with each strand in the exponent form ``a1^m
    b1^k``.  The ideal is graded by permutation and chord degree, so x is a
    member exactly when every (permutation, chord degree) component of the
    normal form is; a vanishing one is.  Except on closed surfaces of genus
    >= 2 the bead normal words of chord degree <= 1 are the normal words of
    a confluent rewriting system that generates the ideal there (Bergman's
    diamond lemma; ``tests/oracles.py`` completes it from the relations),
    so a non-zero chord-degree <= 1 normal form is NotMember at every
    window, with it as witness.

    Every other non-zero component, padded with a central letter ``t`` to
    ``window`` beads, is reduced by the relations padded likewise and
    completed over every ambiguity with at most its chord degree and at most
    ``window`` beads and ``t`` (``_box``, cached and shared with the torsion
    report), keeping its steps if ``certify``.  Both counts are homogeneous, so
    by the diamond lemma in each piece of that box it reduces to zero
    exactly when it is a member at ``window``.  If one does not, the answer
    is NotMemberAtWindow, proven at ``window`` only and not against the
    whole ideal; its witness is the normal form with ``t`` erased, and x
    minus the witness is a member at ``window``.  Except on closed surfaces
    of genus >= 2, where the relator needs every letter, the completion
    takes only the query's bead letters: sending the others to 1 maps every
    relation into the ideal of the rest and lengthens nothing.

    With ``certify=True`` the normal form's rows are kept as it goes, and
    only a Member expands the box steps, once, through the box rules'
    derivations (``RewritingSystem.proof``) into relation rows; the whole
    certificate is re-expanded against x.  With ``certify=False`` the
    certificate is None.  Raises DimensionMismatchError when x and s have
    different strand counts, TruncationOverflowError when a monomial of x
    does not fit ``trunc``, and ResourceLimitError when a box passes
    ``rewriting.MAX_RULES`` rules.
    """
    if x.strands != s.strands:
        raise DimensionMismatchError(
            f"a {x.strands}-strand diagram queried on {s.strands} strands"
        )
    for mono, _ in x.terms:
        trunc.check(mono)
    if window < trunc.max_beads:
        raise ParameterError(
            f"window {window} is smaller than the bead truncation {trunc.max_beads}"
        )
    if x.is_zero:
        return Membership("member", () if certify else None)

    certificate: list | None = [] if certify else None
    components: dict = {}  # (perm, chord degree) -> normal form: rows mix neither
    for (mono, perm), c in sorted(
        x.terms.items(), key=lambda kv: (kv[0][1], mono_key(kv[0][0]))
    ):
        rows = [] if certify else None
        form = _bead_normal_form(mono, s, c, rows)
        _add(components.setdefault((perm, chord_degree(form)), {}), form, c)
        if certify:
            certificate += [CertificateTerm(*row, perm) for row in rows]

    if not (s.closed and s.genus >= 2):
        decided = {(mono, perm): c for (perm, degree), form in components.items()
                   if degree <= 1 for mono, c in form.items()}
        if decided:
            return Membership("not_member", witness=WreathDiagram(x.strands, x.trunc, decided))

    letters = {let[:2] for let in s.pi1_letters()} if s.closed and s.genus >= 2 \
        else _support_letters(x)
    witness: dict = {}
    reduced: list = []  # (box, its rewriting steps, perm)
    for (perm, degree), form in components.items():
        if form:
            box = _box(s, tuple(sorted(letters)), trunc, window, degree)
            steps = [] if certify else None
            padded = {box.word(mono, window): c for mono, c in form.items()}
            for word, c in box.system.reduce(padded, steps).items():
                _add(witness, (box.mono(word), perm), c)
            reduced.append((box, steps, perm))
    if witness:
        return Membership("not_member_at_window",
                          witness=WreathDiagram(x.strands, x.trunc, witness))
    if not certify:
        return Membership("member", None)
    certificate += [term for box, steps, perm in reduced for term in box.rows(steps, perm)]
    result = Membership("member", tuple(certificate))
    by_id = dict(_catalogue(s))
    by_id.update((inst.rid, inst) for box, _, _ in reduced for inst in box.instances if inst)
    check = expand_certificate(result.certificate, by_id, x.strands, trunc)
    if check.terms != x.terms:
        raise SurfbraidError("internal error: certificate re-expansion mismatch")
    return result


# ---------------------------------------------------------------------------
# degree-one symbol and the disk witness
# ---------------------------------------------------------------------------


def degree_one_symbol(summands, s: SurfaceParams, trunc: Truncation) -> WreathDiagram:
    """Symbol of sum c * u (s_i - s_i^-1) v: each crossing difference
    contributes its chord (Z(i,i+1); s_i) framed by the degree-zero images
    of u and v.

    Each summand is the one term of the diagram product u * (Z; s_i) * v of
    the degree-zero images, written directly: u's beads, the chord relabelled by
    u.perm^-1, v's beads relabelled by (u.perm s_i)^-1, and the permutation
    u.perm s_i v.perm.  ``fits`` is monotone, so the whole monomial fits
    exactly when every partial product does.  Every error, an invalid word
    or crossing or a monomial past the truncation, raises at the first
    summand that has it, as the products would."""
    acc: dict = {}
    for t in summands:
        u = wreath_image(t.left, s)
        left = _bead_monomial(u, trunc)
        through = compose_perms(u.perm, transposition_perm(s.strands, t.crossing))
        v = wreath_image(t.right, s)
        right = _bead_monomial(v, trunc)
        mono = trunc.check(
            left
            + relabel_mono((chord(t.crossing, t.crossing + 1),), invert_perm(u.perm))
            + relabel_mono(right, invert_perm(through))
        )
        _add(acc, (mono, compose_perms(through, v.perm)), t.coef)
    return WreathDiagram(s.strands, trunc, acc)


def disk_augmentation(x: WreathDiagram) -> WreathDiagram:
    """Erase every bead (the homomorphism onto the beadless disk algebra)."""
    out: dict = {}
    for (mono, perm), coef in x.terms.items():
        key = (tuple(sym for sym in mono if sym[0] == "C"), perm)
        out[key] = out.get(key, 0) + coef
    return WreathDiagram(x.strands, x.trunc, out)


def disk_nonzero(x: WreathDiagram) -> bool:
    """Nonvanishing in the beadless algebra, valid in chord degree <= 1 where
    the (monomial, permutation) pairs are an explicit basis."""
    y = disk_augmentation(x)
    if y.max_chord_degree() > 1:
        raise UnsupportedDegreeError(
            "the explicit beadless basis is only available in chord degree <= 1"
        )
    return not y.is_zero


# ---------------------------------------------------------------------------
# parsing and printing
# ---------------------------------------------------------------------------

_BEAD_RE = re.compile(r"^([a-z])(\d+)(\^-1)?@(\d+)$")
_CHORD_RE = re.compile(r"^Z\((\d+),(\d+)\)$")


def format_monomial(mono: Monomial) -> str:
    if not mono:
        return "1"
    parts = []
    for sym in mono:
        if sym[0] == "B":
            parts.append(f"{format_letter(sym[2])}@{sym[1]}")
        else:
            parts.append(f"Z({sym[1]},{sym[2]})")
    return " ".join(parts)


def parse_monomial(text: str, s: SurfaceParams) -> Monomial:
    text = text.strip()
    if text in ("", "1"):
        return ()
    out = []
    for tok in text.split():
        m = _BEAD_RE.match(tok)
        if m:
            kind, idx, inv, strand = m.group(1), int(m.group(2)), m.group(3), int(m.group(4))
            let = (kind, idx, -1 if inv else 1)
            if not s.pi1_letter_valid(let):
                raise ParseError(f"bead letter in {tok!r} does not exist on this surface")
            if not 1 <= strand <= s.strands:
                raise ParseError(f"bead strand in {tok!r} out of range 1..{s.strands}")
            out.append(bead(strand, let))
            continue
        m = _CHORD_RE.match(tok)
        if m:
            i, j = int(m.group(1)), int(m.group(2))
            if not (1 <= i <= s.strands and 1 <= j <= s.strands) or i == j:
                raise ParseError(f"chord {tok!r} out of range or degenerate")
            out.append(chord(i, j))
            continue
        raise ParseError(f"bad diagram token {tok!r}")
    return tuple(out)


def format_diagram_term(mono: Monomial, perm, coef) -> str:
    return f"{coef} * {format_monomial(mono)} ; perm={format_perm_cycles(perm)}"


def format_diagram(x: WreathDiagram) -> str:
    if x.is_zero:
        return "0"
    keys = sorted(x.terms, key=lambda k: (k[1], mono_key(k[0])))
    return " + ".join(format_diagram_term(m, p, x.terms[(m, p)]) for (m, p) in keys)


def parse_diagram(text: str, s: SurfaceParams, trunc: Truncation) -> WreathDiagram:
    """Parse `coef * mono ; perm=(..)` terms joined by ` + ` (the permutation
    defaults to the identity when omitted)."""
    text = text.strip()
    if text == "0":
        return WreathDiagram.zero(s.strands, trunc)
    terms: dict = {}
    for chunk in text.split(" + "):
        chunk = chunk.strip()
        if ";" in chunk:
            mono_part, perm_part = chunk.split(";", 1)
            perm_part = perm_part.strip()
            if not perm_part.startswith("perm="):
                raise ParseError(f"expected 'perm=' in {chunk!r}")
            perm = parse_perm_cycles(perm_part[len("perm="):], s.strands)
        else:
            mono_part, perm = chunk, identity_perm(s.strands)
        mono_part = mono_part.strip()
        if "*" in mono_part:
            coef_text, mono_text = mono_part.split("*", 1)
            try:
                coef = _coefficient(Fraction(coef_text.strip()))
            except (ValueError, ZeroDivisionError) as exc:
                raise ParseError(f"bad coefficient {coef_text.strip()!r}") from exc
        else:
            coef, mono_text = 1, mono_part
        key = (trunc.check(parse_monomial(mono_text, s)), perm)
        terms[key] = terms.get(key, 0) + coef
    return WreathDiagram(s.strands, trunc, terms)


def format_certificate(certificate) -> str:
    if not certificate:
        return "(empty certificate)"
    lines = []
    for t in certificate:
        lines.append(
            f"{t.coef} * [{format_monomial(t.left)}] . {t.relation_id} . "
            f"[{format_monomial(t.right)}] ; perm={format_perm_cycles(t.perm)}"
        )
    return "\n".join(lines)
