"""Chord diagrams with beads on n strands, twisted by strand permutations.

A monomial is a free word in two kinds of symbols: ``Bead(strand, letter)``
(a signed fundamental-group generator sitting on one strand) and
``Chord(i, j)`` (a horizontal chord between strands ``i < j``).  Monomials
do not simplify — ``a1@1 a1^-1@1`` keeps both symbols; all identifications
live in the relation ideal.  A ``WreathDiagram`` is a rational combination
of (monomial, permutation) pairs, truncated to a maximum chord degree and
bead length; products that leave the truncation raise a flag instead of
being dropped silently.

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

``ideal_member`` is the equality semi-decision: it saturates relation
instances framed by monomial factors around the monomials actually seen,
keeps every row inside the bead-length window, and reduces the query over
exact rationals.  Member answers return a certificate that is re-expanded
and compared with the input before being returned; NotFound answers are
inconclusive by design.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from .braid import (
    WreathElement,
    compose_perms,
    format_perm_cycles,
    identity_perm,
    invert_perm,
    parse_perm_cycles,
    transposition_perm,
)
from .errors import (
    DimensionMismatchError,
    InvalidGeneratorError,
    ParameterError,
    ParseError,
    TruncationOverflowError,
    UnsupportedDegreeError,
)
from .linalg import ExactReducer
from .surface import SurfaceParams, Word, inverse_word

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
    truncation, with an overflow flag for products that left the window."""

    __slots__ = ("strands", "trunc", "terms", "overflow")

    def __init__(self, strands: int, trunc: Truncation, terms=None, overflow: bool = False):
        self.strands = strands
        self.trunc = trunc
        clean: dict[tuple[Monomial, tuple], Fraction] = {}
        for (mono, perm), coef in (terms or {}).items():
            coef = Fraction(coef)
            if not coef:
                continue
            key = (tuple(mono), tuple(perm))
            c = clean.get(key, 0) + coef
            if c:
                clean[key] = c
            elif key in clean:
                del clean[key]
        self.terms = clean
        self.overflow = overflow

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
        mono = tuple(mono)
        if not trunc.fits(mono):
            raise TruncationOverflowError(
                f"monomial with {chord_degree(mono)} chords / {bead_length(mono)} beads "
                f"exceeds truncation {trunc}"
            )
        return cls(strands, trunc, {(mono, perm): coef})

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
        return WreathDiagram(self.strands, self.trunc, out, self.overflow or other.overflow)

    def __sub__(self, other: "WreathDiagram") -> "WreathDiagram":
        return self + (-other)

    def __neg__(self) -> "WreathDiagram":
        return WreathDiagram(
            self.strands, self.trunc,
            {k: -c for k, c in self.terms.items()}, self.overflow,
        )

    def scale(self, coef) -> "WreathDiagram":
        return WreathDiagram(
            self.strands, self.trunc,
            {k: Fraction(coef) * c for k, c in self.terms.items()}, self.overflow,
        )

    def __mul__(self, other: "WreathDiagram") -> "WreathDiagram":
        self._check_compatible(other)
        out: dict = {}
        overflow = self.overflow or other.overflow
        for (m1, p1), c1 in self.terms.items():
            # strand labels are starting positions: label j of the right
            # factor continues the left strand p1^-1(j)
            back = invert_perm(p1)
            for (m2, p2), c2 in other.terms.items():
                mono = m1 + relabel_mono(m2, back)
                if not self.trunc.fits(mono):
                    overflow = True
                    continue
                key = (mono, compose_perms(p1, p2))
                out[key] = out.get(key, 0) + c1 * c2
        return WreathDiagram(self.strands, self.trunc, out, overflow)

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


def diag_mul(x: WreathDiagram, y: WreathDiagram) -> WreathDiagram:
    return x * y


# ---------------------------------------------------------------------------
# embeddings and named generators
# ---------------------------------------------------------------------------


def embed_wreath(w: WreathElement, trunc: Truncation) -> WreathDiagram:
    """A wreath-product element as a bead monomial (strand 1 first) with its
    permutation; raises on bead-length overflow."""
    mono: list = []
    for strand0, word in enumerate(w.beads):
        for let in word:
            mono.append(bead(strand0 + 1, let))
    mono_t = tuple(mono)
    if not trunc.fits(mono_t):
        raise TruncationOverflowError(
            f"{bead_length(mono_t)} beads exceed the {trunc.max_beads}-bead window"
        )
    return WreathDiagram(w.surface.strands, trunc, {(mono_t, w.perm): 1})


def chord_generator(strands: int, i: int, j: int, trunc: Truncation) -> WreathDiagram:
    _check_strand_range(strands, (i, j))
    return WreathDiagram(strands, trunc, {((chord(i, j),), identity_perm(strands)): 1})


def conjugated_chord(
    s: SurfaceParams, i: int, j: int, gamma: Word, trunc: Truncation
) -> WreathDiagram:
    """The transported chord gamma@i Z(i,j) gamma^-1@i: the image of the
    gamma-decorated crossing generator between strands i and j."""
    from .surface import check_pi1_word

    _check_strand_range(s.strands, (i, j))
    if i == j:
        raise InvalidGeneratorError("a chord needs two distinct strands")
    check_pi1_word(gamma, s)
    mono = tuple(bead(i, l) for l in gamma) + (chord(i, j),) \
        + tuple(bead(i, l) for l in inverse_word(gamma))
    if not trunc.fits(mono):
        raise TruncationOverflowError(
            f"conjugating bead word of length {len(gamma)} exceeds the truncation"
        )
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

    def mono_terms(self) -> list[tuple[Monomial, Fraction]]:
        return [(mono, c) for (mono, _), c in self.element.terms.items()]


def _letter_name(let) -> str:
    kind, idx, sign = let
    return f"{kind}{idx}" + ("^-1" if sign < 0 else "")


def relation_instances(s: SurfaceParams, trunc: Truncation) -> list[RelationInstance]:
    """Every relation instance with single-letter beads that fits the
    truncation (longer bead words reduce to these inside the span search)."""
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
                        f"BeadBead[{_letter_name(ga)}@{i},{_letter_name(de)}@{j}]",
                        [((bead(i, ga), bead(j, de)), 1),
                         ((bead(j, de), bead(i, ga)), -1)],
                    )

    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            z = chord(i, j)
            for ga in letters:
                name = _letter_name(ga)
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
                        f"BeadFar[{_letter_name(ga)}@{k};{i},{j}]",
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
                f"BeadGroup[{_letter_name(ga)}@{i}]",
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

    coef: Fraction
    left: Monomial
    relation_id: str
    right: Monomial
    perm: tuple


@dataclass(frozen=True)
class Membership:
    """Outcome of ideal_member: Member carries a re-expanded, verified
    certificate (or None when the caller asked not to certify); NotFound
    is inconclusive."""

    status: str  # "member" | "not_found"
    certificate: tuple[CertificateTerm, ...] | None = ()

    @property
    def is_member(self) -> bool:
        return self.status == "member"


def _mono_factorizations(mono: Monomial, part: Monomial):
    """All contiguous splittings mono == left + part + right."""
    lp = len(part)
    for pos in range(len(mono) - lp + 1):
        if mono[pos:pos + lp] == part:
            yield mono[:pos], mono[pos + lp:]


def _normalize_monomial(mono: Monomial, perm, coef, steps_out) -> Monomial:
    """Directed rewrite to the bead-normal form: inverse bead pairs on one
    strand cancel, every bead slides rightward across every chord (changing
    strand when it sits on the chord), and the final bead tail is stably
    sorted by strand.  Each step is one relation row, appended to
    ``steps_out`` so that ``mono == normal_form + sum(steps)``.

    Terminates: the measure (bead-before-chord inversions, length,
    cross-strand bead disorder) drops lexicographically at every step.
    """
    work = list(mono)
    while True:
        changed = False
        for p in range(len(work) - 1):
            a, b = work[p], work[p + 1]
            if (a[0] == "B" and b[0] == "B" and a[1] == b[1]
                    and a[2][:2] == b[2][:2] and a[2][2] == -b[2][2]):
                rid = f"BeadGroup[{_letter_name(a[2])}@{a[1]}]"
                steps_out.append(CertificateTerm(
                    coef, tuple(work[:p]), rid, tuple(work[p + 2:]), perm))
                del work[p:p + 2]
                changed = True
                break
        if changed:
            continue
        for p in range(len(work) - 1):
            a, b = work[p], work[p + 1]
            if a[0] == "B" and b[0] == "C":
                strand, i, j = a[1], b[1], b[2]
                left, right = tuple(work[:p]), tuple(work[p + 2:])
                if strand == i or strand == j:
                    other = j if strand == i else i
                    rid = f"BeadPush[{_letter_name(a[2])};{strand}>{other}]"
                    work[p], work[p + 1] = b, ("B", other, a[2])
                else:
                    rid = f"BeadFar[{_letter_name(a[2])}@{strand};{i},{j}]"
                    work[p], work[p + 1] = b, a
                steps_out.append(CertificateTerm(coef, left, rid, right, perm))
                changed = True
                break
        if changed:
            continue
        for p in range(len(work) - 1):
            a, b = work[p], work[p + 1]
            if a[0] == "B" and b[0] == "B" and a[1] > b[1]:
                rid = (f"BeadBead[{_letter_name(b[2])}@{b[1]},"
                       f"{_letter_name(a[2])}@{a[1]}]")
                steps_out.append(CertificateTerm(
                    -coef, tuple(work[:p]), rid, tuple(work[p + 2:]), perm))
                work[p], work[p + 1] = b, a
                changed = True
                break
        if not changed:
            return tuple(work)


def _normalize_with_trace(x: WreathDiagram):
    """Bead-normalize every term of x; returns (normal form, trace rows)."""
    steps: list[CertificateTerm] = []
    acc: dict = {}
    for (mono, perm), c in sorted(
        x.terms.items(), key=lambda kv: (kv[0][1], mono_key(kv[0][0]))
    ):
        nf = _normalize_monomial(mono, perm, c, steps)
        key = (nf, perm)
        v = acc.get(key, 0) + c
        if v:
            acc[key] = v
        else:
            acc.pop(key, None)
    return WreathDiagram(x.strands, x.trunc, acc), steps


def _support_letters(x: WreathDiagram) -> set:
    base = set()
    for (mono, _) in x.terms:
        for sym in mono:
            if sym[0] == "B":
                base.add(sym[2][:2])
    return base


def _instance_applicable(inst: RelationInstance, base_letters: set) -> bool:
    for (mono, _) in inst.element.terms:
        for sym in mono:
            if sym[0] == "B" and sym[2][:2] not in base_letters:
                return False
    return True


def expand_certificate(
    certificate, instances_by_id: dict, strands: int, trunc: Truncation
) -> WreathDiagram:
    total = WreathDiagram.zero(strands, trunc)
    for term in certificate:
        inst = instances_by_id[term.relation_id]
        acc: dict = {}
        for mono, c in inst.mono_terms():
            key = (term.left + mono + term.right, term.perm)
            acc[key] = acc.get(key, 0) + c * term.coef
        total = total + WreathDiagram(strands, trunc, acc)
    return total


def ideal_member(
    x: WreathDiagram,
    s: SurfaceParams,
    trunc: Truncation,
    window: int = 6,
    max_rounds: int = 16,
    max_rows: int = 60000,
    certify: bool = True,
) -> Membership:
    """Span membership of x in the two-sided relation ideal.

    The query is first rewritten to its bead-normal form, every step being
    a relation row kept for the certificate; the bead-moving families all
    vanish under that normal form, so many equalities finish right there.
    What remains is a saturation search: relation instances framed by
    monomial factors taken from contiguous factorizations of monomials
    already reached, a row being admitted only if every one of its terms
    stays within ``window`` beads (chord degrees match automatically, the
    families are homogeneous).  A first pass uses only rows that never
    lengthen a monomial — it explores a small, finite stratum — and only
    if that fails does the search allow growing insertions.  Instances
    whose bead letters do not occur in x are skipped: they can only be
    missed, and NotFound is inconclusive anyway.

    With ``certify=False`` membership is decided by the same exact integer
    elimination; only assembling the certificate and re-expanding it
    against x are skipped, and the certificate is None.
    """
    if window < trunc.max_beads:
        raise ParameterError(
            f"window {window} is smaller than the bead truncation {trunc.max_beads}"
        )
    if x.is_zero:
        return Membership("member", () if certify else None)

    instances = relation_instances(s, trunc)
    base_letters = _support_letters(x)
    usable = [
        inst for inst in instances
        if _instance_applicable(inst, base_letters)
    ]
    by_id = {inst.rid: inst for inst in usable}

    xn, trace = _normalize_with_trace(x)
    certificate: list[CertificateTerm] = list(trace) if certify else []

    # split by permutation and chord degree: rows never mix either
    components: dict = {}
    for (mono, perm), coef in xn.terms.items():
        components.setdefault((perm, chord_degree(mono)), {})[mono] = coef

    for (perm, degree), target in sorted(
        components.items(), key=lambda kv: (kv[0][0], kv[0][1])
    ):
        combo = _component_member(
            target, usable, window, max_rounds, max_rows,
            allow_insertions=False, track=certify,
        )
        if combo is None:
            combo = _component_member(
                target, usable, window, max_rounds, max_rows,
                allow_insertions=True, track=certify,
            )
        if combo is None:
            return Membership("not_found")
        for (left, rid, right), coef in sorted(
            combo.items(), key=lambda kv: (mono_key(kv[0][0]), kv[0][1], mono_key(kv[0][2]))
        ):
            certificate.append(CertificateTerm(coef, left, rid, right, perm))

    if not certify:
        return Membership("member", None)
    result = Membership("member", tuple(certificate))
    check = expand_certificate(result.certificate, by_id, x.strands, trunc)
    if check.terms != x.terms:
        from .errors import SurfbraidError

        raise SurfbraidError("internal error: certificate re-expansion mismatch")
    return result


def _component_member(
    target: dict,
    instances,
    window: int,
    max_rounds: int,
    max_rows: int,
    allow_insertions: bool = True,
    track: bool = True,
):
    if not target:
        return {}
    reducer = ExactReducer(track_provenance=track)
    emitted: set = set()
    seen = set(target)
    frontier = sorted(target, key=mono_key)

    def try_rows(mu):
        new_monos = []
        for inst in instances:
            for part, _ in inst.mono_terms():
                if not part and not allow_insertions:
                    continue
                for left, right in _mono_factorizations(mu, part):
                    tag = (left, inst.rid, right)
                    if tag in emitted:
                        continue
                    row: dict = {}
                    for mono, c in inst.mono_terms():
                        m = left + mono + right
                        row[m] = row.get(m, 0) + c
                    row = {m: c for m, c in row.items() if c}
                    if any(bead_length(m) > window for m in row):
                        continue
                    emitted.add(tag)
                    reducer.insert(row, tag)
                    for m in row:
                        if m not in seen:
                            seen.add(m)
                            new_monos.append(m)
        return new_monos

    checked_rank = 0
    for _ in range(max_rounds):
        next_frontier: list = []
        for mu in frontier:
            next_frontier.extend(try_rows(mu))
            if len(emitted) > max_rows:
                break
            if reducer.rank - checked_rank >= 256:
                checked_rank = reducer.rank
                if reducer.contains(target):
                    return reducer.reduce(target)[1]
        checked_rank = reducer.rank
        if reducer.contains(target):
            return reducer.reduce(target)[1]
        if len(emitted) > max_rows or not next_frontier:
            return None
        frontier = sorted(next_frontier, key=mono_key)
    return None


# ---------------------------------------------------------------------------
# degree-one symbol and the disk witness
# ---------------------------------------------------------------------------


def degree_one_symbol(summands, s: SurfaceParams, trunc: Truncation) -> WreathDiagram:
    """Symbol of sum c * u (s_i - s_i^-1) v: each crossing difference
    contributes its chord (Z(i,i+1); s_i) framed by the degree-zero images
    of u and v."""
    from .braid import wreath_image

    total = WreathDiagram.zero(s.strands, trunc)
    for t in summands:
        left = embed_wreath(wreath_image(t.left, s), trunc)
        mid = WreathDiagram(
            s.strands, trunc,
            {((chord(t.crossing, t.crossing + 1),),
              transposition_perm(s.strands, t.crossing)): 1},
        )
        right = embed_wreath(wreath_image(t.right, s), trunc)
        total = total + (left * mid * right).scale(t.coef)
    if total.overflow:
        raise TruncationOverflowError("symbol exceeded the truncation window")
    return total


def disk_augmentation(x: WreathDiagram) -> WreathDiagram:
    """Erase every bead (the homomorphism onto the beadless disk algebra)."""
    out: dict = {}
    for (mono, perm), coef in x.terms.items():
        key = (tuple(sym for sym in mono if sym[0] == "C"), perm)
        out[key] = out.get(key, 0) + coef
    return WreathDiagram(x.strands, x.trunc, out, x.overflow)


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
            kind, idx, sign = sym[2]
            parts.append(f"{kind}{idx}" + ("^-1" if sign < 0 else "") + f"@{sym[1]}")
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
                coef = Fraction(coef_text.strip())
            except (ValueError, ZeroDivisionError) as exc:
                raise ParseError(f"bad coefficient {coef_text.strip()!r}") from exc
        else:
            coef, mono_text = Fraction(1), mono_part
        mono = parse_monomial(mono_text, s)
        if not trunc.fits(mono):
            raise TruncationOverflowError(
                f"monomial {format_monomial(mono)} exceeds the truncation"
            )
        key = (mono, perm)
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
