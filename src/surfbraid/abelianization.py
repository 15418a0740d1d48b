"""Abelianization of the diagram algebra in chord degrees 0 and 1.

In the commutative quotient the strands become indistinguishable: a bead
``gamma@i`` maps to a strand-independent variable (``abar_s``, ``bbar_s``
or ``zbar_k``) with its sign as an integer exponent, every chord maps to
the single degree-one variable ``Z12``, and a permutation contributes
``tau`` raised to its parity (``tau^2 = 1``).  The computation is exact
over the rationals; integer structure questions (torsion of the degree-one
piece) are answered separately by ``degree_one_torsion``, which only builds
the framed relation rows of the truncated span and leaves their elimination
to ``linalg.elementary_divisors``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from .braid import perm_sign
from .diagrams import (
    Truncation,
    WreathDiagram,
    bead_length,
    bead_multidegree,
    chord_degree,
    relation_instances,
)
from .errors import ResourceLimitError, UnsupportedDegreeError
from .linalg import elementary_divisors
from .surface import SurfaceParams

# an H1 element maps keys (z_exponent, tau_bit, ((kind, idx), net), ...) to
# rational coefficients
H1Key = tuple


def h1_class(x: WreathDiagram, s: SurfaceParams) -> dict:
    """Class of a chord-degree <= 1 element in the commutative quotient."""
    out: dict[H1Key, Fraction] = {}
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
            out[key] = c
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
    coefficient: Fraction | None = None


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
        f"relation rows: {rep.rows}, rank {rep.rank}",
        f"elementary divisors > 1: {divisors}",
        "torsion-free: " + ("yes" if rep.torsion_free else "NO"),
    ])


def _bead_symbols(s: SurfaceParams) -> list:
    return [("B", i, let) for i in range(1, s.strands + 1) for let in s.pi1_letters()]


def _chord_symbols(s: SurfaceParams) -> list:
    return [
        ("C", i, j)
        for i in range(1, s.strands + 1)
        for j in range(i + 1, s.strands + 1)
    ]


def _monomials_fixed(s: SurfaceParams, beads_exact: int, chords_exact: int) -> list:
    """All monomials with exactly the given bead and chord counts."""
    beads = _bead_symbols(s)
    out = []
    for bs in product(beads, repeat=beads_exact):
        if chords_exact == 0:
            out.append(bs)
        else:
            for z in _chord_symbols(s):
                for pos in range(beads_exact + 1):
                    out.append(bs[:pos] + (z,) + bs[pos:])
    return out


def _frames(s: SurfaceParams, free_beads: int, free_chords: int):
    """All (left, right) monomial pairs spending at most ``free_beads`` bead
    symbols and exactly ``free_chords`` chords between them."""
    cache: dict = {}

    def monos(b, c):
        if (b, c) not in cache:
            cache[(b, c)] = _monomials_fixed(s, b, c)
        return cache[(b, c)]

    for cl in range(free_chords + 1):
        cr = free_chords - cl
        for bl in range(free_beads + 1):
            for br in range(free_beads - bl + 1):
                for left in monos(bl, cl):
                    for right in monos(br, cr):
                        yield left, right


def _frame_count(s: SurfaceParams, free_beads: int, free_chords: int) -> int:
    """How many pairs ``_frames`` yields, from the sizes of its monomial sets:
    with B bead symbols, B^b monomials of b beads and no chord, and
    B^b * C(n,2) * (b+1) with one chord."""
    beads, chords = len(_bead_symbols(s)), len(_chord_symbols(s))

    def monos(b, c):
        return beads ** b * (chords * (b + 1) if c else 1)

    return sum(
        monos(bl, cl) * monos(br, free_chords - cl)
        for cl in range(free_chords + 1)
        for bl in range(free_beads + 1)
        for br in range(free_beads - bl + 1)
    )


# Framed rows cost about 790 bytes of peak memory each (533,332 rows of
# (2,0,2) at 4 beads peak at 420 MB), so this caps the check near 0.8 GB.
MAX_FRAMED_ROWS = 1_000_000


def _framed_instances(s: SurfaceParams, trunc: Truncation) -> list:
    """(terms, free beads, free chords) of each chord-degree <= 1 relation
    instance: the frame budget left beside it within the truncation."""
    out = []
    for inst in relation_instances(s, trunc):
        if inst.element.max_chord_degree() > 1:
            continue
        terms = inst.mono_terms()
        rl = max(bead_length(m) for m, _ in terms)
        rc = max(chord_degree(m) for m, _ in terms)
        out.append((terms, trunc.max_beads - rl, 1 - rc))
    return out


def _framed_row_bound(s: SurfaceParams, instances: list) -> int:
    return sum(_frame_count(s, fb, fc) for _, fb, fc in instances)


def _framed_rows(s: SurfaceParams, trunc: Truncation) -> list[dict]:
    """Every chord-degree-1 relation instance framed by monomials on both
    sides, as integer rows over monomials within the bead truncation; each
    distinct row once.  Raises ``ResourceLimitError`` before framing when
    the frames could give more than ``MAX_FRAMED_ROWS`` rows."""
    instances = _framed_instances(s, trunc)
    bound = _framed_row_bound(s, instances)
    if bound > MAX_FRAMED_ROWS:
        raise ResourceLimitError(
            f"the torsion check on genus {s.genus}, boundary {s.boundary}, "
            f"{s.strands} strands at {trunc.max_beads} beads frames up to "
            f"{bound} relation rows, over the limit of {MAX_FRAMED_ROWS}"
        )
    L = trunc.max_beads
    rows: dict = {}  # frozenset of items -> sparse row
    for terms, free_beads, free_chords in instances:
        for left, right in _frames(s, free_beads, free_chords):
            row: dict = {}
            for m, c in terms:
                key = left + m + right
                row[key] = row.get(key, 0) + int(c)
            row = {m: c for m, c in row.items() if c}
            if not row or any(bead_length(m) > L for m in row):
                continue
            rows.setdefault(frozenset(row.items()), row)
    return list(rows.values())


def degree_one_torsion(s: SurfaceParams, trunc: Truncation = Truncation()) -> TorsionReport:
    """Elementary divisors of the chord-degree-1 relation span over the
    integers, at the given truncation.

    The framed relation rows go to one ``elementary_divisors`` call, which
    contracts the unit two-term rows (bead commutation and cancellation)
    itself.  ``rank`` is the number of divisors: the rank of the span.
    Raises ``ResourceLimitError``, before any row is built, when the frames
    could give more than ``MAX_FRAMED_ROWS`` rows.
    """
    rows = _framed_rows(s, trunc)
    divisors = elementary_divisors(rows)
    bad = tuple(sorted(d for d in divisors if d != 1))
    return TorsionReport(
        surface=s,
        trunc=trunc,
        columns=_count_degree_one_monomials(s, trunc.max_beads),
        rows=len(rows),
        rank=len(divisors),
        divisors_gt_one=bad,
        torsion_free=not bad,
    )


def _count_degree_one_monomials(s: SurfaceParams, max_beads: int) -> int:
    b = len(_bead_symbols(s))
    z = len(_chord_symbols(s))
    return sum((b ** k) * (k + 1) * z for k in range(max_beads + 1))


def relation_classes_killed(s: SurfaceParams, trunc: Truncation) -> bool:
    """h1_class of every chord-degree <= 1 relation instance vanishes."""
    for inst in relation_instances(s, trunc):
        if inst.element.max_chord_degree() > 1:
            continue
        if h1_class(inst.element, s):
            return False
    return True
