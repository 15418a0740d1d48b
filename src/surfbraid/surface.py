"""Surface parameters and exact words in the fundamental group.

The fundamental group of a compact orientable surface of genus ``g`` with
``p`` boundary components is generated by handle loops ``a_1 .. a_g``,
``b_1 .. b_g`` and boundary loops ``z_1 .. z_{p-1}``.  For ``p >= 1`` the
group is free on those letters.  Closed surfaces carry a single relator,
written with the commutator convention ``[x, y] = x y x^-1 y^-1``::

    R_g = [a_1, b_1^-1] [a_2, b_2^-1] ... [a_g, b_g^-1]

Words are kept in a normal form that is canonical on every surface: two
words give the same normal form exactly when they are the same element.

* ``p >= 1``        -- free reduction,
* ``p = 0, g = 0``  -- the trivial group (no letters exist),
* ``p = 0, g = 1``  -- exponent form ``a_1^m b_1^k`` (the relator makes
  the two letters commute),
* ``p = 0, g >= 2`` -- reduction by a complete rewriting system of the
  group, built once per genus by ``rewriting.complete`` from the relations
  ``x x^-1 = 1`` and ``R_g = 1``.

Surface groups have finite complete rewriting systems (Le Chenadec,
*Canonical Forms in Finitely Presented Algebras*, 1986).  With the b letters
ordered before the a letters the completion closes on ``8g`` rules, and
``unresolved()`` is empty, so by Bergman's diamond lemma the normal words
are one per group element.  The normal form is shortlex-least in the
completion's order, so it is a geodesic.  The genus-one system gives the
exponent form above, which is computed directly.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass

from .errors import InvalidGeneratorError, ParameterError, ParseError
from .rewriting import RewritingSystem, complete

# A letter is (kind, index, sign) with kind in {"a", "b", "z"} and sign +-1.
Letter = tuple[str, int, int]
Word = tuple[Letter, ...]

_TOKEN_RE = re.compile(r"^([a-z])(\d+)(\^-1)?$")
_KIND_RANK = {"a": 0, "b": 1}


def letter(kind: str, index: int, sign: int = 1) -> Letter:
    return (kind, index, sign)


def inverse_word(word: Word) -> Word:
    return tuple((k, i, -s) for (k, i, s) in reversed(word))


def free_reduce(word) -> tuple:
    """Cancel adjacent inverse pairs; works on any (kind, index, sign) letters."""
    out: list = []
    for k, i, s in word:
        if out and out[-1][0] == k and out[-1][1] == i and out[-1][2] == -s:
            out.pop()
        else:
            out.append((k, i, s))
    return tuple(out)


def letter_sort_key(l: Letter) -> tuple:
    """Fixed order a_1 < a_1^-1 < b_1 < b_1^-1 < a_2 < ... < z_1 < ... ."""
    kind, idx, sign = l
    if kind in _KIND_RANK:
        return (0, idx, _KIND_RANK[kind], 0 if sign > 0 else 1)
    return (1, idx, 0, 0 if sign > 0 else 1)


def word_sort_key(word: Word) -> tuple:
    return (len(word), tuple(letter_sort_key(l) for l in word))


def parse_word(text: str, kinds: tuple[str, ...] = ("a", "b", "z")) -> tuple:
    """Parse a whitespace-separated word such as ``"a1 b1^-1"``; ``"1"`` or
    the empty string denote the empty word."""
    text = text.strip()
    if text in ("", "1"):
        return ()
    out = []
    for tok in text.split():
        m = _TOKEN_RE.match(tok)
        if m is None:
            raise ParseError(f"bad letter token {tok!r}")
        kind, idx, inv = m.group(1), int(m.group(2)), m.group(3)
        if kind not in kinds:
            raise ParseError(f"letter kind {kind!r} not allowed here (expected one of {kinds})")
        if idx < 1:
            raise ParseError(f"letter index must be >= 1 in {tok!r}")
        out.append((kind, idx, -1 if inv else 1))
    return tuple(out)


def format_word(word) -> str:
    if not word:
        return "1"
    return " ".join(f"{k}{i}" + ("^-1" if s < 0 else "") for (k, i, s) in word)


@dataclass(frozen=True)
class SurfaceParams:
    """Genus, number of boundary components, and number of braid strands.

    Strand counts >= 1 are accepted so that the strand-indexed diagram
    algebras are available; the braid presentation itself needs n >= 2 and
    the braid-level operations enforce that separately.
    """

    genus: int
    boundary: int
    strands: int

    def __post_init__(self):
        if self.genus < 0 or self.boundary < 0:
            raise ParameterError("genus and boundary must be non-negative")
        if self.strands < 1:
            raise ParameterError("strand count must be >= 1")

    @property
    def closed(self) -> bool:
        return self.boundary == 0

    def pi1_letter_valid(self, l: Letter) -> bool:
        kind, idx, sign = l
        if sign not in (1, -1):
            return False
        if kind in ("a", "b"):
            return 1 <= idx <= self.genus
        if kind == "z":
            return 1 <= idx <= self.boundary - 1
        return False

    def pi1_letters(self) -> list[Letter]:
        """All signed generator letters, in the fixed lexicographic order."""
        out = []
        for r in range(1, self.genus + 1):
            out += [("a", r, 1), ("a", r, -1), ("b", r, 1), ("b", r, -1)]
        for k in range(1, self.boundary):
            out += [("z", k, 1), ("z", k, -1)]
        return out

    def surface_relator(self) -> Word:
        """The closed-surface relator [a_1,b_1^-1]...[a_g,b_g^-1] (p = 0 only)."""
        if not self.closed:
            raise ParameterError("the surface relator exists only for closed surfaces")
        word: list[Letter] = []
        for r in range(1, self.genus + 1):
            word += [("a", r, 1), ("b", r, -1), ("a", r, -1), ("b", r, 1)]
        return tuple(word)


def check_pi1_word(word: Word, s: SurfaceParams) -> None:
    for l in word:
        if not s.pi1_letter_valid(l):
            raise InvalidGeneratorError(
                f"letter {format_word((l,))} does not exist on genus {s.genus}, "
                f"boundary {s.boundary}"
            )


def _torus_normal_form(word: Word) -> Word:
    # closed genus one: the relator forces a_1 and b_1 to commute
    m = sum(s for (k, _, s) in word if k == "a")
    k = sum(s for (kk, _, s) in word if kk == "b")
    out: list[Letter] = []
    out += [("a", 1, 1 if m > 0 else -1)] * abs(m)
    out += [("b", 1, 1 if k > 0 else -1)] * abs(k)
    return tuple(out)


@functools.lru_cache(maxsize=None)
def _closed_system(genus: int) -> tuple[RewritingSystem, tuple[Letter, ...], dict]:
    """The complete rewriting system of pi_1 of the closed surface of genus
    ``genus``, its letters and their codes.  The b letters come first, then
    the a letters, each followed by its inverse: ``b_1, b_1^-1, ..., a_g^-1``
    are coded ``0 .. 4g-1``.  The relations are ``x x^-1 = 1`` for every
    signed letter and ``R_g = 1``; without a degree bound the completion
    closes on ``8g`` rules."""
    letters = tuple((kind, r, sign) for kind in "ba" for r in range(1, genus + 1)
                    for sign in (1, -1))
    code = {l: i for i, l in enumerate(letters)}
    relations = [{(i, i ^ 1): 1, (): -1} for i in range(len(letters))]
    relator = tuple(map(code.__getitem__, SurfaceParams(genus, 0, 2).surface_relator()))
    relations.append({relator: 1, (): -1})
    return complete([1] * len(letters), relations, None), letters, code


def pi1_normalize(word: Word, s: SurfaceParams) -> Word:
    """The normal form of a fundamental group word: canonical on every
    surface, so two words give the same normal form exactly when they are
    the same group element."""
    check_pi1_word(word, s)
    if not s.closed:
        return free_reduce(word)
    if s.genus == 0:
        return ()  # no letters exist on the sphere; validation already passed
    if s.genus == 1:
        return _torus_normal_form(word)
    system, letters, code = _closed_system(s.genus)
    (normal,) = system.reduce({tuple(map(code.__getitem__, word)): 1})
    return tuple(map(letters.__getitem__, normal))
