"""Singular braid words, their desingularization, and J-expressions.

Singular words carry crossings ``x_i`` that desingularize to
``s_i - s_i^-1``: the result is a signed sum of freely reduced braid words,
a ``dict`` word -> nonzero int with syntactic equality; group-level
equality is deliberately not provided (consumers pass to homomorphic
images instead).  A ``JExpression`` is a structured sum
``sum c * u (s_i - s_i^-1) v`` of such differences framed by ordinary
words.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import ParseError
from .rewriting import _add, _coefficient
from .surface import SurfaceParams, format_word, free_reduce, parse_word, word_sort_key
from .braid import BraidWord, check_braid_word, parse_braid_word


def format_algebra_element(terms: dict) -> str:
    """One ``coef * word`` line per term of a map word -> coefficient, in
    the fixed word order."""
    if not terms:
        return "0"
    return "\n".join(f"{terms[word]} * {format_word(word)}"
                     for word in sorted(terms, key=word_sort_key))


# ---------------------------------------------------------------------------
# singular words
# ---------------------------------------------------------------------------

SINGULAR_KINDS = ("s", "a", "b", "z", "x")


def parse_singular_word(text: str, s: SurfaceParams) -> tuple:
    """Braid word grammar extended with singular crossings ``x1 .. x{n-1}``
    (a transverse double point carries no sign, so ``x1^-1`` is rejected)."""
    word = parse_word(text, kinds=SINGULAR_KINDS)
    for kind, idx, sign in word:
        if kind == "x":
            if sign != 1:
                raise ParseError("singular crossings carry no inverse")
            if not 1 <= idx <= s.strands - 1:
                raise ParseError(
                    f"x{idx} needs {idx + 1} strands but only {s.strands} present"
                )
    check_braid_word(tuple(l for l in word if l[0] != "x"), s)
    return word


def desingularize(word) -> dict:
    """Signed sum over the 2^d resolutions of the d singular crossings, each
    replaced by s_i (+) or s_i^-1 (-) with coefficient the product of signs:
    a map freely reduced word -> nonzero int."""
    crossings = [pos for pos, letter in enumerate(word) if letter[0] == "x"]
    out: dict = {}
    for signs in itertools.product((1, -1), repeat=len(crossings)):
        resolved = list(word)
        for pos, sign in zip(crossings, signs):
            resolved[pos] = ("s", word[pos][1], sign)
        _add(out, free_reduce(tuple(resolved)), math.prod(signs))
    return out


# ---------------------------------------------------------------------------
# structured elements of the singular-difference ideal
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class JSummand:
    """One summand c * u (s_i - s_i^-1) v; ``coef`` is made exact on entry
    (``rewriting._coefficient``: an int when integral, else a Fraction, and
    ParameterError on anything not rational)."""

    coef: int | Fraction
    left: BraidWord
    crossing: int
    right: BraidWord

    def __post_init__(self):
        object.__setattr__(self, "coef", _coefficient(self.coef))


def parse_jexpr(text: str, s: SurfaceParams) -> list[JSummand]:
    """Parse ``coef | u | i | v`` summands separated by ``;`` — e.g.
    ``1 | 1 | 1 | s1`` denotes (s1 - s1^-1) s1."""
    out = []
    for chunk in text.split(";"):
        parts = [p.strip() for p in chunk.split("|")]
        if len(parts) != 4:
            raise ParseError(f"expected 'coef | u | i | v', got {chunk.strip()!r}")
        try:
            coef = Fraction(parts[0])
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"bad coefficient {parts[0]!r}") from exc
        left = parse_braid_word(parts[1], s)
        try:
            idx = int(parts[2])
        except ValueError as exc:
            raise ParseError(f"bad crossing index {parts[2]!r}") from exc
        if not 1 <= idx <= s.strands - 1:
            raise ParseError(f"crossing index {idx} out of range 1..{s.strands - 1}")
        right = parse_braid_word(parts[3], s)
        out.append(JSummand(coef, left, idx, right))
    return out
