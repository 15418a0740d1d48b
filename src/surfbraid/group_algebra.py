"""Formal linear combinations of braid words and singular-word expansion.

``AlgebraElement`` is a finite rational combination of freely reduced braid
words with syntactic equality, each coefficient an int when it is integral
(``rewriting._coefficient``, as in ``diagrams``); group-level equality is
deliberately not provided (consumers pass to homomorphic images instead).  Singular words
carry crossings ``x_i`` that desingularize to ``s_i - s_i^-1``, and a
``JExpression`` is a structured sum ``sum c * u (s_i - s_i^-1) v`` of such
differences framed by ordinary words.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import ParseError
from .rewriting import _coefficient
from .surface import SurfaceParams, format_word, free_reduce, parse_word, word_sort_key
from .braid import BraidWord, check_braid_word, parse_braid_word


class AlgebraElement:
    """A finite map word -> nonzero rational, closed under +, -, *."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean: dict[BraidWord, int | Fraction] = {}
        for word, coef in (terms or {}).items():
            coef = _coefficient(coef)
            if coef:
                word = free_reduce(word)
                c = clean.get(word, 0) + coef
                if c:
                    clean[word] = _coefficient(c)
                elif word in clean:
                    del clean[word]
        self.terms = clean

    @classmethod
    def from_word(cls, word: BraidWord, coef=1) -> "AlgebraElement":
        return cls({tuple(word): coef})

    @classmethod
    def one(cls) -> "AlgebraElement":
        return cls({(): 1})

    @classmethod
    def zero(cls) -> "AlgebraElement":
        return cls()

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        out = dict(self.terms)
        for w, c in other.terms.items():
            out[w] = out.get(w, 0) + c
        return AlgebraElement(out)

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        return self + (-other)

    def __neg__(self) -> "AlgebraElement":
        return AlgebraElement({w: -c for w, c in self.terms.items()})

    def scale(self, coef) -> "AlgebraElement":
        coef = _coefficient(coef)
        return AlgebraElement({w: coef * c for w, c in self.terms.items()})

    def __mul__(self, other: "AlgebraElement") -> "AlgebraElement":
        out: dict[BraidWord, int | Fraction] = {}
        for wu, cu in self.terms.items():
            for wv, cv in other.terms.items():
                w = free_reduce(wu + wv)
                out[w] = out.get(w, 0) + cu * cv
        return AlgebraElement(out)

    def __eq__(self, other) -> bool:
        return isinstance(other, AlgebraElement) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __repr__(self):
        return f"AlgebraElement({format_algebra_element(self)!r})"


def format_algebra_element(x: AlgebraElement) -> str:
    """One ``coef * word`` line per term, in the fixed word order."""
    if x.is_zero:
        return "0"
    lines = []
    for word in sorted(x.terms, key=word_sort_key):
        lines.append(f"{x.terms[word]} * {format_word(word)}")
    return "\n".join(lines)


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


def singular_degree(word) -> int:
    return sum(1 for l in word if l[0] == "x")


def desingularize(word) -> AlgebraElement:
    """Signed sum over the 2^d resolutions of the d singular crossings, each
    replaced by s_i (+) or s_i^-1 (-) with coefficient the product of signs."""
    out = AlgebraElement.from_word(())
    for kind, idx, sign in word:
        if kind == "x":
            diff = AlgebraElement({(("s", idx, 1),): 1, (("s", idx, -1),): -1})
            out = out * diff
        else:
            out = out * AlgebraElement.from_word(((kind, idx, sign),))
    return out


# ---------------------------------------------------------------------------
# structured elements of the singular-difference ideal
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class JSummand:
    """One summand c * u (s_i - s_i^-1) v."""

    coef: int | Fraction
    left: BraidWord
    crossing: int
    right: BraidWord


def jexpr_value(summands) -> AlgebraElement:
    out = AlgebraElement.zero()
    for t in summands:
        pos = AlgebraElement.from_word(t.left + (("s", t.crossing, 1),) + t.right, t.coef)
        neg = AlgebraElement.from_word(t.left + (("s", t.crossing, -1),) + t.right, t.coef)
        out = out + pos - neg
    return out


def parse_jexpr(text: str, s: SurfaceParams) -> list[JSummand]:
    """Parse ``coef | u | i | v`` summands separated by ``;`` — e.g.
    ``1 | 1 | 1 | s1`` denotes (s1 - s1^-1) s1."""
    out = []
    for chunk in text.split(";"):
        parts = [p.strip() for p in chunk.split("|")]
        if len(parts) != 4:
            raise ParseError(f"expected 'coef | u | i | v', got {chunk.strip()!r}")
        try:
            coef = _coefficient(Fraction(parts[0]))
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
