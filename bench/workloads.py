"""The benchmark's workloads: seeded inputs, the operations a user waits
for, and an oracle for each operation.

An operation is one public call into ``surfbraid``.  Every call goes through
a module attribute (``diagrams.ideal_member``, ``braid.relators``, ...) at
call time, so the tracer in ``tracing.py`` sees it when it has rebound that
attribute.

A workload is a list of tasks; a task is a short list of operations that run
in order and hand results forward through a ``ctx`` dict that starts from
``Task.start`` on every pass (a rewrite chain feeds the symbol, the symbol
feeds the membership query).
Oracles run outside the timed region and never inside a traced span.

The seed only chooses among inputs of one shape: strand orders inside a
class of equal saturation work, loop letters, chain lengths drawn as a
permutation of a fixed multiset.  Two seeds therefore draw different inputs
that cost the same, so run-to-run spread measures the program, not the
sample.  The bounded searches are the exception: every seed runs the same
ones.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from surfbraid import abelianization, braid, cli, diagrams, symplectic
from surfbraid.diagrams import Truncation
from surfbraid.group_algebra import JSummand
from surfbraid.surface import SurfaceParams, free_reduce, inverse_word

WORKLOADS = ("membership", "relator-search", "tables")


@dataclass(frozen=True)
class Op:
    """One timed call.  ``call(ctx)`` returns the result, ``check(ctx,
    result)`` says whether it is right, and ``keep(ctx, result)`` passes it
    on to the next operation of the task."""

    label: str
    phase: str
    call: Callable[[dict], object]
    check: Callable[[dict, object], bool]
    keep: Callable[[dict, object], None] | None = None


@dataclass(frozen=True)
class Task:
    ops: tuple[Op, ...]
    start: tuple = ()  # (name, value) pairs the ctx starts from


def build(workload: str, seed: int) -> list[Task]:
    """The tasks of one workload, in the seeded order a pass runs them."""
    rng = random.Random(f"{workload}:{seed}")
    tasks = {
        "membership": _membership,
        "relator-search": _relator_search,
        "tables": _tables,
    }[workload](rng)
    labels = [op.label for task in tasks for op in task.ops]
    if len(set(labels)) != len(labels):
        raise ValueError(f"{workload}: two operations share a label")
    rng.shuffle(tasks)
    return tasks


def known_defect_probes() -> list[Op]:
    """Calls with a recorded defect.  They run once per run, untimed and
    outside the workload, so that the defect shows in every report."""
    s = SurfaceParams(0, 1, 2)  # no relators, so no move exists
    word = (("s", 1, 1),)
    return [Op(
        "random_relator_rewrite (0,1,2) s1",
        "known_defect",
        lambda ctx: braid.random_relator_rewrite(word, s, random.Random(0)),
        lambda ctx, res: _same_image(word, res[0], s),
    )]


# ---------------------------------------------------------------------------
# membership: transported-chord instances at window 6
# ---------------------------------------------------------------------------

MEMBER_TRUNC = Truncation(max_chords=2, max_beads=6)
WINDOW = 6

# strand orders (i, j, k) of a triple instance, grouped by the saturation
# work ideal_member needs for them when the two loop letters do not cancel:
# about 2.1k and 1.5k reducer inserts at window 6, whatever the letters.
# The third class, (1, 3, 2) and (2, 3, 1), needs 4.1k inserts and 3-4 s a
# query; it is left out so that a run times every query several times.
PERM_CLASSES = (
    ((1, 2, 3), (3, 2, 1)),
    ((2, 1, 3), (3, 1, 2)),
)


def _pair(s, i, j, ga):
    ginv = ((ga[0], ga[1], -ga[2]),)
    return diagrams.conjugated_chord(s, i, j, (ga,), MEMBER_TRUNC) - \
        diagrams.conjugated_chord(s, j, i, ginv, MEMBER_TRUNC)


def _triple(s, i, j, k, ga, de):
    x = diagrams.conjugated_chord(s, i, j, (ga,), MEMBER_TRUNC)
    y = diagrams.conjugated_chord(s, j, k, (de,), MEMBER_TRUNC)
    z = diagrams.conjugated_chord(s, i, k, (ga, de), MEMBER_TRUNC)
    return x * (y + z) - (y + z) * x


def _inv(let):
    return (let[0], let[1], -let[2])


def _name(let) -> str:
    return f"{let[0]}{let[1]}" + ("^-1" if let[2] < 0 else "")


def _member_op(label, phase, s, x, certify):
    def call(ctx):
        return diagrams.ideal_member(x, s, MEMBER_TRUNC, WINDOW, certify=certify)

    def check(ctx, res):
        if not res.is_member:
            return False
        if not certify:
            return res.certificate is None
        return _reexpands(res.certificate, x, s, MEMBER_TRUNC)

    return Op(label, phase, call, check)


def _reexpands(certificate, x, s, trunc) -> bool:
    by_id = {inst.rid: inst for inst in diagrams.relation_instances(s, trunc)}
    total = diagrams.expand_certificate(certificate, by_id, s.strands, trunc)
    return total.terms == x.terms


def _membership(rng: random.Random) -> list[Task]:
    tasks = []

    def add(label, phase, s, x, certify=False):
        tasks.append(Task((_member_op(label, phase, s, x, certify),)))

    # pairs: decided by the bead normal form, no reducer insert
    for g, p, n in [(1, 1, 2), (1, 1, 3), (0, 2, 2), (0, 2, 3)]:
        s = SurfaceParams(g, p, n)
        pool = [(i, j, ga)
                for i, j in itertools.permutations(range(1, n + 1), 2)
                for ga in s.pi1_letters()]
        for i, j, ga in rng.sample(pool, 3):
            add(f"pair ({g},{p},{n}) {i},{j} {_name(ga)}", "uncertified",
                s, _pair(s, i, j, ga))

    for g, p in [(1, 1), (0, 2)]:
        s = SurfaceParams(g, p, 3)
        letters = s.pi1_letters()
        # the letters cancel: a small saturation, one per strand order and
        # two for the orders of PERM_CLASSES[1], whose queries take about
        # twice as long, so that the tail percentile falls among them
        for perm in itertools.permutations(range(1, 4)):
            for ga in rng.sample(letters, 2 if perm in PERM_CLASSES[1] else 1):
                add(f"triple ({g},{p},3) {perm} {_name(ga)},{_name(_inv(ga))}",
                    "uncertified", s, _triple(s, *perm, ga, _inv(ga)))
        # the letters do not cancel: the heavy saturation, one per class
        for cls in PERM_CLASSES:
            perm = rng.choice(cls)
            ga, de = rng.choice([(a, b) for a in letters for b in letters
                                 if b != _inv(a)])
            add(f"triple ({g},{p},3) {perm} {_name(ga)},{_name(de)}",
                "uncertified", s, _triple(s, *perm, ga, de))

    # certified: the acceptance-test instances, plus one seeded (1,1,3) triple
    a1, b1 = ("a", 1, 1), ("b", 1, 1)
    s = SurfaceParams(1, 0, 2)
    add("certified pair (1,0,2) 1,2 a1", "certified", s, _pair(s, 1, 2, a1), True)
    s = SurfaceParams(1, 0, 3)
    add("certified triple (1,0,3) (1, 2, 3) a1,b1", "certified",
        s, _triple(s, 1, 2, 3, a1, b1), True)
    s = SurfaceParams(1, 1, 3)
    perm = rng.choice(PERM_CLASSES[1])
    ga = rng.choice(s.pi1_letters())
    add(f"certified triple (1,1,3) {perm} {_name(ga)},{_name(ga)}", "certified",
        s, _triple(s, *perm, ga, ga), True)
    return tasks


# ---------------------------------------------------------------------------
# relator-search: rewrite chains under the degree-one symbol, bounded search
# ---------------------------------------------------------------------------

PIPELINE_SURFACES = [(1, 1, 2), (1, 0, 2), (2, 1, 3), (1, 0, 3), (2, 0, 2),
                     (0, 1, 2), (0, 2, 3)]
SYMBOL_TRUNC = Truncation()
SEARCH_DEPTH = 2


def _same_image(u, v, s) -> bool:
    a, b = braid.wreath_image(u, s), braid.wreath_image(v, s)
    return a.beads == b.beads and a.perm == b.perm


def _rewrite_op(label, s, key, op_seed):
    def call(ctx):
        return braid.random_relator_rewrite(ctx[key], s, random.Random(op_seed))

    def check(ctx, res):
        word, move = res
        return word == braid.apply_move(ctx[key], move) and \
            _same_image(ctx[key], word, s)

    def keep(ctx, res):
        ctx[key] = res[0]

    return Op(label, "rewrite", call, check, keep)


def _symbol_check_task(label, s, u, v, base, u_seeds, v_seeds) -> Task:
    ops = [_rewrite_op(f"{label} u#{k}", s, "u", sd) for k, sd in enumerate(u_seeds)]
    ops += [_rewrite_op(f"{label} v#{k}", s, "v", sd) for k, sd in enumerate(v_seeds)]

    def symbol(ctx):
        return diagrams.degree_one_symbol(
            [JSummand(Fraction(1), ctx["u"], 1, ctx["v"])], s, SYMBOL_TRUNC)

    def symbol_ok(ctx, res):
        # one chord term, coefficient 1, over the braid's strand permutation
        perm = braid.strand_permutation(ctx["u"] + (("s", 1, 1),) + ctx["v"], s.strands)
        ((mono, p), c), = res.terms.items()
        return c == 1 and p == perm and diagrams.chord_degree(mono) == 1

    def keep(ctx, res):
        ctx["diff"] = res - base

    def member(ctx):
        return diagrams.ideal_member(ctx["diff"], s, SYMBOL_TRUNC, WINDOW)

    def member_ok(ctx, res):
        return res.is_member and _reexpands(res.certificate, ctx["diff"], s, SYMBOL_TRUNC)

    ops.append(Op(f"{label} symbol", "rewrite", symbol, symbol_ok, keep))
    ops.append(Op(f"{label} member", "rewrite", member, member_ok))
    return Task(tuple(ops), (("u", u), ("v", v)))


def _random_word(rng, s, length):
    gens = [("s", 1, 1), ("s", 1, -1)] + s.pi1_letters()
    while True:
        w = free_reduce(tuple(rng.choice(gens) for _ in range(length)))
        if len(w) == length:
            return w


def _search_op(label, s, u, v, expect_equal):
    def call(ctx):
        return braid.bounded_equal(u, v, s, SEARCH_DEPTH)

    def check(ctx, res):
        if not expect_equal:
            return res.status == "unknown"
        if not res.is_equal:
            return False
        w = u
        for mv in res.moves:
            w = braid.apply_move(w, mv)
        return w == free_reduce(v)

    return Op(label, "search", call, check)


def _relator_search(rng: random.Random) -> list[Task]:
    tasks = []
    for g, p, n in PIPELINE_SURFACES:
        s = SurfaceParams(g, p, n)
        letters = s.pi1_letters()
        # the framing pair of the acceptance test
        u = ((letters[0],) if letters else ()) + (("s", 1, 1),)
        v = (("s", 1, -1),) + ((letters[-1],) if letters else ())
        base = diagrams.degree_one_symbol([JSummand(Fraction(1), u, 1, v)], s, SYMBOL_TRUNC)
        u_lens, v_lens = [1, 2, 3], [1, 2, 3]
        if braid.relators(s):
            rng.shuffle(u_lens)
            rng.shuffle(v_lens)
        else:
            u_lens = v_lens = [0, 0, 0]  # (0,1,2) has no moves: see known_defect_probes
        for c, (lu, lv) in enumerate(zip(u_lens, v_lens)):
            tasks.append(_symbol_check_task(
                f"rewrite ({g},{p},{n}) #{c}", s, u, v, base,
                [rng.randrange(2**32) for _ in range(lu)],
                [rng.randrange(2**32) for _ in range(lv)],
            ))

    # the searches cost the most here and their cost swings with the words,
    # so every seed draws the same ones
    fixed = random.Random("relator-search:searches")
    for g, p, n in [(1, 1, 2), (1, 0, 2)]:
        s = SurfaceParams(g, p, n)
        gens = [("s", 1, 1), ("s", 1, -1)] + s.pi1_letters()
        # different wreath images: the search must exhaust depth 2
        u = _random_word(fixed, s, 3)
        v = free_reduce(u + (fixed.choice(gens),))
        while _same_image(u, v, s):
            v = free_reduce(u + (fixed.choice(gens),))
        tasks.append(Task((_search_op(f"search ({g},{p},{n}) unknown", s, u, v, False),)))
        # two relator insertions apart, the first in the middle of the word
        u = _random_word(fixed, s, 3)
        rels = [r.word for r in braid.relators(s)]
        rels += [inverse_word(r) for r in rels]
        w = u
        for pos in (len(u) // 2, None):
            pos = fixed.randrange(len(w) + 1) if pos is None else pos
            w = braid.apply_move(w, braid.Move(pos, (), fixed.choice(rels), ""))
        tasks.append(Task((_search_op(f"search ({g},{p},{n}) equal", s, u, w, True),)))
    return tasks


# ---------------------------------------------------------------------------
# tables: symplectic dimensions, torsion reports, the verify-theorem grid
# ---------------------------------------------------------------------------

SYMP_TABLES = [((1, 0, 2), 6), ((1, 1, 3), 4)]
# (surface, bead truncation, the torsion-free answer the acceptance suite
# promises); on (2,0,2) the union-find leaves rows, so the Smith form runs
TORSION_CASES = [((1, 1, 2), 4, True), ((1, 0, 2), 4, True), ((0, 2, 2), 4, True),
                 ((2, 0, 2), 3, None)]
VERIFY_SURFACES = [(1, 1, 2), (1, 0, 2), (2, 1, 3), (1, 0, 3), (2, 0, 2),
                   (2, 1, 4), (3, 0, 3), (0, 1, 2), (0, 2, 3)]


def hilbert_coefficients(g: int, p: int, n: int, dmax: int) -> list[int]:
    """Graded dimensions from the closed-form Hilbert series
    ``prod_{k=1..n} 1/(1 - 2g t - (k+p-2) t^2)`` for p >= 1 and
    ``(1-t)^-2 prod_{k=2..n} 1/(1 - 2t - (k-2) t^2)`` for the closed torus."""
    if p >= 1:
        factors = [(2 * g, k + p - 2) for k in range(1, n + 1)]
    elif g == 1:
        factors = [(1, 0), (1, 0)] + [(2, k - 2) for k in range(2, n + 1)]
    else:
        raise ValueError("no product formula for closed surfaces of genus != 1")
    series = [1] + [0] * dmax
    for a, b in factors:
        # multiply by 1 / (1 - a t - b t^2)
        out = []
        for d in range(dmax + 1):
            v = series[d]
            if d >= 1:
                v += a * out[d - 1]
            if d >= 2:
                v += b * out[d - 2]
            out.append(v)
        series = out
    return series


def _symp_op(g, p, n, d, expected):
    s = SurfaceParams(g, p, n)
    return Op(f"symp_graded_dim ({g},{p},{n}) d={d}", "symp",
              lambda ctx: symplectic.symp_graded_dim(s, d),
              lambda ctx, res: res == expected)


def _torsion_op(surface, max_beads, torsion_free):
    g, p, n = surface
    s = SurfaceParams(g, p, n)
    trunc = Truncation(max_beads=max_beads)
    # chord-degree-1 monomials: k beads over n * |letters| bead symbols, the
    # chord in one of k + 1 slots, C(n, 2) chords
    beads = n * (4 * g + 2 * max(p - 1, 0))
    columns = sum(beads ** k * (k + 1) for k in range(max_beads + 1)) * n * (n - 1) // 2

    def check(ctx, res):
        return res.columns == columns and res.rows > 0 \
            and res.torsion_free == (not res.divisors_gt_one) \
            and torsion_free in (None, res.torsion_free)

    return Op(f"degree_one_torsion ({g},{p},{n}) beads<={max_beads}", "torsion",
              lambda ctx: abelianization.degree_one_torsion(s, trunc), check)


def _verify_op(g, p, n):
    argv = ["verify-theorem", "-g", str(g), "-p", str(p), "-n", str(n)]
    expected = 0 if g >= 1 else 1
    verdict = "VERDICT ObstructionEstablished" if g >= 1 else "VERDICT HypothesisNotMet"

    def call(ctx):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        return code, out.getvalue()

    def check(ctx, res):
        code, text = res
        return code == expected and text.rstrip().endswith(verdict)

    return Op(f"verify-theorem ({g},{p},{n})", "verify_grid", call, check)


def _tables(rng: random.Random) -> list[Task]:
    tasks = []
    for (g, p, n), dmax in SYMP_TABLES:
        dims = hilbert_coefficients(g, p, n, dmax)
        tasks += [Task((_symp_op(g, p, n, d, dims[d]),)) for d in range(dmax + 1)]
    tasks += [Task((_torsion_op(*t),)) for t in TORSION_CASES]
    tasks += [Task((_verify_op(*t),)) for t in VERIFY_SURFACES]
    return tasks
