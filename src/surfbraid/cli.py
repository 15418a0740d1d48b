"""Command-line front end.

Exit codes: 0 success; 1 mathematical negative (proven: NotMember,
NotEqual; proven at the bead window only, not against the whole ideal:
NotMemberAtWindow, printed with its windowed normal-form witness, and
NotEqualAtWindow; inconclusive: Unknown; HypothesisNotMet, a failed
redundancy check); 2 usage or hypothesis error; 3 resource exhaustion
(node budgets, truncation overflow, word caps, the completion's rule
limit).
"""

from __future__ import annotations

import argparse
import sys

from .abelianization import format_h1, h1_class
from .braid import (
    bounded_equal,
    format_perm_cycles,
    identity_perm,
    parse_braid_word,
    relators,
    strand_permutation,
    wreath_image,
)
from .config import Config, load_config, override
from .diagrams import (
    Truncation,
    degree_one_symbol,
    format_certificate,
    format_diagram,
    format_monomial,
    ideal_member,
    mono_key,
    parse_diagram,
)
from .errors import ParameterError, ResourceLimitError, SurfbraidError, TruncationOverflowError
from .group_algebra import (
    desingularize,
    format_algebra_element,
    parse_jexpr,
    parse_singular_word,
)
from .surface import SurfaceParams, format_word, free_reduce, inverse_word
from .symplectic import dims_table, symp_twist_redundancy
from .verifier import OBSTRUCTION_ESTABLISHED, format_report, verify_nonexistence

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3


# every command reads --config and the surface; these read more settings
_TRUNCATION = ("max_chords", "max_beads")
_READS = {
    "braid equal": ("node_budget",),
    "gr symbol": _TRUNCATION,
    "diagram member": (*_TRUNCATION, "window"),
    "diagram equal": (*_TRUNCATION, "window"),
    "h1 class": _TRUNCATION,
    "verify-theorem": (*_TRUNCATION, "window"),
}
_FLAGS = {
    "genus": ("--genus", "-g"),
    "boundary": ("--boundary", "-p"),
    "strands": ("--strands", "-n"),
    "max_chords": ("--max-chords",),
    "max_beads": ("--max-beads",),
    "window": ("--window", "-w"),
    "node_budget": ("--node-budget",),
}


def _config_from(args) -> Config:
    cfg = load_config(args.config) if args.config else Config()
    return override(cfg, **{k: v for k, v in vars(args).items() if k in _FLAGS})


def _trunc(cfg: Config) -> Truncation:
    return Truncation(cfg.max_chords, cfg.max_beads)


# group -> (help, leaves); a leaf maps to its arguments as (name, keyword
# arguments), and verify-theorem is a leaf of its own, with no group
_WORD = (("word", {}),)
_GROUPS = {
    "braid": ("braid words and relators", {
        "parse": _WORD, "inv": _WORD, "perm": _WORD, "theta": _WORD,
        "mul": (("word1", {}), ("word2", {})),
        "relators": (),
        "equal": (("word1", {}), ("word2", {}), ("--depth", {"type": int, "default": 2})),
    }),
    "singular": ("singular braid words", {"desing": _WORD}),
    "gr": ("the graded quotient", {"symbol": (("--jexpr", {
        "required": True, "help": "';'-separated summands 'coef | u | i | v'"}),)}),
    "diagram": ("beaded chord diagrams", {
        "member": (("element", {}),),
        "equal": (("element1", {}), ("element2", {})),
    }),
    "h1": ("abelianization", {"class": (("element", {}),)}),
    "verify-theorem": ("run the obstruction pipeline", (
        ("--report", {"help": "also write the report to this file"}),)),
    "symplectic": ("the symplectic diagram algebra", {
        "dims": (("--max-degree", {"type": int, "required": True}),),
        "twist-check": (),
    }),
}


def _leaf(parser: argparse.ArgumentParser, command: str, arguments) -> None:
    """Options for the settings ``command`` reads, then its own arguments."""
    parser.add_argument("--config", help="flat key = value configuration file")
    for key in ("genus", "boundary", "strands", *_READS.get(command, ())):
        parser.add_argument(*_FLAGS[key], dest=key, type=int, default=None)
    for name, kwargs in arguments:
        parser.add_argument(name, **kwargs)


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The top parser and every group, with leaf parsers for ``command``
    alone when it names a group, and for every group otherwise."""
    top = argparse.ArgumentParser(
        prog="surfbraid",
        description="surface braid groups, their graded diagram algebras, "
        "and the degree-one obstruction, in exact arithmetic",
    )
    sub = top.add_subparsers(dest="command", required=True)
    for group, (help_text, leaves) in _GROUPS.items():
        parser = sub.add_parser(group, help=help_text)
        if command in _GROUPS and command != group:
            continue
        if not isinstance(leaves, dict):
            _leaf(parser, group, leaves)
            continue
        gsub = parser.add_subparsers(dest="subcommand", required=True)
        for name, arguments in leaves.items():
            _leaf(gsub.add_parser(name), f"{group} {name}", arguments)
    return top


def _format_symbol(x) -> str:
    if x.is_zero:
        return "0"
    parts = []
    ident = identity_perm(x.strands)
    for (mono, perm) in sorted(x.terms, key=lambda k: (k[1], mono_key(k[0]))):
        coef = x.terms[(mono, perm)]
        perm_txt = "id" if perm == ident else format_perm_cycles(perm)
        body = f"({format_monomial(mono)}; {perm_txt})"
        parts.append(body if coef == 1 else f"{coef} * {body}")
    return " + ".join(parts)


def _run(args) -> int:
    cfg = _config_from(args)
    s = SurfaceParams(cfg.genus, cfg.boundary, cfg.strands)

    if args.command == "braid":
        if args.subcommand == "parse":
            print(format_word(parse_braid_word(args.word, s)))
        elif args.subcommand == "mul":
            u = parse_braid_word(args.word1, s)
            v = parse_braid_word(args.word2, s)
            print(format_word(free_reduce(u + v)))
        elif args.subcommand == "inv":
            print(format_word(inverse_word(parse_braid_word(args.word, s))))
        elif args.subcommand == "perm":
            w = parse_braid_word(args.word, s)
            print(format_perm_cycles(strand_permutation(w, s.strands)))
        elif args.subcommand == "theta":
            el = wreath_image(parse_braid_word(args.word, s), s)
            beads = ",".join(format_word(w) for w in el.beads)
            print(f"beads=({beads}) perm={format_perm_cycles(el.perm)}")
        elif args.subcommand == "relators":
            for rel in relators(s):
                print(f"{rel.family} {format_word(rel.word)}")
        elif args.subcommand == "equal":
            u = parse_braid_word(args.word1, s)
            v = parse_braid_word(args.word2, s)
            res = bounded_equal(u, v, s, args.depth, cfg.node_budget)
            if res.is_equal:
                print(f"Equal moves={len(res.moves)} nodes={res.nodes}")
                for mv in res.moves:
                    print(
                        f"  at {mv.pos}: {format_word(mv.removed)} -> "
                        f"{format_word(mv.inserted)} [{mv.family}]"
                    )
            else:
                print(f"Unknown nodes={res.nodes}")
                return EXIT_NEGATIVE
        return EXIT_OK

    if args.command == "singular":
        word = parse_singular_word(args.word, s)
        print(format_algebra_element(desingularize(word)))
        return EXIT_OK

    if args.command == "gr":
        expr = parse_jexpr(args.jexpr, s)
        print(_format_symbol(degree_one_symbol(expr, s, _trunc(cfg))))
        return EXIT_OK

    if args.command == "diagram":
        trunc = _trunc(cfg)
        if args.subcommand == "member":
            x = parse_diagram(args.element, s, trunc)
            res = ideal_member(x, s, trunc, cfg.window)
            if res.is_member:
                print("Member")
                print(format_certificate(res.certificate))
                return EXIT_OK
            print("NotMember" if res.status == "not_member" else "NotMemberAtWindow")
            print(format_diagram(res.witness))
            return EXIT_NEGATIVE
        if args.subcommand == "equal":
            x = parse_diagram(args.element1, s, trunc)
            y = parse_diagram(args.element2, s, trunc)
            res = ideal_member(x - y, s, trunc, cfg.window)
            if res.is_member:
                print(f"Equal certificate_terms={len(res.certificate)}")
                return EXIT_OK
            print("NotEqual" if res.status == "not_member" else "NotEqualAtWindow")
            return EXIT_NEGATIVE

    if args.command == "h1":
        x = parse_diagram(args.element, s, _trunc(cfg))
        print(format_h1(h1_class(x, s)))
        return EXIT_OK

    if args.command == "verify-theorem":
        rep = verify_nonexistence(s, _trunc(cfg), cfg.window)
        text = format_report(rep)
        print(text)
        if args.report:
            with open(args.report, "w") as fh:
                fh.write(text + "\n")
        return EXIT_OK if rep.verdict == OBSTRUCTION_ESTABLISHED else EXIT_NEGATIVE

    if args.command == "symplectic":
        if args.subcommand == "dims":
            sys.stdout.write(dims_table(s, args.max_degree))
            return EXIT_OK
        if args.subcommand == "twist-check":
            if symp_twist_redundancy(s):
                print("chords redundant: yes")
                return EXIT_OK
            print("chords redundant: no")
            return EXIT_NEGATIVE

    raise ParameterError(f"unhandled command {args.command!r}")


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser(argv[0] if argv else None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return _run(args)
    except (ResourceLimitError, TruncationOverflowError) as exc:
        print(f"resource error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except SurfbraidError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
