"""End-to-end command-line behaviour, driven through main(argv)."""

import argparse
import re
import shlex
import sys
from pathlib import Path

import pytest

from surfbraid import rewriting
from surfbraid.cli import (
    EXIT_NEGATIVE,
    EXIT_OK,
    EXIT_RESOURCE,
    EXIT_USAGE,
    build_parser,
    main,
)

README = Path(__file__).resolve().parents[1] / "README.md"
GOLDEN = Path(__file__).resolve().parent / "cli_golden.txt"

S112 = ["-g", "1", "-p", "1", "-n", "2"]
MEMBER_QUERY = "1 * a1@1 a1^-1@1 ; perm=(1)(2) + -1 * 1 ; perm=(1)(2)"


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBraidCommands:
    def test_parse_round_trip(self, capsys):
        code, out, _ = run(capsys, ["braid", "parse", *S112, "a1 s1^-1 b1"])
        assert code == EXIT_OK
        assert out == "a1 s1^-1 b1\n"

    def test_parse_is_verbatim(self, capsys):
        # parse echoes the word as written; reduction belongs to mul
        code, out, _ = run(capsys, ["braid", "parse", *S112, "a1 a1^-1 s1"])
        assert code == EXIT_OK
        assert out == "a1 a1^-1 s1\n"

    def test_mul(self, capsys):
        code, out, _ = run(capsys, ["braid", "mul", *S112, "a1 s1", "s1^-1 b1"])
        assert code == EXIT_OK
        assert out == "a1 b1\n"

    def test_inv(self, capsys):
        code, out, _ = run(capsys, ["braid", "inv", *S112, "a1 s1"])
        assert code == EXIT_OK
        assert out == "s1^-1 a1^-1\n"

    def test_perm(self, capsys):
        code, out, _ = run(capsys, ["braid", "perm", *S112, "s1"])
        assert code == EXIT_OK
        assert out == "(1 2)\n"

    def test_theta(self, capsys):
        code, out, _ = run(capsys, ["braid", "theta", *S112, "a1"])
        assert code == EXIT_OK
        assert out == "beads=(a1,1) perm=(1)(2)\n"

    def test_relators(self, capsys):
        code, out, _ = run(capsys, ["braid", "relators", *S112])
        assert code == EXIT_OK
        lines = out.splitlines()
        assert len(lines) == 3
        families = [line.split()[0] for line in lines]
        assert families == ["2.ii", "2.ii", "2.iii"]

    def test_equal_positive(self, capsys):
        code, out, _ = run(capsys, ["braid", "equal", *S112, "s1 s1^-1", "1"])
        assert code == EXIT_OK
        assert out == "Equal moves=0 nodes=0\n"

    def test_equal_with_moves(self, capsys):
        # one handle-relation rewrite turns the commutator into s1^2
        lhs = "a1 s1^-1 b1 s1^-1 a1^-1 s1 b1^-1 s1"
        code, out, _ = run(
            capsys, ["braid", "equal", *S112, "--depth", "1", lhs, "s1 s1"]
        )
        assert code == EXIT_OK
        lines = out.splitlines()
        # depth 1 stores no word: the one level is looked up
        assert lines[0] == "Equal moves=1 nodes=0"
        assert all(line.startswith("  at ") for line in lines[1:])

    def test_equal_unknown(self, capsys):
        code, out, _ = run(
            capsys, ["braid", "equal", *S112, "--depth", "2", "a1", "b1"]
        )
        assert code == EXIT_NEGATIVE
        # the 88 words of the first level, the one stored
        assert out == "Unknown nodes=88\n"

    def test_equal_negative_depth_exits_usage(self, capsys):
        code, out, err = run(
            capsys, ["braid", "equal", *S112, "--depth", "-1", "s1", "s1^-1"]
        )
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("error: the depth must be non-negative")

    def test_equal_node_budget_exits_resource(self, capsys):
        code, out, err = run(
            capsys,
            ["braid", "equal", *S112, "--depth", "2", "--node-budget", "1", "a1", "b1"],
        )
        assert code == EXIT_RESOURCE
        assert out == ""
        assert err.startswith("resource error: node budget")

    def test_equal_zero_node_budget_exits_usage(self, capsys):
        code, out, err = run(
            capsys, ["braid", "equal", *S112, "--node-budget", "0", "s1", "s1"]
        )
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("error: the node budget must be at least 1")


class TestAlgebraCommands:
    def test_singular_desing(self, capsys):
        code, out, _ = run(capsys, ["singular", "desing", *S112, "x1"])
        assert code == EXIT_OK
        assert set(out.splitlines()) == {"1 * s1", "-1 * s1^-1"}

    def test_gr_symbol(self, capsys):
        code, out, _ = run(
            capsys, ["gr", "symbol", *S112, "--jexpr", "1 | | 1 | s1"]
        )
        assert code == EXIT_OK
        assert out == "(Z(1,2); id)\n"

    def test_diagram_member(self, capsys):
        code, out, _ = run(capsys, ["diagram", "member", *S112, MEMBER_QUERY])
        assert code == EXIT_OK
        lines = out.splitlines()
        assert lines[0] == "Member"
        assert "BeadGroup[a1@1]" in out

    def test_window_bounds_beads_only(self, capsys):
        # a window below the chord truncation is no reason to refuse
        code, out, _ = run(
            capsys,
            ["diagram", "member", *S112, "--max-chords", "7", "--window", "6", MEMBER_QUERY],
        )
        assert code == EXIT_OK
        assert out.splitlines()[0] == "Member"
        code, _, err = run(
            capsys,
            ["diagram", "member", *S112, "--max-beads", "7", "--window", "6", MEMBER_QUERY],
        )
        assert code == EXIT_USAGE
        assert err.startswith("error: window 6 is smaller than the bead truncation 7")

    def test_truncation_without_a_window(self, capsys):
        for argv in (["gr", "symbol", "--jexpr", "1 | | 1 | s1"],
                     ["h1", "class", "1 * Z(1,2) ; perm=(1)(2)"]):
            code, _, err = run(capsys, [*argv, *S112, "--max-beads", "7"])
            assert code == EXIT_OK, err

    def test_diagram_member_by_relator_insertion(self, capsys):
        # a search closes it only in the pass that lets relation rows grow a
        # monomial; the torus exponent form closes it with a ClosedSum row
        element = "1 * a1@1 b1^-1@1 + -1 * b1^-1@1 a1@1"
        code, out, _ = run(
            capsys, ["diagram", "member", "-g", "1", "-p", "0", "-n", "2", element]
        )
        assert code == EXIT_OK
        assert out.splitlines()[0] == "Member"
        assert "ClosedSum[1]" in out

    def test_diagram_member_negative(self, capsys):
        code, out, _ = run(
            capsys, ["diagram", "member", *S112, "1 * Z(1,2) ; perm=(1)(2)"]
        )
        assert code == EXIT_NEGATIVE
        assert out == "NotMember\n1 * Z(1,2) ; perm=(1)(2)\n"

    def test_diagram_member_negative_at_window(self, capsys):
        # closed genus 2: the box completion proves it only at the window
        code, out, _ = run(
            capsys, ["diagram", "member", "-g", "2", "-p", "0", "-n", "2",
                     "1 * Z(1,2) a1@1 + -1 * Z(1,2) b1@1"]
        )
        assert code == EXIT_NEGATIVE
        assert out == "NotMemberAtWindow\n" \
            "1 * a1@2 Z(1,2) ; perm=(1)(2) + -1 * b1@2 Z(1,2) ; perm=(1)(2)\n"

    def test_diagram_member_on_a_large_surface(self, capsys):
        # the bead normal form needs no table: (3,1,5) answers at once
        code, out, _ = run(
            capsys, ["diagram", "member", "-g", "3", "-p", "1", "-n", "5",
                     "1 * a1@1 a1^-1@1 + -1 * 1"]
        )
        assert code == EXIT_OK
        assert out.splitlines()[0] == "Member"

    def test_diagram_member_refused_past_the_rule_limit(self, capsys, monkeypatch):
        # a window no other test uses, so that the box is completed here
        monkeypatch.setattr(rewriting, "MAX_RULES", 10)
        code, out, err = run(
            capsys, ["diagram", "member", *S112, "--window", "9", "1 * Z(1,2) Z(1,2) a1@1"]
        )
        assert code == EXIT_RESOURCE
        assert out == "" and "10 rules" in err

    def test_diagram_equal(self, capsys):
        code, out, _ = run(
            capsys,
            [
                "diagram", "equal", *S112,
                "1 * a1@1 a1^-1@1 ; perm=(1)(2)",
                "1 * 1 ; perm=(1)(2)",
            ],
        )
        assert code == EXIT_OK
        assert out.startswith("Equal certificate_terms=")

    def test_diagram_equal_negative(self, capsys):
        code, out, _ = run(
            capsys,
            [
                "diagram", "equal", *S112,
                "1 * Z(1,2) ; perm=(1)(2)",
                "1 * 1 ; perm=(1)(2)",
            ],
        )
        assert code == EXIT_NEGATIVE
        assert out == "NotEqual\n"

    def test_h1_class(self, capsys):
        code, out, _ = run(
            capsys, ["h1", "class", *S112, "1 * Z(1,2) ; perm=(1)(2)"]
        )
        assert code == EXIT_OK
        assert out == "1 * Z12\n"


class TestVerifyTheorem:
    def test_positive_surface(self, capsys, tmp_path):
        report = tmp_path / "report.txt"
        code, out, _ = run(
            capsys, ["verify-theorem", *S112, "--report", str(report)]
        )
        assert code == EXIT_OK
        assert out.splitlines()[0] == "surface genus=1 boundary=1 strands=2"
        assert out.splitlines()[-1] == "VERDICT ObstructionEstablished"
        assert report.read_text() == out

    def test_genus_zero(self, capsys):
        code, out, _ = run(
            capsys, ["verify-theorem", "-g", "0", "-p", "1", "-n", "2"]
        )
        assert code == EXIT_NEGATIVE
        assert out.splitlines()[-1] == "VERDICT HypothesisNotMet"


class TestSymplecticCommands:
    def test_dims(self, capsys):
        code, out, _ = run(
            capsys,
            ["symplectic", "dims", "-g", "1", "-p", "0", "-n", "1",
             "--max-degree", "2"],
        )
        assert code == EXIT_OK
        assert out == "0 1\n1 2\n2 3\n"

    def test_dims_removed_flags(self, capsys):
        for flag in (["--cache-dir", "tables"], ["--word-cap", "2"]):
            code, _, _ = run(
                capsys,
                ["symplectic", "dims", "-g", "1", "-p", "0", "-n", "1",
                 "--max-degree", "2", *flag],
            )
            assert code == EXIT_USAGE, flag

    def test_twist_check_yes(self, capsys):
        code, out, _ = run(
            capsys, ["symplectic", "twist-check", "-g", "1", "-p", "0", "-n", "2"]
        )
        assert code == EXIT_OK
        assert out == "chords redundant: yes\n"

    def test_twist_check_hypothesis_error(self, capsys):
        code, _, err = run(
            capsys, ["symplectic", "twist-check", "-g", "0", "-p", "1", "-n", "2"]
        )
        assert code == EXIT_USAGE
        assert err.startswith("error: ")


class TestConfigAndErrors:
    def test_config_file(self, capsys, tmp_path):
        cfg = tmp_path / "surf.cfg"
        cfg.write_text("genus = 1\nboundary = 1\nstrands = 2\n")
        code, out, _ = run(
            capsys, ["braid", "theta", "--config", str(cfg), "a1"]
        )
        assert code == EXIT_OK
        assert out == "beads=(a1,1) perm=(1)(2)\n"

    def test_flag_overrides_config(self, capsys, tmp_path):
        cfg = tmp_path / "surf.cfg"
        cfg.write_text("genus = 0\nboundary = 1\nstrands = 2\n")
        code, out, _ = run(
            capsys, ["braid", "theta", "--config", str(cfg), "-g", "1", "a1"]
        )
        assert code == EXIT_OK
        assert out == "beads=(a1,1) perm=(1)(2)\n"

    def test_invalid_generator(self, capsys):
        code, _, err = run(
            capsys, ["braid", "parse", "-g", "0", "-p", "1", "-n", "2", "a1"]
        )
        assert code == EXIT_USAGE
        assert err.startswith("error: ")

    def test_missing_subcommand(self, capsys):
        assert main([]) == EXIT_USAGE
        capsys.readouterr()

    def test_unknown_command(self, capsys):
        code, _, err = run(capsys, ["frobnicate"])
        assert code == EXIT_USAGE
        assert "invalid choice: 'frobnicate'" in err
        assert all(f"'{group}'" in err for group in GROUPS), err

    def test_main_without_argv_reads_sys_argv(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "argv", ["surfbraid", "braid", "inv", *S112, "a1 s1"])
        assert run(capsys, None)[:2] == (EXIT_OK, "s1^-1 a1^-1\n")

    def test_missing_required_option(self, capsys):
        assert main(["gr", "symbol", *S112]) == EXIT_USAGE
        capsys.readouterr()

    def test_help_exits_clean(self, capsys):
        assert main(["--help"]) == EXIT_OK
        capsys.readouterr()

    def test_config_keys_a_command_does_not_read_are_ignored(self, capsys, tmp_path):
        cfg = tmp_path / "surf.cfg"
        cfg.write_text("window = 1\n")
        code, out, _ = run(capsys, ["braid", "parse", "--config", str(cfg), "a1"])
        assert (code, out) == (EXIT_OK, "a1\n")
        code, out, _ = run(
            capsys, ["gr", "symbol", "--config", str(cfg), "--jexpr", "1 | | 1 | s1"]
        )
        assert (code, out) == (EXIT_OK, "(Z(1,2); id)\n")
        code, _, err = run(capsys, ["diagram", "member", "--config", str(cfg), MEMBER_QUERY])
        assert code == EXIT_USAGE
        assert err.startswith("error: window 1 is smaller than the bead truncation 4")


# input from outside that each parser refuses, and the message it names
BAD_INPUT = [
    (["diagram", "member", *S112, "1 * 1 ; perm=(1 2"], "bad cycle notation '(1 2'"),
    (["diagram", "member", *S112, "1 * 1 ; perm=()(1)"], "empty cycle in '()(1)'"),
    (["diagram", "member", *S112, "1 * 1 ; perm=(a b)"], "bad cycle entry in '(a b)'"),
    (["h1", "class", *S112, "1 * Z(1,2) ; perm=((1 2))"], "bad cycle notation '((1 2))'"),
    (["braid", "parse", *S112, "a0"], "letter index must be >= 1 in 'a0'"),
    (["diagram", "member", *S112, "1 * c1@1"], "bead letter in 'c1@1' does not exist"),
    (["diagram", "member", *S112, "1 * Z(1,2) ; (1 2)"], "expected 'perm=' in"),
    (["diagram", "equal", *S112, "x * 1", "1"], "bad coefficient 'x'"),
    (["gr", "symbol", *S112, "--jexpr", "1 | | x | s1"], "bad crossing index 'x'"),
]


@pytest.mark.parametrize("argv, message", BAD_INPUT, ids=[m for _, m in BAD_INPUT])
def test_bad_input_exits_usage(capsys, argv, message):
    code, out, err = run(capsys, argv)
    assert (code, out) == (EXIT_USAGE, "")
    assert err.startswith("error: ") and message in err, err


# every leaf command on a surface where it succeeds or answers, its exit code,
# and the settings it reads besides --config and the surface
TRUNCATION = ("--max-chords", "--max-beads")
LEAVES = [
    (["braid", "parse", *S112, "a1"], EXIT_OK, ()),
    (["braid", "inv", *S112, "a1"], EXIT_OK, ()),
    (["braid", "perm", *S112, "s1"], EXIT_OK, ()),
    (["braid", "theta", *S112, "a1"], EXIT_OK, ()),
    (["braid", "mul", *S112, "a1", "b1"], EXIT_OK, ()),
    (["braid", "relators", *S112], EXIT_OK, ()),
    (["braid", "equal", *S112, "s1 s1^-1", "1"], EXIT_OK, ("--node-budget",)),
    (["singular", "desing", *S112, "x1"], EXIT_OK, ()),
    (["gr", "symbol", *S112, "--jexpr", "1 | | 1 | s1"], EXIT_OK, TRUNCATION),
    (["diagram", "member", *S112, "1 * Z(1,2) ; perm=(1)(2)"], EXIT_NEGATIVE,
     (*TRUNCATION, "--window")),
    (["diagram", "equal", *S112, "1 * a1@1 a1^-1@1 ; perm=(1)(2)", "1 * 1 ; perm=(1)(2)"],
     EXIT_OK, (*TRUNCATION, "--window")),
    (["h1", "class", *S112, "1 * Z(1,2) ; perm=(1)(2)"], EXIT_OK, TRUNCATION),
    (["verify-theorem", *S112], EXIT_OK, ()),
    (["symplectic", "dims", *S112, "--max-degree", "1"], EXIT_OK, ()),
    (["symplectic", "twist-check", "-g", "1", "-p", "0", "-n", "2"], EXIT_OK, ()),
]
DEFAULTS = {"--max-chords": "2", "--max-beads": "4", "--window": "6",
            "--node-budget": "1000000"}


@pytest.mark.parametrize(
    "argv, code, reads", LEAVES,
    ids=[" ".join(argv[:argv.index("-g")]) for argv, _, _ in LEAVES],
)
def test_command_takes_only_the_settings_it_reads(capsys, tmp_path, argv, code, reads):
    cfg = tmp_path / "surf.cfg"
    cfg.write_text("genus = 1\n")
    settings = [arg for flag in reads for arg in (flag, DEFAULTS[flag])]
    assert run(capsys, [*argv, "--config", str(cfg), *settings])[0] == code
    for flag in DEFAULTS.keys() - set(reads):
        got, _, err = run(capsys, [*argv, flag, DEFAULTS[flag]])
        assert got == EXIT_USAGE and "unrecognized arguments" in err, flag


# group -> its leaf commands, in the order the parser lists them;
# verify-theorem is a leaf with no group
GROUPS: dict = {}
for argv, _, _ in LEAVES:
    GROUPS.setdefault(argv[0], [])
    if not argv[1].startswith("-"):
        GROUPS[argv[0]].append(argv[1])


def test_help_lists_every_group_and_leaf(capsys):
    code, out, _ = run(capsys, ["--help"])
    assert code == EXIT_OK
    assert "{" + ",".join(GROUPS) + "}" in out
    for group, leaves in GROUPS.items():
        code, out, _ = run(capsys, [group, "--help"])
        assert code == EXIT_OK
        assert ("{" + ",".join(leaves) + "}" in out) if leaves else "--report" in out


def _choices(parser: argparse.ArgumentParser) -> dict:
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return action.choices
    return {}


def test_parser_builds_only_the_branch_argv_names():
    def leaves(top):
        return {(group, name) for group, parser in _choices(top).items()
                for name in _choices(parser)}

    every = leaves(build_parser())
    assert every == {(group, name) for group, names in GROUPS.items() for name in names}
    for command in (None, "--help", "frobnicate"):
        assert leaves(build_parser(command)) == every
    # a one-group tree holds that group alone, and its usage line, which
    # errors print, still lists every group
    for group in GROUPS:
        assert list(_choices(build_parser(group))) == [group]
        assert build_parser(group).format_usage() == build_parser().format_usage()
    top = build_parser("verify-theorem")
    assert leaves(top) == set()
    assert "--report" in _choices(top)["verify-theorem"]._option_string_actions
    assert leaves(build_parser("braid")) == {leaf for leaf in every if leaf[0] == "braid"}


def test_readme_examples_run(capsys, tmp_path, monkeypatch):
    # each example exits 0 or 1; what follows "→" in its comment is its output
    monkeypatch.chdir(tmp_path)
    blocks = re.findall(r"```sh\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    examples = [line for block in blocks for line in block.splitlines()
                if line.startswith("surfbraid ")]
    assert len(examples) >= 13
    for line in examples:
        command, _, comment = line.partition("#")
        code, out, err = run(capsys, shlex.split(command)[1:])
        assert code in (EXIT_OK, EXIT_NEGATIVE), (line, err)
        _, arrow, expected = comment.partition("→")
        if arrow:
            assert out == expected.strip() + "\n", line


def _golden_transcript() -> list:
    """One case ``(command, stdout, exit code)`` per block of
    ``cli_golden.txt``: a ``$ command`` line, its output, then ``[exit N]``."""
    blocks = re.findall(r"^\$ (.*?)\n(.*?)\[exit (\d+)\]\n", GOLDEN.read_text(encoding="utf-8"),
                        re.S | re.M)
    return [pytest.param(command, out, int(code), id=command) for command, out, code in blocks]


@pytest.mark.parametrize("command, expected, code", _golden_transcript())
def test_golden_output(capsys, command, expected, code):
    # membership with its certificate or witness, h1 classes and symbols on
    # bench surfaces, fractional coefficients among them, print exactly the
    # recorded text
    assert run(capsys, shlex.split(command))[:2] == (code, expected)


def test_golden_transcript_is_read_whole():
    assert len(_golden_transcript()) == GOLDEN.read_text(encoding="utf-8").count("\n$ ") + 1 == 24
