"""End-to-end command-line behaviour, driven through main(argv)."""

import pytest

from surfbraid.cli import (
    EXIT_NEGATIVE,
    EXIT_OK,
    EXIT_RESOURCE,
    EXIT_USAGE,
    main,
)

S112 = ["-g", "1", "-p", "1", "-n", "2"]


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
        assert out == "Equal moves=0\n"

    def test_equal_with_moves(self, capsys):
        # one handle-relation rewrite turns the commutator into s1^2
        lhs = "a1 s1^-1 b1 s1^-1 a1^-1 s1 b1^-1 s1"
        code, out, _ = run(
            capsys, ["braid", "equal", *S112, "--depth", "1", lhs, "s1 s1"]
        )
        assert code == EXIT_OK
        lines = out.splitlines()
        assert lines[0].startswith("Equal moves=")
        assert int(lines[0].split("=")[1]) >= 1
        assert all(line.startswith("  at ") for line in lines[1:])

    def test_equal_unknown(self, capsys):
        code, out, _ = run(
            capsys, ["braid", "equal", *S112, "--depth", "1", "a1", "b1"]
        )
        assert code == EXIT_NEGATIVE
        assert out == "Unknown\n"

    def test_equal_node_budget_exits_resource(self, capsys):
        code, out, err = run(
            capsys,
            ["braid", "equal", *S112, "--depth", "1", "--node-budget", "1", "a1", "b1"],
        )
        assert code == EXIT_RESOURCE
        assert out == ""
        assert err.startswith("resource error: node budget")


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
        element = "1 * a1@1 a1^-1@1 ; perm=(1)(2) + -1 * 1 ; perm=(1)(2)"
        code, out, _ = run(capsys, ["diagram", "member", *S112, element])
        assert code == EXIT_OK
        lines = out.splitlines()
        assert lines[0] == "Member"
        assert "BeadGroup[a1@1]" in out

    def test_diagram_member_by_relator_insertion(self, capsys):
        # closes only in the pass that lets relation rows grow a monomial
        element = "1 * a1@1 b1^-1@1 + -1 * b1^-1@1 a1@1"
        code, out, _ = run(
            capsys, ["diagram", "member", "-g", "1", "-p", "0", "-n", "2", element]
        )
        assert code == EXIT_OK
        assert out.splitlines()[0] == "Member"
        assert "BeadRelator[1;+]" in out

    def test_diagram_member_negative(self, capsys):
        code, out, _ = run(
            capsys, ["diagram", "member", *S112, "1 * Z(1,2) ; perm=(1)(2)"]
        )
        assert code == EXIT_NEGATIVE
        assert out == "NotFoundAtWindow\n"

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
        assert out == "NotFoundAtWindow\n"

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

    def test_dims_cache(self, capsys, tmp_path):
        argv = [
            "symplectic", "dims", "-g", "1", "-p", "0", "-n", "1",
            "--max-degree", "2", "--cache-dir", str(tmp_path),
        ]
        code1, out1, _ = run(capsys, argv)
        assert code1 == EXIT_OK
        cache_file = tmp_path / "dims_g1_p0_n1_d2.txt"
        assert cache_file.exists()
        code2, out2, _ = run(capsys, argv)
        assert code2 == EXIT_OK
        assert out2 == out1

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
        assert main(["frobnicate"]) == EXIT_USAGE
        capsys.readouterr()

    def test_missing_required_option(self, capsys):
        assert main(["gr", "symbol", *S112]) == EXIT_USAGE
        capsys.readouterr()

    def test_help_exits_clean(self, capsys):
        assert main(["--help"]) == EXIT_OK
        capsys.readouterr()

    def test_word_cap_resource_error(self, capsys):
        code, _, err = run(
            capsys,
            ["symplectic", "dims", "-g", "1", "-p", "0", "-n", "2",
             "--max-degree", "2", "--word-cap", "2"],
        )
        assert code == EXIT_RESOURCE
        assert err.startswith("resource error: ")
