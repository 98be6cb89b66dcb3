import argparse
import hashlib
import json

import pytest

from ekcells import FinitePoset, format_ideal
from ekcells.cli import build_parser, main
from ekcells.suite import NAMED_IDEALS, named_ideal

# SHA-256 of each file `resolve --kind both --export json|dot` writes for the
# named ideals, recorded before the classical and modified constructions were
# merged into one; the exported bytes must not change across refactors.
EXPORT_DIGESTS = {
    "deg2/ek.complex.json": "1a12a1d3dac07810fe06b0336c14d2b030e6f29e533256706eed225401e1b192",
    "deg2/ek.hasse.dot": "5ba29e6b630f53aee60fbbb8c4d5cdabdb66f5ce8899eb93dc69045b8c41fe66",
    "deg2/modified.complex.json": "c5be45752f73fa859ef316468f5f4ce0d4863124fad761f39bddda421bf7bcd6",
    "deg2/modified.hasse.dot": "c205d8a0195939544d4e1e27aa20eae049ec20e39c79eb127b84f157c76ccb8b",
    "deg4/ek.complex.json": "e9419eab1da6017c2f6b68b1fb2170893db3867cc41f4636a4e6990e09206ffd",
    "deg4/ek.hasse.dot": "cbc41badc53e46a42ef2b75679e034cc6e49b3aa517c5e2ca4e68c324af8817b",
    "deg4/modified.complex.json": "6d810eab19302fc00de9202731d2df0fbe1da1d6c743c6a345940608e7eb004c",
    "deg4/modified.hasse.dot": "bc05e8794e1741e36a35cebfac2e85fcf144527549308c59581ff5b1c2af6fd1",
    "intro/ek.complex.json": "7dcd8acc3cdea4012a1ad921cef38aa5e4229142f8678497047a044c6deeb004",
    "intro/ek.hasse.dot": "4be4f27fdfd71449ba2629b6b18c80741fa7b99b33620f3f3d60626bad563088",
    "intro/modified.complex.json": "f9bbf624b97e7beaf842f1423d479a902b01d455ea6a673703a24491b32a57c4",
    "intro/modified.hasse.dot": "ab3e3bf40b7205cf28a70be44c930ef49b08d80a68cfd6b1a65d850090308a50",
    "tri-sq/ek.complex.json": "b81bf8898491345b1018c0fbf0aca5cf9c9b5dd88b2a025fa3ffdd0a845dbab8",
    "tri-sq/ek.hasse.dot": "baef3b4ee65bcbfbe837d9becee189e7d97261ebc9ca000c9c19ebbecf612a86",
    "tri-sq/modified.complex.json": "68ca75268c6fceef68e00b54c46cfb4de2b66368e7a3d2a76bcf6f61174afb28",
    "tri-sq/modified.hasse.dot": "8537553afd488b6894507c9bee6ee1acb5a0373ca7848a6866201f5389720da2",
    "tri-tri/ek.complex.json": "1179e57200e2824be57c1244c2b7cd47b115784664770aa969e609afecaf4d52",
    "tri-tri/ek.hasse.dot": "e9c9c73a8907c6882068cedb6bf9f594a51e7d4613764f36d883ce7ab381f36a",
    "tri-tri/modified.complex.json": "b13ef47a03233a34a93df4505d73c5433374948e49657bad4991e2495c59ce57",
    "tri-tri/modified.hasse.dot": "ae811326a02ac814f698d9d62f8b6eaca266fa93b1fc0856dfaad2b3cf332669",
}


@pytest.fixture
def deg2_file(tmp_path):
    path = tmp_path / "deg2.ideal"
    path.write_text(format_ideal(named_ideal("deg2")), encoding="utf-8")
    return str(path)


@pytest.fixture
def bad_file(tmp_path):
    path = tmp_path / "bad.ideal"
    path.write_text("2 1\nx2^2\n", encoding="utf-8")
    return str(path)


class TestResolve:
    def test_ranks_output(self, deg2_file, capsys):
        assert main(["resolve", "--ideal", deg2_file, "--kind", "ek"]) == 0
        out = capsys.readouterr().out
        assert "ranks [6, 8, 3]" in out

    def test_json_export(self, deg2_file, tmp_path, capsys):
        code = main(
            ["resolve", "--ideal", deg2_file, "--kind", "modified",
             "--export", "json", "--out", str(tmp_path / "o")]
        )
        assert code == 0
        data = json.loads((tmp_path / "o" / "modified.complex.json").read_text())
        assert data["ranks"] == [6, 8, 3]

    def test_non_stable_input(self, bad_file, capsys):
        assert main(["resolve", "--ideal", bad_file, "--kind", "ek"]) == 2
        assert "not stable" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["ek", "modified", "both"])
    def test_column_bound_below_generator_degree_exits_2_before_output(self, kind, capsys):
        # deg2's generators have degree 2; the bound is checked for every kind
        assert main(["resolve", "--named", "deg2", "--kind", kind, "--d", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: column bound d=1 below maximal generator degree 2\n"

    def test_column_bound_at_generator_degree_accepted(self, capsys):
        assert main(["resolve", "--named", "deg2", "--kind", "both", "--d", "2"]) == 0
        assert capsys.readouterr().out == "ek: ranks [6, 8, 3]\nmodified: ranks [6, 8, 3]\n"

    def test_deterministic_bytes(self, deg2_file, tmp_path):
        paths = []
        for tag in ("a", "b"):
            out = tmp_path / tag
            main(["resolve", "--ideal", deg2_file, "--kind", "both",
                  "--export", "json", "--out", str(out)])
            paths.append(out)
        for name in ("ek.complex.json", "modified.complex.json"):
            assert (paths[0] / name).read_bytes() == (paths[1] / name).read_bytes()
        digests = {}
        for ideal_name in NAMED_IDEALS:
            for export in ("json", "dot"):
                out = tmp_path / ideal_name / export
                assert main(["resolve", "--named", ideal_name, "--kind", "both",
                             "--export", export, "--out", str(out)]) == 0
                for path in out.iterdir():
                    digests[f"{ideal_name}/{path.name}"] = hashlib.sha256(
                        path.read_bytes()).hexdigest()
        assert digests == EXPORT_DIGESTS


class TestVerify:
    def test_all_checks_pass(self, deg2_file, capsys):
        code = main(["verify", "--ideal", deg2_file, "--check", "all"])
        assert code == 0
        bundle = json.loads(capsys.readouterr().out)
        for kind in ("ek", "modified"):
            checks = bundle["kinds"][kind]
            assert checks["d2"] and checks["strands"]["ok"] and checks["cw"]
            assert checks["ball"]["verdict"] == "ball-certified"
            assert checks["el"]["failures"] == 0

    def test_el_counts_come_from_the_cw_sweep(self, chains_between_calls, capsys):
        assert main(["verify", "--named", "deg2", "--check", "all"]) == 0
        kinds = json.loads(capsys.readouterr().out)["kinds"]
        assert len(chains_between_calls) == sum(k["el"]["intervals"] for k in kinds.values())

    def test_el_counts_without_cw_sweep(self, monkeypatch, capsys):
        # a poset that is not thin stops the CW check before its EL sweep;
        # the EL counts still come from a sweep of their own
        monkeypatch.setattr(FinitePoset, "is_thin", lambda self: False)
        assert main(["verify", "--named", "deg2", "--check", "all"]) == 1
        checks = json.loads(capsys.readouterr().out)["kinds"]["ek"]
        assert not checks["thin"] and not checks["cw"]
        assert checks["el"] == {"intervals": 53, "failures": 0}

    def test_expected_refutation(self, tmp_path, capsys):
        path = tmp_path / "tritri.ideal"
        path.write_text(format_ideal(named_ideal("tri-tri")), encoding="utf-8")
        code = main(
            ["verify", "--ideal", str(path), "--kind", "modified",
             "--check", "ball", "--expect-ball", "refuted"]
        )
        assert code == 0
        bundle = json.loads(capsys.readouterr().out)
        assert bundle["kinds"]["modified"]["ball"]["verdict"] == "refuted"

    def test_expectation_mismatch_fails(self, deg2_file, capsys):
        code = main(
            ["verify", "--ideal", deg2_file, "--kind", "ek",
             "--check", "ball", "--expect-ball", "refuted"]
        )
        assert code == 1

    def test_expectation_without_ball_check_exits_2(self, capsys):
        # deg2's ball is certified: with --check cw the unmet expectation
        # was once ignored and the command exited 0
        code = main(["verify", "--named", "deg2", "--check", "cw",
                     "--expect-ball", "refuted"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --expect-ball needs --check ball|all, got --check cw\n"

    def test_compare_posets_flag(self, tmp_path, capsys):
        path = tmp_path / "deg4.ideal"
        path.write_text(format_ideal(named_ideal("deg4")), encoding="utf-8")
        code = main(
            ["verify", "--ideal", str(path), "--check", "el", "--compare-posets"]
        )
        assert code == 0
        bundle = json.loads(capsys.readouterr().out)
        assert bundle["posets_isomorphic"] is False


class TestPolarize:
    def test_intro_outputs(self, tmp_path, capsys):
        path = tmp_path / "intro.ideal"
        path.write_text(format_ideal(named_ideal("intro")), encoding="utf-8")
        assert main(["polarize", "--ideal", str(path)]) == 0
        out = capsys.readouterr().out
        assert "x[1,1]*x[1,2]" in out
        assert "x2*x3*x4" in out

    def test_diagram(self, tmp_path, capsys):
        path = tmp_path / "intro.ideal"
        path.write_text(format_ideal(named_ideal("intro")), encoding="utf-8")
        assert main(["polarize", "--ideal", str(path), "--diagram"]) == 0
        out = capsys.readouterr().out
        assert "■" in out and "□" in out

    def test_rejects_non_borel(self, tmp_path, capsys):
        path = tmp_path / "nb.ideal"
        path.write_text("3 4\nx1^2\nx1*x2\nx2^2\nx2*x3\n", encoding="utf-8")
        assert main(["polarize", "--ideal", str(path)]) == 2
        assert "Borel" in capsys.readouterr().err


class TestKindAdmission:
    @pytest.fixture
    def stable_not_borel(self, tmp_path):
        path = tmp_path / "stable.ideal"
        path.write_text("3 4\nx1^2\nx1*x2\nx2^2\nx2*x3\n", encoding="utf-8")
        return str(path)

    @pytest.mark.parametrize("argv", [
        ["resolve"],
        ["resolve", "--export", "json"],
        ["resolve", "--export", "dot", "--out", "OUT"],
        ["poset"],
        ["poset", "--out", "OUT"],
        ["verify"],
    ], ids=" ".join)
    def test_kind_both_exits_2_before_output(self, argv, stable_not_borel, tmp_path, capsys):
        # every requested kind must admit the ideal before anything is printed
        out_dir = tmp_path / "out"
        argv = [str(out_dir) if a == "OUT" else a for a in argv]
        code = main([*argv, "--ideal", stable_not_borel, "--kind", "both"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: ideal is not Borel fixed\n"
        assert not out_dir.exists()

    @pytest.mark.parametrize("command", ["resolve", "poset"])
    def test_kind_ek_accepts_a_stable_ideal(self, command, stable_not_borel, capsys):
        assert main([command, "--ideal", stable_not_borel, "--kind", "ek"]) == 0
        assert capsys.readouterr().out.startswith("ek: ")


class TestPosetAndCompare:
    def test_dot_output(self, deg2_file, capsys):
        assert main(["poset", "--ideal", deg2_file, "--kind", "ek"]) == 0
        out = capsys.readouterr().out
        assert "digraph ek" in out and "rank=same" in out

    def test_compare_expectations(self, deg2_file, tmp_path, capsys):
        assert main(["compare", "--ideal", deg2_file, "--expect", "isomorphic"]) == 0
        path = tmp_path / "deg4.ideal"
        path.write_text(format_ideal(named_ideal("deg4")), encoding="utf-8")
        assert main(["compare", "--ideal", str(path), "--expect", "different"]) == 0
        assert main(["compare", "--ideal", str(path), "--expect", "isomorphic"]) == 1

    def test_random_source(self, capsys):
        assert main(["poset", "--random-borel", "--seed", "5", "--kind", "modified"]) == 0


class TestBoundChecks:
    @pytest.mark.parametrize("flag, value, least", [
        ("--max-n", "1", 2), ("--max-deg", "0", 1), ("--max-gens", "0", 1),
    ])
    def test_out_of_range_bound_exits_2(self, flag, value, least, capsys):
        # --max-gens 0 once drew random ideals forever, --max-n 1 and
        # --max-deg 0 leaked a randrange error
        assert main(["verify", "--random-borel", flag, value, "--check", "cw"]) == 2
        err = capsys.readouterr().err
        assert f"{flag} must be at least {least}, got {value}" in err
        assert "randrange" not in err

    def test_least_bounds_accepted(self, capsys):
        assert main(["verify", "--random-borel", "--max-n", "2", "--max-deg", "1",
                     "--max-gens", "1", "--check", "ball"]) == 0


class TestIdealFileHeader:
    @pytest.mark.parametrize("header", ["n 2", "2"])
    def test_bad_header_names_the_expected_one(self, header, tmp_path, capsys):
        path = tmp_path / "bad.ideal"
        path.write_text(f"{header}\nx1\nx2\n", encoding="utf-8")
        assert main(["resolve", "--ideal", str(path)]) == 2
        err = capsys.readouterr().err
        assert err == f'error: expected header "<n> <count>", got {header!r}\n'


_INPUT_FLAGS = {"-h", "--help", "--ideal", "--named", "--random-borel", "--seed",
                "--max-n", "--max-deg", "--max-gens"}


class TestOptionSurface:
    def test_each_subcommand_declares_the_flags_it_reads(self):
        parser = build_parser()
        (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        surface = {
            name: {flag for action in sub._actions for flag in action.option_strings}
            for name, sub in subparsers.choices.items()
        }
        assert surface == {
            "resolve": _INPUT_FLAGS | {"--kind", "--d", "--export", "--out"},
            "verify": _INPUT_FLAGS | {"--kind", "--check", "--compare-posets", "--expect-ball"},
            "polarize": _INPUT_FLAGS | {"--d", "--diagram", "--out"},
            "poset": _INPUT_FLAGS | {"--kind", "--out"},
            "compare": _INPUT_FLAGS | {"--expect"},
            "paper-suite": {"-h", "--help", "--random-count", "--cm-count", "--seed",
                            "--progress"},
        }

    @pytest.mark.parametrize("argv", [
        ["verify", "--max-facets", "5"],
        ["verify", "--d", "3"],
        ["compare", "--kind", "ek"],
        ["poset", "--export", "json"],
        ["polarize", "--kind", "modified"],
    ], ids=" ".join)
    def test_removed_flag_is_unrecognized(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main([argv[0], "--named", "deg2", *argv[1:]])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestInternalError:
    def test_runtime_error_exits_3_without_traceback(self, monkeypatch, capsys):
        def broken(*args, **kwargs):
            raise RuntimeError("strand oracle disagrees (internal inconsistency)")

        monkeypatch.setattr("ekcells.cli.strand_exactness", broken)
        assert main(["verify", "--named", "deg2", "--check", "cw"]) == 3
        err = capsys.readouterr().err
        assert err == "internal error: strand oracle disagrees (internal inconsistency)\n"


    def test_cover_to_a_missing_pair_exits_3(self, monkeypatch, capsys):
        # a cover whose lower end is not among the layer's pairs is a fault
        # of the construction, not of the input
        from ekcells import posets

        real = posets.admissible_layers

        def without_first_pair(ideal, kind):
            first, *rest = real(ideal, kind)
            return [first[1:], *rest]

        monkeypatch.setattr(posets, "admissible_layers", without_first_pair)
        assert main(["poset", "--named", "deg2", "--kind", "ek"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "internal error: cover of e({1};x1*x2) ends at ((), x1^2), "
            "which is not an admissible pair\n"
        )

    @pytest.mark.parametrize("drop, term", [(0, "x1^2"), (1, "x1*x2")])
    def test_differential_to_a_missing_pair_exits_3(self, monkeypatch, capsys, drop, term):
        # the shifted row of e({1};x1*x2) is (x1^2), its plain row (x1*x2)
        from ekcells import ek

        real = ek.admissible_layers

        def without_one_pair(ideal, kind):
            first, *rest = real(ideal, kind)
            return [first[:drop] + first[drop + 1:], *rest]

        monkeypatch.setattr(ek, "admissible_layers", without_one_pair)
        assert main(["resolve", "--named", "deg2", "--kind", "ek"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("internal error:") and "Traceback" not in err
        assert err == (
            f"internal error: differential of e({{1}};x1*x2) has a term at ((), {term}), "
            "which is not an admissible pair\n"
        )


class TestPaperSuite:
    def test_reduced_counts(self, capsys):
        code = main(["paper-suite", "--random-count", "5", "--cm-count", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 7
        assert "all criteria passed" in out
