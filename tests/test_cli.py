import argparse
import hashlib
import json
import re
import sys
from pathlib import Path

import pytest

from ekcells import FinitePoset, cli, format_ideal, topology
from ekcells.cli import build_parser, main
from ekcells.monomials import FACTOR_LIMIT
from ekcells.suite import NAMED_IDEALS, named_ideal
from conftest import power_ideal

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


# SHA-256 of the stairs diagrams `polarize --diagram` writes and of the file
# `resolve --kind modified --export json --d 6` writes for the named ideals,
# recorded before the modified ring moved onto the squares that bpol(I) uses.
# With --d 6 the column bound exceeds every generator degree; only the JSON
# ring's "d" shows it.
STAIRS_DIGESTS = {
    "deg2/stairs.txt": "235de57309a634a782434588ba4554559559855c103637ec765dcc85e45f126d",
    "tri-tri/stairs.txt": "8b9a69375fbea3a3f6cacf59f5b331877651cf20a22acdea306ff576ba74b7ca",
    "tri-sq/stairs.txt": "64e0c2a54bc924947a3cb5d83db718bba3dfcb5d4743fd662aaa126677275249",
    "deg4/stairs.txt": "b297dbf53431206dd6d346887cc237a5122cb7cd3dc68d6db1420f8c1bf299bd",
    "intro/stairs.txt": "8d089ce2a72101ee6c1778a780ce55264b59a380c4821a3c6dde3c21995766df",
}
WIDE_EXPORT_DIGESTS = {
    "deg2/modified.complex.json": "45f2e455800fb456564d1b36c10bd4983f3801a62372059305f8a1e00f914807",
    "tri-tri/modified.complex.json": "7e87cf8217b0dc0215b2294f45ee5ac5abe04d8251831e032c616c3443d93c78",
    "tri-sq/modified.complex.json": "c507055a526595a9cfcfd65c59553afa57efca0a264ef525d4cca555d3a40cc2",
    "deg4/modified.complex.json": "d3e6645d88dee6eb68239474efb95bcaedb8bce6f1c88b054df603ff3e4811cb",
    "intro/modified.complex.json": "c38df605c77fc480479a796005c458eff8872559f29669dbcff540a183e7c638",
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

    @pytest.mark.parametrize("argv, recorded", [
        (["polarize", "--diagram"], STAIRS_DIGESTS),
        (["resolve", "--kind", "modified", "--export", "json", "--d", "6"], WIDE_EXPORT_DIGESTS),
    ])
    def test_stairs_and_wide_ring_bytes(self, argv, recorded, tmp_path, capsys):
        digests = {}
        for ideal_name in NAMED_IDEALS:
            out = tmp_path / ideal_name
            assert main([*argv, "--named", ideal_name, "--out", str(out)]) == 0
            for path in out.iterdir():
                digest = hashlib.sha256(path.read_bytes()).hexdigest()
                digests[f"{ideal_name}/{path.name}"] = digest
        assert digests == recorded


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

    @pytest.mark.parametrize("ideal", ["deg2", "tri-sq", "pow4-4"])
    def test_cone_route_keeps_the_walk_bytes(self, ideal, monkeypatch, tmp_path, capsys):
        # the strands of both kinds certified on the mapping cone or walked on
        # their lattices: the same verify JSON, byte for byte
        if ideal == "pow4-4":
            path = tmp_path / "pow4-4.ideal"
            path.write_text(format_ideal(power_ideal(4, 4)), encoding="utf-8")
            source = ["--ideal", str(path)]
        else:
            source = ["--named", ideal]
        argv = ["verify", *source, "--check", "all"]
        outputs, certified, cone = [], [], topology._mapping_cone
        for route in (lambda *args: certified.append(cone(*args)) or certified[-1],
                      lambda *args: None):
            monkeypatch.setattr(topology, "_mapping_cone", route)
            assert main(argv) == 0
            outputs.append(capsys.readouterr().out)
        assert len(certified) == 2 and None not in certified
        assert outputs[0] == outputs[1]
        assert all(k["strands"]["ok"] for k in json.loads(outputs[0])["kinds"].values())

    def test_el_counts_come_from_the_cw_sweep(self, el_sweeps, capsys):
        # one sweep per kind, the one behind the CW verdict
        assert main(["verify", "--named", "deg2", "--check", "all"]) == 0
        kinds = json.loads(capsys.readouterr().out)["kinds"]
        assert el_sweeps == [(kind, k["el"]["intervals"]) for kind, k in kinds.items()]

    @pytest.mark.parametrize("check, cone, calls", [
        ("all", "certifies", 0), ("cw", "certifies", 0),
        ("all", "declines", 2), ("cw", "declines", 2),
    ])
    def test_one_frame_homology_per_kind(self, check, cone, calls, monkeypatch, capsys):
        # deg4 is cone-certified in both kinds, and the cone proves the
        # frame's reduced homology zero, so no frame is ranked; where the cone
        # declines, one frame per kind is (with a ball check, its homology
        # verdict is the reduced homology's), and the bytes stay the same
        argv = ["verify", "--named", "deg4", "--check", check]
        assert main(argv) == 0
        want = capsys.readouterr().out
        seen = []
        original = topology.homology_ranks

        def counted(cplx):
            seen.append(cplx)
            return original(cplx)

        monkeypatch.setattr(topology, "homology_ranks", counted)
        monkeypatch.setattr(cli, "homology_ranks", counted)
        if cone == "declines":
            monkeypatch.setattr(topology, "_mapping_cone", lambda *args: None)
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert len(seen) == calls
        assert out == want
        assert all(k["reduced_homology_trivial"] for k in json.loads(out)["kinds"].values())

    @pytest.mark.parametrize("cone, built", [("certifies", 0), ("declines", 2)])
    def test_ball_check_builds_a_chain_complex_only_to_rank(self, cone, built, monkeypatch,
                                                            capsys):
        # the ball check counts ridges on the frame's columns; where the cone
        # proves its homology zero, no IntegerChainComplex is built at all,
        # and where it declines, one per kind, to rank; the bytes stay the same
        argv = ["verify", "--named", "deg4", "--check", "all"]
        assert main(argv) == 0
        want = capsys.readouterr().out
        seen, original = [], topology.IntegerChainComplex
        monkeypatch.setattr(topology, "IntegerChainComplex",
                            lambda *args: seen.append(args) or original(*args))
        if cone == "declines":
            monkeypatch.setattr(topology, "_mapping_cone", lambda *args: None)
        assert main(argv) == 0
        assert capsys.readouterr().out == want
        assert len(seen) == built

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

    @pytest.mark.parametrize("flag", ["--seed", "--max-n", "--max-deg", "--max-gens"])
    @pytest.mark.parametrize("command", ["resolve", "verify", "polarize", "poset", "compare"])
    def test_draw_flag_without_random_borel_exits_2_before_output(self, command, flag, capsys):
        # each was once ignored on a named or read ideal, with exit 0
        assert main([command, "--named", "deg2", flag, "5"]) == 2
        assert capsys.readouterr() == ("", f"error: {flag} needs --random-borel\n")

    @pytest.mark.parametrize("flag", ["--random-count", "--cm-count"])
    def test_negative_suite_count_exits_2(self, flag, capsys):
        # a negative count once passed as "-3 random Borel ideals" with exit 0
        assert main(["paper-suite", flag, "-3"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: {flag} must be at least 0, got -3\n"


class TestHugeExponents:
    # a list of 10^12 factors raises MemoryError, one of 10^9 takes 8 GB
    @pytest.fixture(params=[FACTOR_LIMIT + 1, 10**12, sys.maxsize - 1, 99999999999999999999])
    def degree(self, request):
        return request.param

    @pytest.fixture
    def huge_power(self, degree, tmp_path):
        path = tmp_path / "huge.ideal"
        path.write_text(f"3 1\n{degree} 0 0\n", encoding="utf-8")
        return str(path)

    @pytest.mark.parametrize("argv", [
        ["resolve"], ["verify"], ["verify", "--kind", "modified"], ["polarize"],
    ], ids=" ".join)
    def test_unlistable_factors_exit_2_naming_the_generator(self, argv, degree, huge_power,
                                                            capsys):
        # polarizing lists a generator's factors, and there are too many;
        # with both kinds asked for, nothing is printed first
        assert main([*argv, "--ideal", huge_power]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: cannot list the {degree} factors of x1^{degree}\n"

    def test_classical_strands_take_any_exponent(self, huge_power, tmp_path, capsys):
        path = tmp_path / "two.ideal"
        path.write_text("2 2\nx1\nx2^100000000000000000000\n", encoding="utf-8")
        for ideal, checked in ((huge_power, 1), (str(path), 3)):
            assert main(["verify", "--ideal", ideal, "--kind", "ek", "--check", "cw"]) == 0
            strands = json.loads(capsys.readouterr().out)["kinds"]["ek"]["strands"]
            assert strands == {"ok": True, "checked": checked, "first_failure": None}


class TestIdealFileHeader:
    @pytest.mark.parametrize("header", ["n 2", "2"])
    def test_bad_header_names_the_expected_one(self, header, tmp_path, capsys):
        path = tmp_path / "bad.ideal"
        path.write_text(f"{header}\nx1\nx2\n", encoding="utf-8")
        assert main(["resolve", "--ideal", str(path)]) == 2
        err = capsys.readouterr().err
        assert err == f'error: expected header "<n> <count>", got {header!r}\n'


class TestFuzzList:
    # each bad input exits 2 with one "error:" line and prints nothing else
    @pytest.mark.parametrize("text, message", [
        ("3 0\n", "invalid header values n=3, count=0"),
        ("", "empty ideal file"),
        ("2 1\n1\n", "the unit ideal is not supported"),
        ("2 1\nx3\n", "line 2: variable index 3 out of range 1..2"),
        ("-1 2\nx1\nx2\n", "invalid header values n=-1, count=2"),
        ("2 1\nx1^a\n", "line 2: cannot parse monomial factor 'x1^a'"),
        ("# two variables\n2 2\n\n1 1\n1.5 1\n", "line 5: exponent '1.5' is not an integer"),
        ("2 1\n0 1 2\n", "line 2: expected 2 exponents, got 3: '0 1 2'"),
    ], ids=["no generators", "empty file", "unit ideal", "index above n", "negative n",
            "exponent not a number", "fractional exponent", "exponent count"])
    def test_bad_ideal_file_exits_2(self, text, message, tmp_path, capsys):
        path = tmp_path / "bad.ideal"
        path.write_text(text, encoding="utf-8")
        assert main(["resolve", "--ideal", str(path)]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_unknown_name_and_missing_file_exit_2(self, tmp_path, capsys):
        assert main(["resolve", "--named", "nope"]) == 2
        assert capsys.readouterr() == ("", "error: unknown named ideal 'nope'\n")
        assert main(["resolve", "--ideal", str(tmp_path / "missing.ideal")]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1
        assert "No such file" in err

    def test_duplicate_generator_counts_once(self, tmp_path, capsys):
        path = tmp_path / "twice.ideal"
        path.write_text("2 2\nx1\nx1\n", encoding="utf-8")
        assert main(["resolve", "--ideal", str(path)]) == 0
        assert capsys.readouterr() == ("ek: ranks [1]\nmodified: ranks [1]\n", "")


_INPUT_FLAGS = {"-h", "--help", "--ideal", "--named", "--random-borel", "--seed",
                "--max-n", "--max-deg", "--max-gens"}


def _readme_cli_flags():
    """The flags each row of README's CLI table names, by subcommand."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    table = text.split("| subcommand | flags |\n|---|---|\n", 1)[1].split("\n\n", 1)[0]
    rows = {}
    for line in table.splitlines():
        name, flags = re.fullmatch(r"\| `([a-z-]+)` \| (.*) \|", line).groups()
        rows[name] = set(re.findall(r"--[a-z][a-z-]*", flags))
    return rows


class TestOptionSurface:
    def test_each_subcommand_declares_the_flags_it_reads(self):
        parser = build_parser()
        (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        surface = {
            name: {flag for action in sub._actions for flag in action.option_strings}
            for name, sub in subparsers.choices.items()
        }
        own = {  # the flags each subcommand reads besides its input
            "resolve": {"--kind", "--d", "--export", "--out"},
            "verify": {"--kind", "--check", "--compare-posets", "--expect-ball"},
            "polarize": {"--d", "--diagram", "--out"},
            "poset": {"--kind", "--out"},
            "compare": {"--expect"},
            "paper-suite": {"--random-count", "--cm-count", "--seed", "--progress"},
        }
        inputs = {name: {"-h", "--help"} if name == "paper-suite" else _INPUT_FLAGS
                  for name in own}
        assert surface == {name: own[name] | inputs[name] for name in own}
        # README's CLI table names exactly those, row by row
        assert _readme_cli_flags() == own

    @pytest.mark.parametrize("argv, message", [
        (["resolve", "--kind", "ek"], "--out needs --export json|dot"),
        (["polarize"], "--out needs --diagram"),
    ], ids=["resolve", "polarize"])
    def test_out_without_a_file_to_write_exits_2_before_output(self, argv, message,
                                                                tmp_path, capsys):
        # --out was once ignored there: exit 0, nothing written
        out_dir = tmp_path / "out"
        assert main([*argv, "--named", "intro", "--out", str(out_dir)]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert not out_dir.exists()

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
        # of the construction, not of the input; the covers of the cell
        # poset are the differential's entries, so the complex reports it
        from ekcells import ek

        real = ek.admissible_layers

        def without_first_pair(ideal, kind):
            first, *rest = real(ideal, kind)
            return [first[1:], *rest]

        monkeypatch.setattr(ek, "admissible_layers", without_first_pair)
        assert main(["poset", "--named", "deg2", "--kind", "ek"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "internal error: differential of e({1};x1*x2) has a term at ((), x1^2), "
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
