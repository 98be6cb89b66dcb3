import hashlib
import json

import pytest

from ekcells import FinitePoset, format_ideal
from ekcells.cli import main
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


class TestPaperSuite:
    def test_reduced_counts(self, capsys):
        code = main(["paper-suite", "--random-count", "5", "--cm-count", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 7
        assert "all criteria passed" in out
