import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from capitula.cli import emit_json, main


AS_CURVE = {"kind": "artin_schreier", "q": 2, "p_or_l": 2,
            "Q_or_f": {"num": [0, 0, 0, 1], "den": [1]}}
KUMMER_CURVE = {"kind": "kummer", "q": 3, "p_or_l": 2,
                "Q_or_f": {"num": [0, 1], "den": [1]}}
KUMMER_F5_CURVE = {"kind": "kummer", "q": 5, "p_or_l": 2,
                   "Q_or_f": {"num": [1, 0, 0, 1], "den": [1]}}
CYCLIC9_PROFILE = {
    "base": "number", "n": 9, "group": "cyclic",
    "places": [
        {"id": "s0", "in_S": True, "e": 1, "f": 1},
        {"id": "v", "in_S": False, "e": 3, "f": 1},
    ],
}
BAD_H2_PROFILE = {
    "base": "number", "n": 8, "group": "general",
    "places": [
        {"id": "s0", "in_S": True, "e": 1, "f": 1},
        {"id": "v", "in_S": False, "e": 2, "f": 2, "h2_local_order": 8},
    ],
}
COPRIME_PROFILE = {
    "base": "number", "n": 6, "group": "cyclic",
    "places": [
        {"id": "a", "in_S": True, "e": 1, "f": 2},
        {"id": "b", "in_S": True, "e": 1, "f": 3},
    ],
}


def write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


class TestAnalyze:
    def test_cyclic_nine_reports_hilbert94(self, tmp_path, capsys):
        code = main(["analyze", write(tmp_path, "p.json", CYCLIC9_PROFILE), "--json"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["analysis"]["bounds"]["hilbert94"]["value"] == 3

    def test_violating_profile_exits_2(self, tmp_path, capsys):
        code = main(["analyze", write(tmp_path, "p.json", BAD_H2_PROFILE), "--json"])
        captured = capsys.readouterr()
        assert code == 2
        out = json.loads(captured.out)
        assert not out["validation"]["ok"]
        assert any(v["rule"] == "local-h2-upper" for v in out["validation"]["violations"])

    def test_assume_genus_field_reports_the_genus_h1_order(self, tmp_path, capsys):
        profile = dict(CYCLIC9_PROFILE, h_FS=2)
        code = main(["analyze", write(tmp_path, "p.json", profile),
                     "--assume-genus-field", "--json"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        # |H^1| = h_F * e_v = 2 * 3; with h_F > 1 the structure needs the
        # class exponent condition
        assert out["analysis"]["bounds"]["genus_h1_order"] == {"value": 6, "kind": "exact"}
        assert "genus_h1" not in out["analysis"]["structures"]

    def test_pairwise_coprime_reports_norm_flag(self, tmp_path, capsys):
        code = main(["analyze", write(tmp_path, "p.json", COPRIME_PROFILE), "--json"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["analysis"]["flags"]["all_units_norms"]
        b = out["analysis"]["b_group"]
        assert b["order"] == 1

    def test_function_field_profile_invariants(self, tmp_path, capsys):
        profile = {
            "base": {"function": {"q": 2}}, "n": 2, "group": "cyclic",
            "q_prime": 2, "h_FS": 1, "h_KS": 8,
            "places": [
                {"id": "inf", "in_S": True, "e": 2, "f": 1, "deg": 1},
                {"id": "t", "in_S": False, "e": 2, "f": 1, "deg": 1},
            ],
        }
        code = main(["analyze", write(tmp_path, "p.json", profile), "--json"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        ff = out["analysis"]["ff_invariants"]
        assert ff["delta"] == 1 and ff["m"] == 1
        assert ff["delta_prime"] is None
        assert out["analysis"]["flags"]["prop86"]
        assert out["analysis"]["flags"]["imaginary"]
        assert out["analysis"]["bounds"]["ambiguous_order"]["value"] == 2
        # the gcd(n, q'-1) hypothesis fails for the same shape over F_3
        profile_f3 = dict(profile, base={"function": {"q": 3}}, q_prime=3)
        code = main(["analyze", write(tmp_path, "p3.json", profile_f3), "--json"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert not out["analysis"]["flags"]["imaginary"]

    def test_function_field_that_does_not_exist_exits_2(self, tmp_path, capsys):
        # no field has 6 elements; over F_2 a constant field of 6 elements
        # is no extension either
        profile = {"base": {"function": {"q": 6}}, "n": 2, "group": "cyclic",
                   "places": [{"id": "inf", "in_S": True, "e": 2, "f": 1, "deg": 1}]}
        assert main(["analyze", write(tmp_path, "p.json", profile)]) == 2
        assert capsys.readouterr().err == \
            "error: no finite field has 6 elements: q must be a prime power\n"
        profile = dict(profile, base={"function": {"q": 2}}, q_prime=6)
        assert main(["analyze", write(tmp_path, "p2.json", profile), "--json"]) == 2
        out = json.loads(capsys.readouterr().out)
        assert [v["rule"] for v in out["validation"]["violations"]] == ["q-prime-power"]

    def test_malformed_json_exits_1(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["analyze", str(path)]) == 1

    @pytest.mark.parametrize("profile, message", [
        ({"base": "number", "n": 2, "group": {"abelian": 5}}, "abelian must be a JSON list"),
        (dict(CYCLIC9_PROFILE, places=5), "places must be a JSON list"),
        (dict(CYCLIC9_PROFILE, places=[{"id": 5, "in_S": True, "e": 1, "f": 1}]),
         "place id must be a JSON string"),
    ])
    def test_wrong_json_types_exit_2_by_name(self, tmp_path, capsys, profile, message):
        assert main(["analyze", write(tmp_path, "p.json", profile)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}, got 5")
        assert "Traceback" not in err

    def test_unknown_key_exits_2(self, tmp_path, capsys):
        profile = dict(CYCLIC9_PROFILE)
        profile["surprise"] = 1
        assert main(["analyze", write(tmp_path, "p.json", profile)]) == 2


class TestKernelSum:
    def test_examples(self, capsys):
        assert main(["kernel-sum", "-d", "2,2"]) == 0
        assert "order 2" in capsys.readouterr().out
        assert main(["kernel-sum", "-d", "2,3"]) == 0
        assert "trivial" in capsys.readouterr().out
        assert main(["kernel-sum", "-d", "4,4,2", "--json"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["kernel"]["order"] == 8


class TestOracle:
    def test_elliptic_all_checks_pass(self, tmp_path, capsys):
        code = main(["oracle", write(tmp_path, "c.json", AS_CURVE), "--json"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["class_number"] == 3
        assert out["pic0"] == [3]
        assert out["galois_invariants"] == []
        assert all(check["pass"] for check in out["checks"])

    def test_kummer_delta_report(self, tmp_path, capsys):
        code = main(["oracle", write(tmp_path, "c.json", KUMMER_CURVE), "--json"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["delta"] == 1 and out["delta_prime"] == 1

    def test_json_roundtrip_is_byte_identical(self, tmp_path, capsys):
        code = main(["oracle", write(tmp_path, "c.json", AS_CURVE), "--json"])
        captured = capsys.readouterr().out
        assert code == 0
        assert emit_json(json.loads(captured)) == captured

    def test_explicit_s_places(self, tmp_path, capsys):
        code = main(["oracle", write(tmp_path, "c.json", AS_CURVE),
                     "--s", "inf,t", "--json"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["s"] == ["inf", "t"]
        assert out["s_k_count"] == 3  # one ramified at inf plus two above t

    def test_degenerate_curve_exits_2(self, tmp_path, capsys):
        degenerate = {"kind": "artin_schreier", "q": 2, "p_or_l": 2,
                      "Q_or_f": {"num": [0, 1, 1], "den": [1]}}
        assert main(["oracle", write(tmp_path, "c.json", degenerate)]) == 2

    def test_place_index_outside_the_field_exits_2(self, tmp_path, capsys):
        curve = {"kind": "kummer", "q": 5, "p_or_l": 2, "Q_or_f": {"num": [0, 1]}}
        assert main(["oracle", write(tmp_path, "c.json", curve), "--s", "t+5"]) == 2
        assert "coefficient 5 in term '5' is not an element index 0..4 of GF(5)" \
            in capsys.readouterr().err

    def test_malformed_place_exits_2(self, tmp_path, capsys):
        curve = {"kind": "kummer", "q": 5, "p_or_l": 2, "Q_or_f": {"num": [0, 1]}}
        assert main(["oracle", write(tmp_path, "c.json", curve), "--s", "t+a"]) == 2
        assert "error: cannot parse term 'a'" in capsys.readouterr().err

    # t^2+4 = (t+1)(t+4) and t^2+1 = (t+2)(t+3) over F_5; t^2+2 is irreducible
    @pytest.mark.parametrize("place", ["t^2+4", "t^2+1"])
    def test_reducible_place_exits_2_by_name(self, tmp_path, capsys, place):
        assert main(["oracle", write(tmp_path, "c.json", KUMMER_F5_CURVE), "--s", place]) == 2
        err = capsys.readouterr().err
        assert err == f"error: '{place}' is reducible over GF(5), not a place\n"

    @pytest.mark.parametrize("places,name", [("inf,inf", "inf"), ("t,t+0", "t")])
    def test_repeated_place_exits_2_by_name(self, tmp_path, capsys, places, name):
        assert main(["oracle", write(tmp_path, "c.json", AS_CURVE), "--s", places]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: S lists the place {name} twice\n"
        assert captured.out == ""

    def test_empty_s_exits_2_before_the_presentation(self, tmp_path, capsys, monkeypatch):
        from capitula import verify

        def unreachable(*args, **kwargs):
            raise AssertionError("picard_group ran on an empty S")

        monkeypatch.setattr(verify, "picard_group", unreachable)
        assert main(["oracle", write(tmp_path, "c.json", AS_CURVE), "--s", ","]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: S must be nonempty\n"
        assert captured.out == ""

    def test_irreducible_quadratic_place_answers(self, tmp_path, capsys):
        code = main(["oracle", write(tmp_path, "c.json", KUMMER_F5_CURVE),
                     "--s", "t^2+2", "--json"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["s"] == ["t^2+2"]
        assert all(check["pass"] for check in out["checks"])


class TestVerify:
    def test_unknown_suite_exits_1(self, capsys):
        assert main(["verify", "nonsense"]) == 1

    def test_abelian_suite(self, capsys):
        assert main(["verify", "abelian"]) == 0
        out = capsys.readouterr().out
        assert "[PASS]" in out and "[FAIL]" not in out

    def test_cohomology_suite_json(self, capsys):
        assert main(["verify", "cohomology", "--json"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert all(check["pass"] for check in out["checks"])

    def test_corpus_suite(self, capsys):
        assert main(["verify", "corpus", "--json"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert len(out["checks"]) >= 100
        assert all(check["pass"] for check in out["checks"])


class TestConfig:
    def test_config_respected(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "capitula.json").write_text(json.dumps({"max_genus": 0}))
        code = main(["oracle", write(tmp_path, "c.json", AS_CURVE)])
        assert code == 3  # genus 1 exceeds the configured cap

    def test_unknown_config_key_exits_1(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "capitula.json").write_text(json.dumps({"bogus": 1}))
        assert main(["oracle", write(tmp_path, "c.json", AS_CURVE)]) == 1

    @pytest.mark.parametrize("value", [2.7, True, "3", -1, None, [1]])
    def test_config_value_not_a_nonnegative_int_exits_1(self, tmp_path, monkeypatch, capsys, value):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "capitula.json").write_text(json.dumps({"max_genus": value}))
        assert main(["oracle", write(tmp_path, "c.json", AS_CURVE)]) == 1
        assert "'max_genus'" in capsys.readouterr().err

    @pytest.mark.parametrize("value, message", [
        (1.5, "config 'max_genus' must be an integer, got 1.5"),
        (True, "config 'max_genus' must be an integer, got True"),
        ("3", "config 'max_genus' must be an integer, got '3'"),
        (-1, "config 'max_genus' must be an integer >= 0, got -1"),
    ])
    def test_load_config_names_the_key_and_value(self, tmp_path, value, message):
        from capitula.cli import load_config

        (tmp_path / "capitula.json").write_text(json.dumps({"max_genus": value}))
        with pytest.raises(ValueError) as info:
            load_config(tmp_path)
        assert str(info.value) == message

    def test_a_config_naming_every_field_at_its_default_loads_the_default(self, tmp_path):
        from capitula.cli import load_config
        from capitula.fforacle import OracleConfig
        from capitula.fforacle.gf import MAX_FIELD_SIZE

        defaults = dataclasses.asdict(OracleConfig())
        assert defaults["max_field_size"] == MAX_FIELD_SIZE
        (tmp_path / "capitula.json").write_text(json.dumps(defaults))
        assert load_config(tmp_path) == OracleConfig()

    def test_no_command_exits_1(self):
        assert main([]) == 1


class TestUsage:
    # argparse's own usage errors exit 1, the documented code, not its 2
    @pytest.mark.parametrize("argv", [
        ["oracle"],
        ["bogus"],
        ["kernel-sum"],
        ["oracle", "c.json", "--degree-bound", "q"],
    ])
    def test_usage_error_exits_1(self, capsys, argv):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["--help"], ["oracle", "--help"]])
    def test_help_exits_0(self, capsys, argv):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 0
        assert "usage:" in capsys.readouterr().out


def test_python_m_capitula_runs_the_cli():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    done = subprocess.run([sys.executable, "-m", "capitula", "verify", "nosuch"],
                          env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 1
    assert "unknown suite 'nosuch'" in done.stderr
