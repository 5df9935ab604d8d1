import dataclasses
import json
import re

import pytest

import quatsym.classifier
import quatsym.report
from quatsym.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--json")
    assert err == ""
    return code, json.loads(out)


class TestClassifyCommands:
    def test_quaternion_q_table(self, capsys):
        code, out, err = run(capsys, "classify", "quaternion", "--field", "q", "33", "29")
        assert code == 0 and err == ""
        assert "Division" in out
        assert "p=3, p=11" in out
        assert re.search(r"discriminant\s+33", out)

    def test_quaternion_q_json(self, capsys):
        code, payload = run_json(capsys, "classify", "quaternion", "--field", "q", "33", "29")
        assert code == 0
        assert payload["schema"] == 1
        assert payload["spec"] == {"kind": "quaternion", "field": "q", "a": 33, "b": 29}
        assert payload["status"] == "division"
        assert payload["ramified"] == ["p=3", "p=11"]
        assert payload["discriminant"] == 33
        assert payload["fast_path"] is None
        assert payload["certificate"]["symbols"]["p=3"] == -1
        assert isinstance(payload["ms"], float)

    def test_quaternion_qi_json(self, capsys):
        code, payload = run_json(capsys, "classify", "quaternion", "--field", "qi", "33", "29")
        assert code == 0
        assert payload["status"] == "split"
        assert payload["ramified"] == []
        assert payload["discriminant"] is None

    def test_negative_arguments(self, capsys):
        code, payload = run_json(capsys, "classify", "quaternion", "--field", "q", "-1", "-1")
        assert code == 0
        assert payload["status"] == "division"
        assert payload["ramified"] == ["p=2", "real"]

    def test_symbol_json(self, capsys):
        code, payload = run_json(capsys, "classify", "symbol", "--q", "3", "7", "43")
        assert code == 0
        assert payload["spec"] == {"kind": "symbol", "q": 3, "alpha": 7, "p": 43}
        assert payload["status"] == "division"
        assert payload["ramified"] == ["ell=43,f=1"]
        assert payload["certificate"]["witnesses"]["ell=43,f=1"] == 6
        assert payload["fast_path"] == "cyclotomic-nonresidue-division"

    def test_undetermined_exits_1(self, capsys):
        code, out, err = run(capsys, "classify", "symbol", "--q", "3", "7", "15")
        assert code == 1 and err == ""
        assert "Undetermined" in out and "not prime" in out

    def test_undetermined_json(self, capsys):
        code, payload = run_json(capsys, "classify", "symbol", "--q", "3", "7", "3")
        assert code == 1
        assert payload["status"] == "undetermined"
        assert "wild" in payload["certificate"]["reason"]

    def test_square_free_product_past_2_63(self, capsys):
        code, payload = run_json(capsys, "classify", "quaternion", "--field", "q",
                                 "10000000019", "10000000033")
        assert code == 0
        assert payload["status"] == "split"

    def test_invariant_failure_exits_3(self, capsys, monkeypatch):
        monkeypatch.setattr(quatsym.classifier, "_fast_path_rule",
                            lambda *args: ("bogus", "Division"))
        code, out, err = run(capsys, "classify", "quaternion", "--field", "q", "1", "1")
        assert code == 3 and out == ""
        assert "bogus predicted Division" in err

    def test_zero_parameter_message(self, capsys):
        code, out, err = run(capsys, "classify", "quaternion", "--field", "q", "0", "5")
        assert code == 2 and out == ""
        assert err == "parameters must be nonzero\n"


class TestScalarCommands:
    def test_legendre(self, capsys):
        code, out, _ = run(capsys, "legendre", "10", "29")
        assert code == 0 and out == "-1\n"
        code, payload = run_json(capsys, "legendre", "10", "29")
        assert payload == {"schema": 1, "kind": "legendre", "a": 10, "p": 29, "value": -1}

    def test_legendre_domain_error(self, capsys):
        code, out, err = run(capsys, "legendre", "3", "15")
        assert code == 2 and "prime" in err

    def test_hilbert_places(self, capsys):
        assert run(capsys, "hilbert", "33", "29", "3")[1] == "-1\n"
        assert run(capsys, "hilbert", "33", "29", "2")[1] == "1\n"
        assert run(capsys, "hilbert", "-1", "-1", "real")[1] == "-1\n"
        code, payload = run_json(capsys, "hilbert", "10", "29", "29")
        assert payload["value"] == -1 and payload["place"] == "29"

    def test_hilbert_bad_place(self, capsys):
        code, out, err = run(capsys, "hilbert", "3", "5", "xx")
        assert code == 2 and "place must be" in err

    def test_gaussian_factor(self, capsys):
        code, payload = run_json(capsys, "gaussian", "factor", "29")
        assert code == 0
        assert payload["unit"] == "-i"
        assert [f["pi"] for f in payload["factors"]] == ["2+5i", "5+2i"]
        assert all(f["residue_char"] == 29 and f["kind"] == "split" for f in payload["factors"])

    def test_gaussian_factor_literal(self, capsys):
        # a leading sign that is not a plain integer needs "--"
        code = main(["gaussian", "factor", "--json", "--", "-2+5i"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["unit"] == "i"
        assert payload["factors"] == [
            {"pi": "5+2i", "exp": 1, "residue_char": 29, "kind": "split"}
        ]

    def test_gaussian_factor_table(self, capsys):
        code, out, _ = run(capsys, "gaussian", "factor", "2")
        assert code == 0
        assert "unit" in out and "1+i" in out

    def test_gaussian_parse_error(self, capsys):
        code, _, err = run(capsys, "gaussian", "factor", "nope")
        assert code == 2 and err != ""


class TestOracleCommands:
    def test_conic_found(self, capsys):
        code, out, _ = run(capsys, "oracle", "conic", "35", "29")
        assert code == 0 and out == "x=1  y=1  z=8\n"

    def test_conic_absent_is_exit_1(self, capsys):
        code, out, _ = run(capsys, "oracle", "conic", "3", "5", "--bound", "30")
        assert code == 1
        assert out == "no witness found within height 30; inconclusive\n"

    def test_conic_json(self, capsys):
        code, payload = run_json(capsys, "oracle", "conic", "--field", "qi", "33", "29")
        assert code == 0
        assert payload["witness"] == ["i", "1", "2i"]
        assert payload["bound"] == 30
        code, payload = run_json(capsys, "oracle", "conic", "3", "5", "--bound", "25")
        assert code == 1 and payload["witness"] is None and payload["bound"] == 25

    def test_norm(self, capsys):
        code, out, _ = run(capsys, "oracle", "norm", "17", "2")
        assert code == 0 and out == "x=5/2  y=1/2\n"
        code, payload = run_json(capsys, "oracle", "norm", "5", "29")
        assert payload["witness"] == ["7", "2"]

    def test_norm_square_alpha_is_domain_error(self, capsys):
        code, _, err = run(capsys, "oracle", "norm", "4", "7")
        assert code == 2 and "perfect square" in err

    def test_isotropy(self, capsys):
        code, out, _ = run(capsys, "oracle", "isotropy", "1", "5", "--bound", "1")
        assert code == 0 and out == "x1=1  x2=1  x3=0  x4=0\n"
        code, payload = run_json(capsys, "oracle", "isotropy", "2", "3", "--bound", "40")
        assert code == 1 and payload["witness"] is None

    def test_kummer_norm(self, capsys):
        poly = "(-zeta_3 - 1)*b^2 + (-2*zeta_3 - 2)*b - 2*zeta_3 - 2"
        code, out, _ = run(capsys, "kummer-norm", "--q", "3", "--a", "7", "--poly", poly)
        assert code == 0 and out == "29\n"
        code, payload = run_json(capsys, "kummer-norm", "--q", "3", "--a", "7", "--poly", poly)
        assert payload["norm"] == "29" and payload["is_rational"] is True

    def test_kummer_norm_of_constant_is_qth_power(self, capsys):
        code, payload = run_json(capsys, "kummer-norm", "--q", "3", "--a", "7",
                                 "--poly", "zeta_3")
        assert code == 0
        assert payload["norm"] == "1" and payload["is_rational"] is True

    def test_kummer_norm_irrational_result(self, capsys):
        code, payload = run_json(capsys, "kummer-norm", "--q", "3", "--a", "7",
                                 "--poly", "b + zeta_3 - 1")
        assert code == 0
        assert payload["norm"] == "6*zeta_3 + 10"
        assert payload["is_rational"] is False

    def test_kummer_norm_parse_error(self, capsys):
        code, _, err = run(capsys, "kummer-norm", "--q", "3", "--a", "7", "--poly", "a*b")
        assert code == 2 and "two variables" in err


class TestReproduce:
    def test_all_rows_match(self, capsys):
        code, out, _ = run(capsys, "reproduce-paper")
        assert code == 0
        assert "14/14 rows match" in out
        assert "FAIL" not in out

    def test_json_shape(self, capsys):
        code, payload = run_json(capsys, "reproduce-paper")
        assert code == 0
        assert payload["schema"] == 1 and payload["kind"] == "reproduction"
        assert payload["total"] == 14 and payload["matches"] == 14
        assert payload["all_ok"] is True
        keys = [r["key"] for r in payload["rows"]]
        assert keys == sorted(keys, key=keys.index)  # stable order
        assert "qi:10:29" in keys and "sym5:19:31" in keys

    def test_only_row(self, capsys):
        code, payload = run_json(capsys, "reproduce-paper", "--only", "q:33:29")
        assert code == 0
        (row,) = payload["rows"]
        assert row["expected"] == row["computed"] == "Division"
        assert row["discriminant"] == 33

    def test_unknown_row(self, capsys):
        code, _, err = run(capsys, "reproduce-paper", "--only", "bogus")
        assert code == 2 and "unknown row" in err

    def test_tampered_expectation_fails(self, capsys, monkeypatch):
        rows = list(quatsym.report.ROWS)
        rows[0] = dataclasses.replace(rows[0], expected_status="Split")
        monkeypatch.setattr(quatsym.report, "ROWS", tuple(rows))
        code, out, _ = run(capsys, "reproduce-paper")
        assert code == 1
        assert "FAIL" in out and "13/14 rows match" in out

    def test_byte_stable_modulo_ms(self, capsys):
        def normalized():
            _, payload = run_json(capsys, "reproduce-paper")
            payload.pop("ms")
            return json.dumps(payload, sort_keys=True)

        assert normalized() == normalized()


class TestParserBasics:
    def test_no_arguments_is_usage_error(self, capsys):
        code, _, err = run(capsys)
        assert code == 2 and "usage" in err

    def test_unknown_command(self, capsys):
        code, _, err = run(capsys, "frobnicate")
        assert code == 2

    def test_help_exits_0(self, capsys):
        code, out, _ = run(capsys, "--help")
        assert code == 0 and "classify" in out

    def test_module_entry_point(self):
        import quatsym.__main__  # noqa: F401  (import must not execute main)
