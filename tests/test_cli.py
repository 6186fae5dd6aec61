import json

import pytest

from factorlab.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_normalize(capsys):
    code, out, _ = run(capsys, "normalize", "b a a b")
    assert code == 0
    assert out.strip() == "a^2"


def test_normalize_json(capsys):
    code, out, _ = run(capsys, "normalize", "b a a b", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc == {"input": "b a a b", "normal_form": "a^2", "group_element": "e | a^2"}


def test_equal(capsys):
    code, out, _ = run(capsys, "equal", "b a a b", "a a")
    assert code == 0 and out.startswith("equal")
    code, out, _ = run(capsys, "equal", "a b", "b a")
    assert code == 0 and out.startswith("distinct")


def test_atom(capsys):
    assert run(capsys, "atom", "a")[1].strip() == "atom"
    assert run(capsys, "atom", "e")[1].strip() == "unit"
    code, out, _ = run(capsys, "atom", "a a", "--json")
    doc = json.loads(out)
    assert doc["verdict"] == "composite" and doc["split"] == ["a^1", "a^1"]


def test_lengths(capsys):
    code, out, _ = run(capsys, "lengths", "a a", "--cap", "8")
    assert code == 0
    assert out.splitlines()[0] == "{2,4,6,8}"


def test_lengths_cap_error(capsys):
    code, _, err = run(capsys, "lengths", "a a", "--cap", "1")
    assert code == 2
    assert "error" in err
    # a cap longer than any accepted word is refused before the set is built
    code, out, err = run(capsys, "lengths", "a a", "--cap", str(10**12))
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error:") and "cap" in err


def test_accp(capsys):
    code, out, _ = run(capsys, "accp", "--depth", "5", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["depth"] == 5 and doc["certified"]
    assert doc["chain"][0] == "a^2" and doc["chain"][1] == "b^1 a^2"


def test_in_all_sbn(capsys):
    code, out, _ = run(capsys, "in-all-sbn", "a a", "--json")
    doc = json.loads(out)
    assert code == 0 and doc["forever"] and doc["exponent"] == 0
    code, out, _ = run(capsys, "in-all-sbn", "b b b", "--json")
    doc = json.loads(out)
    assert not doc["forever"] and doc["exponent"] == 3


def test_alg_commands(capsys):
    code, out, _ = run(capsys, "alg", "mul", "1 * b", "1 * a^2 b^1")
    assert code == 0 and out.strip() == "1 * a^2"  # b * a^2 b = (b a^2 b) = a^2
    code, out, _ = run(capsys, "alg", "deg", "1 * a^2 + 1 * b")
    assert out.strip() == "2"
    code, out, _ = run(capsys, "alg", "divides", "1 * a^2", "1 * b", "--json")
    assert json.loads(out)["status"] == "no"
    code, _, err = run(capsys, "alg", "mul", "1 * a")
    assert code == 2 and "rhs" in err


@pytest.mark.parametrize("lhs, rhs", [("1 * a + 1 * b", "1 * a^2 + 1 * b"), ("1 * a", "1 * a a")])
def test_alg_divides_rejects_a_negative_cap(capsys, lhs, rhs):
    # the solver path and the monomial fast path refuse the cap alike
    code, out, err = run(capsys, "alg", "divides", lhs, rhs, "--cap", "-1")
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error:") and "cap" in err and "-1" in err


def test_growth_csv_and_json(capsys):
    code, out, _ = run(capsys, "growth", "--family", "free", "--n-max", "8")
    lines = out.splitlines()
    assert code == 0 and lines[0] == "n,dim" and lines[1] == "0,1" and lines[9] == "8,511"
    code, out, _ = run(capsys, "growth", "--family", "two-relator", "--n-max", "10", "--json")
    doc = json.loads(out)
    assert doc["entries"][2] == [2, 7]
    assert doc["classification"]["kind"] == "exponential"
    code, out, _ = run(capsys, "growth", "--family", "free", "--n-max", "6", "--gnuplot")
    assert out.splitlines()[0] == "0 1"


def test_skew_and_filt_checks(capsys):
    code, out, _ = run(capsys, "skew-check", "--pairs", "60", "--seed", "3", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] and doc["right_length_violations"] == 0
    code, out2, _ = run(capsys, "skew-check", "--pairs", "60", "--seed", "3", "--json")
    assert out == out2  # bit-exact for a fixed seed
    code, out, _ = run(capsys, "skew-check", "--config", "qtorus:q=2", "--pairs", "40")
    assert code == 0
    code, out, _ = run(capsys, "filt-check", "--pairs", "40", "--json")
    assert code == 0 and json.loads(out)["violations"] == 0


def test_lenfn_check_finds_the_violation(capsys):
    for candidate in ("word-length", "a-count", "a-plus-b-count"):
        code, out, _ = run(capsys, "lenfn-check", "--candidate", candidate, "--json")
        assert code == 1  # a violation was found, which is the demonstration
        doc = json.loads(out)
        assert doc["refuted"]
        assert doc["report"]["violations"]


def test_pi_demo(capsys):
    code, out, _ = run(capsys, "pi-demo", "--steps", "4", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["steps"] == 4 and doc["ok"]
    code, _, err = run(capsys, "pi-demo", "--steps", "2", "--matrix", "1; 1; 1; 1")
    assert code == 2  # not in the ring: top-right entry must be divisible by x


def test_unknown_flag_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["normalize", "a", "--frobnicate"])
    assert exc.value.code == 2


def test_unknown_generator_is_reported(capsys):
    code, _, err = run(capsys, "normalize", "q")
    assert code == 2 and "unknown generator" in err


def test_zero_denominator_is_an_input_error(capsys):
    for argv in (
        ("alg", "mul", "1/0 * a", "1 * b"),
        ("alg", "mul", "1/7 * a", "1 * b", "--char", "7"),
        ("pi-demo", "--steps", "2", "--matrix", "1/0; x; 1; x*y"),
        ("skew-check", "--config", "qtorus:q=1/0", "--pairs", "5"),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "", argv
        assert len(err.splitlines()) == 1 and err.startswith("error:"), argv


def test_deeply_nested_matrix_literal_is_an_input_error(capsys):
    entry = "(" * 2000 + "1" + ")" * 2000
    code, _, err = run(capsys, "pi-demo", "--steps", "2", "--matrix", f"{entry}; x; 1; x*y")
    assert code == 2 and "nested" in err


def test_over_budget_matrix_literal_is_an_input_error(capsys):
    code, out, err = run(capsys, "pi-demo", "--matrix", "1; x; 1; x*y^1000000000000")
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error:") and "term products" in err


def test_pairs_must_be_positive(capsys):
    for command in ("skew-check", "filt-check"):
        for pairs in ("-5", "0"):
            with pytest.raises(SystemExit) as exc:
                main([command, "--pairs", pairs])
            assert exc.value.code == 2


def test_growth_budget_must_be_positive(capsys):
    code, out, err = run(capsys, "growth", "--family", "two-relator", "--n-max", "3", "--budget", "0")
    assert code == 2 and out == "" and "budget" in err


def test_huge_exponent_is_an_input_error(capsys):
    code, out, err = run(capsys, "normalize", "a^99999999999")
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error:") and "letters" in err


def test_word_length_limit_counts_all_tokens(capsys):
    # each token is under the limit, their total is over it
    code, out, err = run(capsys, "normalize", "a^6000000 b^6000000")
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error:") and "letters" in err


@pytest.mark.parametrize("q", ["1e99", "2.5", "+2", "2^3", str(2**5000)], ids=lambda q: q[:8])
def test_skew_check_accepts_only_bounded_rational_q(capsys, q):
    # a decimal exponent such as 1e9999999 once built q = 10^9999999 and hung
    code, out, err = run(capsys, "skew-check", "--config", f"qplane:q={q}", "--pairs", "2")
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error:")


def test_oversized_matrix_literal_coefficient_is_an_input_error(capsys):
    code, out, err = run(capsys, "pi-demo", "--matrix", "(3/7)^20000; x; 1; x*y")
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error:") and "bits" in err
