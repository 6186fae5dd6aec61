import contextlib
import io
import json
import shlex
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from factorlab.cli import build_parser, main


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


def test_in_all_sbn_takes_no_probe(capsys):
    # the answer is exact, so there is no depth to cap
    with pytest.raises(SystemExit) as exc:
        main(["in-all-sbn", "--probe", "5", "a a b"])
    out, err = capsys.readouterr()
    assert exc.value.code == 2 and out == ""
    assert "--probe" in err and "Traceback" not in err


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


def test_algebra_coefficient_with_a_decimal_exponent_is_an_input_error(capsys):
    # the coefficient reader once converted 1e100000000 to an int for minutes
    code, out, err = run(capsys, "alg", "deg", "1e100000000 * a")
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error:") and "bad number" in err


def test_oversized_matrix_literal_coefficient_is_an_input_error(capsys):
    code, out, err = run(capsys, "pi-demo", "--matrix", "(3/7)^20000; x; 1; x*y")
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error:") and "bits" in err


def test_parser_is_built_once_per_process(capsys):
    build_parser.cache_clear()
    assert run(capsys, "normalize", "b a a b") == (0, "a^2\n", "")
    assert run(capsys, "lengths", "a a", "--cap", "8") == (0, "{2,4,6,8}\nexhausted: False\n", "")
    assert run(capsys, "lengths", "a a", "--cap", "1")[0] == 2
    info = build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 2)


def _found_literal(k):
    """``(f)*(1 + y^k)*(1 + y^2k)*...``, ``f`` a sum of k terms over distinct
    2000-bit denominators: within the term-product budget, but the lcm of the
    denominators of ``f`` passes MAX_COEFF_BITS at its third term."""
    f = " + ".join(f"1/{2**1999 + 2 * i + 1}*y^{i}" for i in range(k))
    return f"({f})" + "".join(f"*(1 + y^{k * 2**m})" for m in range(k.bit_length() - 1))


def test_a_sum_over_a_long_common_denominator_is_an_input_error(capsys):
    code, out, err = run(capsys, "pi-demo", "--matrix", f"{_found_literal(32)}; x; 1; x*y")
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error:") and "bits" in err


GOLDEN_ARGV = [shlex.split(command) for command in json.loads((Path(__file__).parent / "cli_golden.json").read_text())]
EDGE_TOKENS = ("0", "-1", str(10**30), "e", "a^0", "", "1/0", "a" * 5000, "--frobnicate", "(3/7)^1000 + (5/11)^1000*y")
# work that grows with a size the user asks for, with no budget: a draw may
# ask for no more than the golden commands do, and `alg divides` searches
# every cofactor up to its cap
SIZE_LIMITS = {"--depth": 20, "--steps": 25, "--pairs": 1000}


def _within_sizes(argv):
    for option, value in zip(argv, argv[1:]):
        limit = 8 if argv[:2] == ["alg", "divides"] and option == "--cap" else SIZE_LIMITS.get(option)
        if limit is not None and value.lstrip("-").isdigit() and int(value) > limit:
            return False
    return True


@st.composite
def _mutated_argv(draw):
    argv = list(draw(st.sampled_from(GOLDEN_ARGV)))
    i = len(argv) - 1 - draw(st.integers(0, len(argv) - 1))  # the command name last
    how = draw(st.sampled_from(("mutate", "delete", "duplicate", "edge")))
    if how == "mutate":  # insert or replace one character, counted from the end
        token = argv[i]
        j = len(token) - draw(st.integers(0, len(token)))
        argv[i] = token[:j] + draw(st.sampled_from("ab^-0123456789xy/;*() ")) + token[j + draw(st.integers(0, 1)) :]
    elif how == "delete":
        del argv[i]
    elif how == "duplicate":
        argv.insert(i, argv[i])
    else:
        argv[i] = draw(st.sampled_from(EDGE_TOKENS))
    return argv


@settings(max_examples=500, derandomize=True, deadline=None, database=None)
@given(_mutated_argv().filter(_within_sizes))
def test_every_argv_exits_0_1_or_2_without_a_traceback(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert "error:" in err.getvalue(), argv
