"""Command-line front end: outputs, exit codes, schemas, reproducibility."""

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import jsonschema
import pytest

from densepairs import schemas
from densepairs.cli import _build_parser, run
from densepairs.measure import bucket_partition
from densepairs.parser import parse, parse_element
from densepairs.terms import hvar


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_qe_command(capsys):
    code, out, _ = invoke(capsys, "qe", "--theory", "povs", "E x1. (0 < x1 & x1 < x2 & Q(x1))")
    assert code == 0
    assert out.strip() == "0 < x2"


def test_decide_command(capsys):
    code, out, _ = invoke(capsys, "decide", "--theory", "povs", "E x1. (Q(x1) & !Q(x1))")
    assert code == 0
    assert out.strip() == "false"


@pytest.mark.parametrize("text", ["E x1. E x1. E x1. E x1. x1 < 0", "E x0. E x0. E x0. x0 < 0"])
def test_decide_repeated_binders(capsys, text):
    # each renamed binder needs a name no other binder in scope uses
    assert invoke(capsys, "decide", text)[:2] == (0, "true\n")


def test_measure_command_text_and_json(capsys):
    code, out, _ = invoke(capsys, "measure", "Q(x1)")
    assert code == 0 and out.strip() == "0"

    code, out, _ = invoke(capsys, "measure", "--format", "json", "x1 > r2 - 1 & x1 < 1")
    assert code == 0
    data = json.loads(out)
    jsonschema.validate(data, schemas.MEASURE_SCHEMA)
    assert data["exact"] == {"0": "2", "2": "-1"}
    assert data["decimal"].startswith("0.5857864376")

    code, out, _ = invoke(capsys, "measure", "--precision", "4", "x1 > r2 - 1 & x1 < 1")
    assert code == 0
    assert "~ 0.5858" in out


def test_decompose_command_schema(capsys):
    code, out, _ = invoke(
        capsys, "decompose", "--format", "json", "x1 = 1 | (!Q(x1) & x1 > 0)"
    )
    assert code == 0
    data = json.loads(out)
    jsonschema.validate(data, schemas.DECOMPOSITION_SCHEMA)
    assert data["points"] == [{"0": "1"}]
    assert data["pieces"][0]["polarity"] == "cofinite"


def test_small_and_generic_commands(capsys):
    assert invoke(capsys, "small", "Q(x1)")[:2] == (0, "true\n")
    assert invoke(capsys, "small", "0 < x1 & x1 < 1")[:2] == (0, "false\n")
    assert invoke(capsys, "generic", "u1 != pi(r2)")[:2] == (0, "true\n")
    assert invoke(capsys, "generic", "u1 = 0")[:2] == (0, "false\n")


def test_code_commands_match_schemas(capsys):
    code, out, _ = invoke(capsys, "code-set", "--format", "json", "Q(x1) | x1 = r2")
    assert code == 0
    jsonschema.validate(json.loads(out), schemas.UNARY_SET_CODE_SCHEMA)

    code, out, _ = invoke(
        capsys, "code-fn", "--format", "json", "(Q(x1) & x2 = 2*x1) | (!Q(x1) & x2 = x1)"
    )
    assert code == 0
    jsonschema.validate(json.loads(out), schemas.FUNCTION_CODE_SCHEMA)


def test_split_command(capsys):
    code, out, _ = invoke(capsys, "split", "--format", "json", "Q(2*x1 - x2)")
    assert code == 0
    data = json.loads(out)
    jsonschema.validate(data, schemas.SPLIT_SCHEMA)
    assert data["home"] is None and data["quotient"] is not None

    code, out, _ = invoke(capsys, "split", "x1 < x2")
    assert code == 0
    assert out.strip() == "home: x1 < x2"


def test_exit_code_2_on_syntax_and_mode_errors(capsys):
    assert invoke(capsys, "qe", "x1 <")[0] == 2
    assert invoke(capsys, "qe", "x1 prec 0")[0] == 2  # prec outside povs-prec
    assert invoke(capsys, "qe", "--theory", "ovs", "Q(x1)")[0] == 2
    assert invoke(capsys, "qe", "x1 = u1")[0] == 2
    assert invoke(capsys, "decide", "--model-dim", "2", "Q(r3)")[0] == 2  # r3 outside M_2
    assert invoke(capsys, "qe", "--model-dim", "1", "x1 = x1")[0] == 2


def test_huge_radicand_exits_2_at_once(capsys):
    # primality of 2**61 - 1 by trial division took about 1.5e9 divisions
    start = time.perf_counter()
    code, out, err = invoke(capsys, "decide", "E x1. x1 < r2305843009213693951")
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert err == (
        "error: parse error at position 11: "
        "r2305843009213693951 is beyond the largest supported radicand r7907\n"
    )


def test_a_numeral_past_the_digit_limit_exits_2_with_a_parse_error():
    # int() used to refuse it with the interpreter's own message
    done = run_cli("decide", "E x1. x1 < " + "1" * 5000, timeout=30)
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr.startswith("error: parse error at position 11: ")
    assert "set_int_max_str_digits" not in done.stderr
    assert "Traceback" not in done.stderr


def test_exit_code_3_on_precondition_violations(capsys):
    assert invoke(capsys, "decide", "x1 < 1")[0] == 3  # free variable
    assert invoke(capsys, "decompose", "x1 < x2")[0] == 3  # two free variables
    assert invoke(capsys, "measure", "true")[0] == 3  # no free variable
    assert invoke(capsys, "split", "x1 < 1 & x2 = 0")[0] == 3  # not an atom
    assert invoke(capsys, "code-fn", "x2 = x1 | x2 = x1 + 1")[0] == 3  # not functional
    assert invoke(capsys, "generic", "Q(x1)")[0] == 3  # wrong sort


def test_decide_lists_free_variables_in_sort_key_order(capsys):
    message = "error: not a sentence; free variables: x9, x10, u2, u10\n"
    assert invoke(capsys, "decide", "x9 < x10 & u2 = u10") == (3, "", message)


def test_stdin_input(capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO("E x1. pi(x1) = u1"))
    code, out, _ = invoke(capsys, "qe")
    assert code == 0 and out.strip() == "true"


def test_verbose_echoes_normal_form(capsys):
    code, out, err = invoke(capsys, "qe", "--verbose", "x1 + 0 < x2")
    assert code == 0
    assert "normalized:" in err


def test_verbose_is_a_usage_error_on_oracle_check(capsys):
    # the echo is of a formula, and oracle-check reads none
    with pytest.raises(SystemExit) as info:
        run(["oracle-check", "--verbose", "--count", "2"])
    assert info.value.code == 2
    assert "unrecognized arguments: --verbose" in capsys.readouterr().err


def test_oracle_check_reproducible_and_schema(capsys):
    code1, out1, _ = invoke(
        capsys, "oracle-check", "--seed", "5", "--count", "15", "--format", "json"
    )
    code2, out2, _ = invoke(
        capsys, "oracle-check", "--seed", "5", "--count", "15", "--format", "json"
    )
    assert code1 == code2 == 0
    assert out1 == out2  # bit-reproducible
    data = json.loads(out1)
    jsonschema.validate(data, schemas.ORACLE_CHECK_SCHEMA)
    assert data["disagreements"] == 0
    assert data["checks"] == 15 * 10

    code3, out3, _ = invoke(
        capsys, "oracle-check", "--seed", "6", "--count", "15", "--format", "json"
    )
    assert json.loads(out3)["checks"] == 150


def test_oracle_check_prec_mode(capsys):
    code, out, _ = invoke(
        capsys,
        "oracle-check",
        "--theory",
        "povs-prec",
        "--seed",
        "9",
        "--count",
        "12",
        "--format",
        "json",
    )
    assert code == 0
    assert json.loads(out)["disagreements"] == 0


def test_bool_and_formula_schemas(capsys):
    _, out, _ = invoke(capsys, "decide", "--format", "json", "Q(1)")
    jsonschema.validate(json.loads(out), schemas.BOOL_RESULT_SCHEMA)
    _, out, _ = invoke(capsys, "qe", "--format", "json", "E x1. x1 < x2")
    jsonschema.validate(json.loads(out), schemas.FORMULA_RESULT_SCHEMA)


def test_every_command_json_output_validates(capsys):
    cases = [
        (["qe", "E x1. x1 < x2"], schemas.FORMULA_RESULT_SCHEMA),
        (["decide", "Q(1)"], schemas.BOOL_RESULT_SCHEMA),
        (["decompose", "Q(x1)"], schemas.DECOMPOSITION_SCHEMA),
        (["measure", "Q(x1)"], schemas.MEASURE_SCHEMA),
        (["small", "Q(x1)"], schemas.BOOL_RESULT_SCHEMA),
        (["generic", "u1 = 0"], schemas.BOOL_RESULT_SCHEMA),
        (["code-set", "Q(x1)"], schemas.UNARY_SET_CODE_SCHEMA),
        (["code-fn", "x2 = x1"], schemas.FUNCTION_CODE_SCHEMA),
        (["split", "Q(x1)"], schemas.SPLIT_SCHEMA),
        (["oracle-check", "--seed", "1", "--count", "5"], schemas.ORACLE_CHECK_SCHEMA),
    ]
    for argv, schema in cases:
        code, out, _ = invoke(capsys, argv[0], "--format", "json", *argv[1:])
        assert code == 0, argv
        jsonschema.validate(json.loads(out), schema)


def _records(instance, schema):
    """Each (object, record schema) pair of an instance, outermost first."""
    if "properties" in schema:
        yield instance, schema
        for key, sub in schema["properties"].items():
            yield from _records(instance[key], sub)
    elif schema.get("type") == "array":
        for item in instance:
            yield from _records(item, schema["items"])


def test_every_published_record_is_closed(capsys):
    # valid output is not enough: at every record of every published schema,
    # one field too many or one too few must be refused
    decomposed = "(x1 < 0 | x1 = 1 | Q(x1 - r2)) & !(x1 = -1)"
    cases = [
        (["qe", "E x1. x1 < x2"], schemas.FORMULA_RESULT_SCHEMA),
        (["decide", "Q(1)"], schemas.BOOL_RESULT_SCHEMA),
        (["decompose", decomposed], schemas.DECOMPOSITION_SCHEMA),
        (["measure", "0 < x1 & x1 < r2"], schemas.MEASURE_SCHEMA),
        (["code-set", decomposed], schemas.UNARY_SET_CODE_SCHEMA),
        (
            ["code-fn", "(x1 < 0 & x2 = -x1) | (0 < x1 & x2 = x1) | (x1 = 0 & x2 = 5)"],
            schemas.FUNCTION_CODE_SCHEMA,
        ),
        (["split", "Q(2*x1 - x2)"], schemas.SPLIT_SCHEMA),
        (["oracle-check", "--seed", "1", "--count", "5"], schemas.ORACLE_CHECK_SCHEMA),
    ]
    documents = []
    for argv, schema in cases:
        code, out, _ = invoke(capsys, argv[0], "--format", "json", *argv[1:])
        assert code == 0, argv
        documents.append((json.loads(out), schema))
    params = [{hvar(2): parse_element("1/4")}, {hvar(2): parse_element("r2 - 1")}]
    report = bucket_partition(parse("0 < x1 & x1 < x2"), hvar(1), params, 10)
    documents.append((report.to_json(), schemas.BUCKET_REPORT_SCHEMA))
    reached = set()
    for document, schema in documents:
        jsonschema.validate(document, schema)
        for obj, record in _records(document, schema):
            reached.add(id(record))
            obj["extra"] = True
            with pytest.raises(jsonschema.ValidationError):
                jsonschema.validate(document, schema)
            del obj["extra"]
            for field in record["properties"]:
                value = obj.pop(field)
                with pytest.raises(jsonschema.ValidationError):
                    jsonschema.validate(document, schema)
                obj[field] = value
        jsonschema.validate(document, schema)
    assert len(reached) == 12


# Exact outputs pinned at the commit before set codes became decompositions:
# the schemas alone would let a key rename or a reordering pass.
GOLDEN_DECOMPOSE = {
    "Q(x1) | x1 = r2": (
        '{"pieces": [{"a": "-inf", "b": "+inf", "cosets": [{}], "polarity": "finite"}], "points": [{"2": "1"}]}\n'
    ),
    "x1 = 1 | (!Q(x1) & x1 > 0)": (
        '{"pieces": [{"a": {}, "b": "+inf", "cosets": [{}], "polarity": "cofinite"}], "points": [{"0": "1"}]}\n'
    ),
    "0 < x1 & x1 < 1 & Q(x1)": (
        '{"pieces": [{"a": {}, "b": {"0": "1"}, "cosets": [{}], "polarity": "finite"}], "points": []}\n'
    ),
    "!Q(x1) & x1 != r2": (
        '{"pieces": [{"a": "-inf", "b": {"2": "1"}, "cosets": [{}], "polarity": "cofinite"}, {"a": {"2": "1"}, "b": "+inf", "cosets": [{}], "polarity": "cofinite"}], "points": []}\n'
    ),
    "E x2. (x1 < x2 & x2 < x1 + 1 & Q(x2 - x1))": (
        '{"pieces": [{"a": "-inf", "b": "+inf", "cosets": [], "polarity": "cofinite"}], "points": []}\n'
    ),
    "(0 < x1 & x1 < 1 & pi(x1) = pi(r2)) | x1 = 3": (
        '{"pieces": [{"a": {}, "b": {"0": "1"}, "cosets": [{"2": "1"}], "polarity": "finite"}], "points": [{"0": "3"}]}\n'
    ),
    "x1 < 0 | (x1 > 1 & !Q(x1 - r3))": (
        '{"pieces": [{"a": "-inf", "b": {}, "cosets": [], "polarity": "cofinite"}, {"a": {"0": "1"}, "b": "+inf", "cosets": [{"3": "1"}], "polarity": "cofinite"}], "points": []}\n'
    ),
    "(Q(x1) & x1 != 0) | x1 = r2": (
        '{"pieces": [{"a": "-inf", "b": {}, "cosets": [{}], "polarity": "finite"}, {"a": {}, "b": "+inf", "cosets": [{}], "polarity": "finite"}], "points": [{"2": "1"}]}\n'
    ),
}

GOLDEN_CODE_SET = {
    "Q(x1) | x1 = r2": (
        '{"frontier": [{"2": "1"}], "pieces": [{"a": "-inf", "b": "+inf", "cosets": [{}], "polarity": "finite"}]}\n'
    ),
    "x1 = 1 | (!Q(x1) & x1 > 0)": (
        '{"frontier": [{"0": "1"}], "pieces": [{"a": {}, "b": "+inf", "cosets": [{}], "polarity": "cofinite"}]}\n'
    ),
    "0 < x1 & x1 < 1 & Q(x1)": (
        '{"frontier": [], "pieces": [{"a": {}, "b": {"0": "1"}, "cosets": [{}], "polarity": "finite"}]}\n'
    ),
    "!Q(x1) & x1 != r2": (
        '{"frontier": [], "pieces": [{"a": "-inf", "b": {"2": "1"}, "cosets": [{}], "polarity": "cofinite"}, {"a": {"2": "1"}, "b": "+inf", "cosets": [{}], "polarity": "cofinite"}]}\n'
    ),
    "E x2. (x1 < x2 & x2 < x1 + 1 & Q(x2 - x1))": (
        '{"frontier": [], "pieces": [{"a": "-inf", "b": "+inf", "cosets": [], "polarity": "cofinite"}]}\n'
    ),
    "(0 < x1 & x1 < 1 & pi(x1) = pi(r2)) | x1 = 3": (
        '{"frontier": [{"0": "3"}], "pieces": [{"a": {}, "b": {"0": "1"}, "cosets": [{"2": "1"}], "polarity": "finite"}]}\n'
    ),
    "x1 < 0 | (x1 > 1 & !Q(x1 - r3))": (
        '{"frontier": [], "pieces": [{"a": "-inf", "b": {}, "cosets": [], "polarity": "cofinite"}, {"a": {"0": "1"}, "b": "+inf", "cosets": [{"3": "1"}], "polarity": "cofinite"}]}\n'
    ),
    "(Q(x1) & x1 != 0) | x1 = r2": (
        '{"frontier": [{"2": "1"}], "pieces": [{"a": "-inf", "b": {}, "cosets": [{}], "polarity": "finite"}, {"a": {}, "b": "+inf", "cosets": [{}], "polarity": "finite"}]}\n'
    ),
}

GOLDEN_CODE_FN = {
    "(Q(x1) & x2 = 2*x1) | (!Q(x1) & x2 = x1)": (
        '{"exceptional": [], "pieces": [{"domain": {"frontier": [], "pieces": [{"a": "-inf", "b": "+inf", "cosets": [{}], "polarity": "cofinite"}]}, "intercept": {}, "slope": "1"}, {"domain": {"frontier": [], "pieces": [{"a": "-inf", "b": "+inf", "cosets": [{}], "polarity": "finite"}]}, "intercept": {}, "slope": "2"}]}\n'
    ),
    "(0 < x1 & x1 < 1 & x2 = 3*x1 + 1) | (x1 = 2 & x2 = 0)": (
        '{"exceptional": [[{"0": "2"}, {}]], "pieces": [{"domain": {"frontier": [], "pieces": [{"a": {}, "b": {"0": "1"}, "cosets": [], "polarity": "cofinite"}]}, "intercept": {"0": "1"}, "slope": "3"}]}\n'
    ),
    "(x1 < 0 & x2 = -x1) | (x1 >= 0 & x2 = x1)": (
        '{"exceptional": [[{}, {}]], "pieces": [{"domain": {"frontier": [], "pieces": [{"a": "-inf", "b": {}, "cosets": [], "polarity": "cofinite"}]}, "intercept": {}, "slope": "-1"}, {"domain": {"frontier": [], "pieces": [{"a": {}, "b": "+inf", "cosets": [], "polarity": "cofinite"}]}, "intercept": {}, "slope": "1"}]}\n'
    ),
    "(x1 < 1 & x2 = 2*x1) | (x1 >= 1 & x2 = x1 + 1)": (
        '{"exceptional": [[{"0": "1"}, {"0": "2"}]], "pieces": [{"domain": {"frontier": [], "pieces": [{"a": {"0": "1"}, "b": "+inf", "cosets": [], "polarity": "cofinite"}]}, "intercept": {"0": "1"}, "slope": "1"}, {"domain": {"frontier": [], "pieces": [{"a": "-inf", "b": {"0": "1"}, "cosets": [], "polarity": "cofinite"}]}, "intercept": {}, "slope": "2"}]}\n'
    ),
    "x2 = 3*x1 - r2": (
        '{"exceptional": [], "pieces": [{"domain": {"frontier": [], "pieces": [{"a": "-inf", "b": "+inf", "cosets": [], "polarity": "cofinite"}]}, "intercept": {"2": "-1"}, "slope": "3"}]}\n'
    ),
    "(Q(x1 - r2) & x2 = x1) | (!Q(x1 - r2) & x2 = 0)": (
        '{"exceptional": [], "pieces": [{"domain": {"frontier": [], "pieces": [{"a": "-inf", "b": "+inf", "cosets": [{"2": "1"}], "polarity": "cofinite"}]}, "intercept": {}, "slope": "0"}, {"domain": {"frontier": [], "pieces": [{"a": "-inf", "b": "+inf", "cosets": [{"2": "1"}], "polarity": "finite"}]}, "intercept": {}, "slope": "1"}]}\n'
    ),
    "(0 < x1 & x2 = 1) | (x1 = 0 & x2 = 5) | (x1 < 0 & pi(x1) = pi(r3) & x2 = x1)": (
        '{"exceptional": [[{}, {"0": "5"}]], "pieces": [{"domain": {"frontier": [], "pieces": [{"a": {}, "b": "+inf", "cosets": [], "polarity": "cofinite"}]}, "intercept": {"0": "1"}, "slope": "0"}, {"domain": {"frontier": [], "pieces": [{"a": "-inf", "b": {}, "cosets": [{"3": "1"}], "polarity": "finite"}]}, "intercept": {}, "slope": "1"}]}\n'
    ),
    "(x1 = r2 & x2 = 1) | (x1 = 3 & x2 = r3)": (
        '{"exceptional": [[{"2": "1"}, {"0": "1"}], [{"0": "3"}, {"3": "1"}]], "pieces": []}\n'
    ),
}

GOLDEN_QE = {
    ("povs", "E x1. (0 < x1 & x1 < x2 & Q(x1))"): "0 < x2\n",
    ("povs", "E x1. (pi(x1) = u1 & pi(x1) != u2)"): "u1 != u2\n",
    ("povs-prec", "E u1. (pi(x1) prec u1 & u1 prec pi(x2))"): "pi(x1) prec pi(x2)\n",
    ("ovs", "E x1. (x1 < x2 & x3 < x1 & 2*x1 = x4 + 1)"): "1/2*x4 + 1/2 < x2 & x3 < 1/2*x4 + 1/2\n",
    ("povs", "E x1. E x2. (x1 < x2 & x2 < x3 & Q(x1) & !Q(x2) & pi(x1 - x2) = u1)"): "u1 != 0\n",
    ("povs", "E x1. (x2 < x1 & x1 < x3 & pi(x1 - x4) = u1 & !Q(x1 - x5))"): "x2 < x3 & u1 + pi(x4) != pi(x5)\n",
    ("povs", "A x1. (x2 < x1 & x1 < x3 -> Q(x1 - x4) | x1 = x5)"): "!(x2 < x3)\n",
    ("povs-prec", "E u1. (u2 prec u1 & u1 prec pi(x2) & u1 != u3 & u3 prec u1)"): "u2 prec pi(x2) & u3 prec pi(x2)\n",
    ("povs", "E u1. (pi(x1) = 2*u1 + u2 & u1 != pi(x3))"): "u2 + pi(2*x3) != pi(x1)\n",
}


@pytest.mark.parametrize("text", sorted(GOLDEN_DECOMPOSE))
def test_decompose_json_is_byte_identical(capsys, text):
    assert invoke(capsys, "decompose", "--format", "json", text)[:2] == (
        0,
        GOLDEN_DECOMPOSE[text],
    )


@pytest.mark.parametrize("text", sorted(GOLDEN_CODE_SET))
def test_code_set_json_is_byte_identical(capsys, text):
    assert invoke(capsys, "code-set", "--format", "json", text)[:2] == (
        0,
        GOLDEN_CODE_SET[text],
    )


@pytest.mark.parametrize("text", sorted(GOLDEN_CODE_FN))
def test_code_fn_json_is_byte_identical(capsys, text):
    assert invoke(capsys, "code-fn", "--format", "json", text)[:2] == (
        0,
        GOLDEN_CODE_FN[text],
    )


@pytest.mark.parametrize("theory,text", sorted(GOLDEN_QE))
def test_qe_render_is_byte_identical(capsys, theory, text):
    assert invoke(capsys, "qe", "--theory", theory, text)[:2] == (
        0,
        GOLDEN_QE[(theory, text)],
    )


@pytest.mark.parametrize(
    "text",
    ["(" * 3000 + "Q(1)" + ")" * 3000, "!" * 5000 + "Q(1)"],
    ids=["3000-parentheses", "5000-negations"],
)
def test_deeply_nested_input_gets_an_answer_without_traceback(text):
    done = run_cli("decide", text)
    assert done.returncode == 0
    assert "Traceback" not in done.stderr
    assert done.stdout == "true\n"


def cli_command(*argv):
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    return [sys.executable, "-m", "densepairs.cli", *argv], env


def run_cli(*argv, timeout=120):
    command, env = cli_command(*argv)
    return subprocess.run(command, capture_output=True, text=True, env=env, timeout=timeout)


@pytest.mark.parametrize(
    "argv, message",
    [
        (["measure", "--precision", "-3", "Q(x1)"], "error: number of decimal digits"),
        (["measure", "--precision", "-1", "0 < x1 & x1 < r2"], "error: number of decimal digits"),
        (["decide", "--model-dim", "100000", "1 < 2"], "error: model dimension must be at most 1000"),
        (
            ["measure", "--precision", "20000", "x1 > r2 - 1 & x1 < 1"],
            "error: number of decimal digits must be at most 4300",
        ),
        (["oracle-check", "--count", "-5"], "error: instance count must be nonnegative, got -5"),
        (
            ["qe", "E x1. x1 < r7"],
            "error: r7 is outside the dimension-3 model, whose radicands are r2, r3\n",
        ),
        (
            ["qe", "u1 = pi(r11 - r2)"],
            "error: r11 is outside the dimension-3 model, whose radicands are r2, r3\n",
        ),
        (
            ["decide", "--model-dim", "2", "Q(r3) & Q(r5)"],
            "error: r3 is outside the dimension-2 model, whose radicands are r2\n",
        ),
    ],
    ids=[
        "precision-minus-3",
        "precision-minus-1",
        "model-dim-100000",
        "precision-20000",
        "count-minus-5",
        "radicand-r7",
        "radicand-under-pi",
        "radicands-in-model-dim-2",
    ],
)
def test_out_of_range_flags_exit_2_without_traceback(argv, message):
    # the model-dim case used to build a 100,000-prime table before failing
    done = run_cli(*argv, timeout=30)
    assert done.returncode == 2
    assert "Traceback" not in done.stderr
    assert done.stderr.startswith(message)


def test_closed_output_pipe_exits_1_without_traceback():
    # like `densepairs measure --precision 4300 ... | head -c 300`, with the
    # reader gone before the first write: the write fails with EPIPE
    command, env = cli_command("measure", "--precision", "4300", "x1 > r2 - 1 & x1 < 1")
    proc = subprocess.Popen(
        command, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env
    )
    proc.stdout.close()
    try:
        stderr = proc.stderr.read()
        returncode = proc.wait(timeout=60)
    finally:
        proc.kill()
        proc.stderr.close()
    assert returncode == 1
    assert "Traceback" not in stderr
    assert stderr == ""


@pytest.mark.parametrize(
    "command, text",
    [
        ("decompose", "x1 < 1 & pi(x1) prec pi(r2)"),
        ("small", "x1 < 1 & pi(x1) prec pi(r2)"),
        ("measure", "x1 < 1 & pi(x1) prec pi(r2)"),
        ("code-set", "x1 < 1 & pi(x1) prec pi(r2)"),
        ("generic", "u1 prec pi(r2)"),
        ("code-fn", "x2 = x1 & pi(x1) prec pi(r2)"),
    ],
)
def test_unordered_commands_reject_prec_as_a_mode_error(capsys, command, text):
    # these commands work in povs whatever --theory says, so the error
    # must not send the user to the theory they already chose
    code, out, err = invoke(capsys, command, "--theory", "povs-prec", text)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "povs-prec" not in err


_COMMON_ARGUMENTS = [
    ("help", ("-h", "--help"), argparse.SUPPRESS, None),
    ("theory", ("--theory",), "povs", ["ovs", "povs", "povs-prec"]),
    ("model_dim", ("--model-dim",), 3, None),
    ("format", ("--format",), "text", ["text", "json"]),
    ("verbose", ("--verbose",), False, None),
]
_FORMULA = ("formula", (), None, None)  # positional: no option strings


def test_each_command_keeps_its_arguments():
    # read from the parser, not from --help, whose layout varies across Pythons
    top = _build_parser()
    (sub,) = (a for a in top._actions if isinstance(a, argparse._SubParsersAction))
    names = "qe decide decompose measure small generic code-set code-fn split".split()
    expected = {name: _COMMON_ARGUMENTS + [_FORMULA] for name in names}
    expected["measure"] = expected["measure"] + [("precision", ("--precision",), 12, None)]
    expected["oracle-check"] = [a for a in _COMMON_ARGUMENTS if a[0] != "verbose"] + [
        ("seed", ("--seed",), 0, None),
        ("count", ("--count",), 100, None),
    ]
    assert list(sub.choices) == list(expected)
    for name, parser in sub.choices.items():
        found = [(a.dest, tuple(a.option_strings), a.default, a.choices) for a in parser._actions]
        assert found == expected[name], name
