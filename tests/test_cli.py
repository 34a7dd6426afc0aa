"""Command-line interface: outputs, formats, exit codes."""

import contextlib
import io
import json
import time

import pytest
from hypothesis import given, settings, strategies as st

from ratword import cli
from ratword.automaton import AutomatonError, MissingLimitError, SharpAutomaton, compile_expr
from ratword.cli import main
from ratword.duplication import TAU_TOKENS, tau
from ratword.expr import ExprError, parse_expr
from ratword.ordinal import OrdinalError
from ratword.runner import TraceError
from ratword.structural import StructuralError


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_factorize_plain(capsys):
    code, out, _ = run(capsys, "factorize", "(bba)^w")
    assert code == 0
    assert out.strip() == "b^[2] * (abb)^[w]"


def test_factorize_unit_exponent(capsys):
    code, out, _ = run(capsys, "factorize", "a")
    assert code == 0
    assert out.strip() == "a^[1]"


def test_factorize_marked(capsys):
    code, out, _ = run(capsys, "factorize", "(bba)^w", "--marked")
    assert code == 0
    assert out.splitlines() == ["b^[2] * (abb)^[w]", "||b|b||a(bb|a)^w||"]


def test_factorize_json(capsys):
    code, out, _ = run(capsys, "factorize", "(a^wb)^wa^w", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["input"] == "(a^wb)^wa^w"
    assert data["states"] == 13
    assert data["q_main"] == [0, 9, 12]
    assert data["q_secondary"] == [4, 8, 10, 11]
    assert data["factors"] == [
        {"prime": "aa^wb", "exponent": "w"},
        {"prime": "a", "exponent": "w"},
    ]
    assert data["steps"] > 0


def test_factorize_trace(capsys):
    code, out, _ = run(capsys, "factorize", "(bba)^w", "--trace")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "b^[2] * (abb)^[w]"
    assert any(line.endswith("case=3") for line in lines[1:])
    assert all(line.startswith("<") for line in lines[1:])


# `factorize --json --marked --trace` byte for byte: the JSON line, the marked
# duplicated expression and one log line per record.  The second input's log
# has 1a, 1b, 1c, 2a and 3 steps.
TRACE_GOLDENS = {
    "(a^wb)^wa^w": [
        '{"input": "(a^wb)^wa^w", "tau": "aa^wb(aa^wb)^waa^w", "states": 13, "q_main": [0, 9, 12], "q_secondary": [4, 8, 10, 11], "factors": [{"prime": "aa^wb", "exponent": "w"}, {"prime": "a", "exponent": "w"}], "steps": 15}',
        '||aa^wb(|aa^wb)|^w||a|a|^w||',
        '<(1,0)> case=init',
        '<(1,0),(2,1)> case=1a',
        '<(1,0),(2,1),(3,1)> case=1c',
        '<(4,0)> case=2a',
        '<(4,0),(5,1)> case=1a',
        '<(4,0),(5,1),(6,2)> case=1a',
        '<(4,0),(5,1),(6,2),(7,3)> case=1b',
        '<(4,0),(5,1),(6,2),(7,3),(8,4)> case=1a',
        '<(4,0),(5,1),(6,2),(7,3),(8,4),(9,4)> case=1c',
        '<(4,0),(5,1),(6,2),(7,3),(8,4),(9,4),(10,1)> case=1a',
        '<(4,0),(5,1),(6,2),(7,3),(8,4),(9,4),(10,1),(11,2)> case=1a',
        '<(4,0),(5,1),(6,2),(7,3),(8,4),(9,4),(10,1),(11,2),(12,3)> case=1b',
        '<(4,0),(5,1),(6,2),(7,3),(8,4),(9,4),(10,1),(11,2),(12,3)> case=3',
        '<(10,9)> case=init',
        '<(10,9),(11,10)> case=1a',
        '<(10,9),(11,10),(12,10)> case=1c',
        '<(10,9),(11,10),(12,10)> case=3',
    ],
    "(((ac)^wb)^wc)^wa": [
        '{"input": "(((ac)^wb)^wc)^wa", "tau": "ac(ac)^wb(ac(ac)^wb)^wc(ac(ac)^wb(ac(ac)^wb)^wc)^wa", "states": 31, "q_main": [0, 29, 30], "q_secondary": [14, 28], "factors": [{"prime": "ac(ac)^wb(ac(ac)^wb)^wc", "exponent": "w"}, {"prime": "a", "exponent": "1"}], "steps": 31}',
        '||ac(ac)^wb(ac(ac)^wb)^wc(|ac(ac)^wb(ac(ac)^wb)^wc)|^w||a||',
        '<(1,0)> case=init',
        '<(2,0)> case=2a',
        '<(2,0),(3,1)> case=1a',
        '<(2,0),(3,1),(4,2)> case=1a',
        '<(2,0),(3,1),(4,2),(5,2)> case=1c',
        '<(6,0)> case=2a',
        '<(6,0),(7,1)> case=1a',
        '<(6,0),(7,1),(8,2)> case=1a',
        '<(6,0),(7,1),(8,2),(9,3)> case=1a',
        '<(6,0),(7,1),(8,2),(9,3),(10,4)> case=1a',
        '<(6,0),(7,1),(8,2),(9,3),(10,4),(11,5)> case=1b',
        '<(6,0),(7,1),(8,2),(9,3),(10,4),(11,5),(12,6)> case=1a',
        '<(6,0),(7,1),(8,2),(9,3),(10,4),(11,5),(12,6),(13,6)> case=1c',
        '<(14,0)> case=2a',
        '<(14,0),(15,1)> case=1a',
        '<(14,0),(15,1),(16,2)> case=1a',
        '<(14,0),(15,1),(16,2),(17,3)> case=1a',
        '<(14,0),(15,1),(16,2),(17,3),(18,4)> case=1a',
        '<(14,0),(15,1),(16,2),(17,3),(18,4),(19,5)> case=1b',
        '<(14,0),(15,1),(16,2),(17,3),(18,4),(19,5),(20,6)> case=1a',
        '<(14,0),(15,1),(16,2),(17,3),(18,4),(19,5),(20,6),(21,7)> case=1a',
        '<(14,0),(15,1),(16,2),(17,3),(18,4),(19,5),(20,6),(21,7),(22,8)> case=1a',
        '<(14,0),(15,1),(16,2),(17,3),(18,4),(19,5),(20,6),(21,7),(22,8),(23,9)> case=1a',
        '<(14,0),(15,1),(16,2),(17,3),(18,4),(19,5),(20,6),(21,7),(22,8),(23,9),(24,10)> case=1a',
        '<(14,0),(15,1),(16,2),(17,3),(18,4),(19,5),(20,6),(21,7),(22,8),(23,9),(24,10),(25,11)> case=1b',
        '<(14,0),(15,1),(16,2),(17,3),(18,4),(19,5),(20,6),(21,7),(22,8),(23,9),(24,10),(25,11),(26,12)> case=1a',
        '<(14,0),(15,1),(16,2),(17,3),(18,4),(19,5),(20,6),(21,7),(22,8),(23,9),(24,10),(25,11),(26,12),(27,13)> case=1b',
        '<(14,0),(15,1),(16,2),(17,3),(18,4),(19,5),(20,6),(21,7),(22,8),(23,9),(24,10),(25,11),(26,12),(27,13),(28,14)> case=1a',
        '<(14,0),(15,1),(16,2),(17,3),(18,4),(19,5),(20,6),(21,7),(22,8),(23,9),(24,10),(25,11),(26,12),(27,13),(28,14),(29,14)> case=1c',
        '<(14,0),(15,1),(16,2),(17,3),(18,4),(19,5),(20,6),(21,7),(22,8),(23,9),(24,10),(25,11),(26,12),(27,13),(28,14),(29,14),(30,1)> case=1a',
        '<(14,0),(15,1),(16,2),(17,3),(18,4),(19,5),(20,6),(21,7),(22,8),(23,9),(24,10),(25,11),(26,12),(27,13),(28,14),(29,14),(30,1)> case=3',
        '<(30,29)> case=init',
        '<(30,29)> case=3',
    ],
}


@pytest.mark.parametrize("text", list(TRACE_GOLDENS))
def test_factorize_json_marked_trace_golden(capsys, text):
    code, out, err = run(capsys, "factorize", "--json", "--marked", "--trace", text)
    assert (code, err) == (0, "")
    assert out == "".join(line + "\n" for line in TRACE_GOLDENS[text])

def test_factorize_both_engines(capsys):
    code, out, _ = run(capsys, "factorize", "(a^wb)^wa^w", "--engine", "both")
    assert code == 0
    assert out.strip() == "(aa^wb)^[w] * a^[w]"
    code, out, _ = run(capsys, "factorize", "abaab", "--engine", "structural")
    assert code == 0
    assert out.strip() == "(ab)^[1] * (aab)^[1]"


def test_tau(capsys):
    code, out, _ = run(capsys, "tau", "(bba)^w")
    assert code == 0
    assert out.strip() == "bba(bba)^w"


def test_compile(capsys):
    code, out, _ = run(capsys, "compile", "(a^wb)^wa^w")
    assert code == 0
    assert out.splitlines() == [
        "(0a1w2b)3w4a5w6",
        "states: 7",
        "  0 -a-> 1",
        "  1 -a-> 1",
        "  2 -b-> 3",
        "  3 -a-> 1",
        "  4 -a-> 5",
        "  5 -a-> 5",
        "  {1..1} -> 2",
        "  {1..3} -> 4",
        "  {5..5} -> 6",
    ]
    code, out, _ = run(capsys, "compile", "a^w", "--dot")
    assert code == 0
    assert out.splitlines() == [
        "digraph word {",
        "  rankdir=LR;",
        "  node [shape=circle];",
        "  2 [shape=doublecircle];",
        '  0 -> 1 [label="a"];',
        '  1 -> 1 [label="a"];',
        '  1 -> 2 [label="lim {1..1}", style=dashed];',
        "}",
    ]


def test_compare(capsys):
    code, out, _ = run(capsys, "compare", "a^wb", "a^wa")
    assert code == 0
    assert out.strip().startswith(">")
    code, out, _ = run(capsys, "compare", "(ab)^w", "abab(ab)^w")
    assert code == 0
    assert out.strip() == "="


def test_prime(capsys):
    # (ba)^wb^w and the three after it have their witness state inside a
    # loop: the suffix is written as the walk from that state reads it, loop
    # bodies rotated, not as suffix_from would cut the expression
    deep = "(" * 40 + "ab" + ")^wb" * 40
    for text, expected in [
        ("a^wb", "prime"),
        ("(ab)^w", "not prime: equals (ab)^[w]"),
        ("abab", "not prime: equals (ab)^[2]"),
        ("aba", "not prime: suffix at state 2 (a) is smaller"),
        ("ba^w", "not prime: suffix at state 1 (aa^w) is smaller"),
        ("(ba)^wb^w", "not prime: suffix at state 1 ((ab)^wbb^w) is smaller"),
        ("b" + deep, "not prime: suffix at state 1 (a" + "(" * 40 + "ba" + ")^wba" * 39
         + ")^wb) is smaller"),
        ("((ba)^w)^wc", "not prime: suffix at state 1 (((ab)^wb)^wc) is smaller"),
        ("acb((b(ca)^w)^w)^w",
         "not prime: suffix at state 5 ((ac)^wb(c((ac)^wbc)^wb)^w) is smaller"),
        (deep, "prime"),
    ]:
        code, out, _ = run(capsys, "prime", text)
        assert code == 0 and out == expected + "\n", text


def test_batch(tmp_path, capsys):
    f = tmp_path / "batch.txt"
    f.write_text("# comment\n(bba)^w\n)))bad\n\na\n")
    code, out, _ = run(capsys, "batch", str(f))
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()]
    assert len(records) == 3
    assert records[0]["ok"] and records[0]["factors"][0]["prime"] == "b"
    assert not records[1]["ok"] and "error" in records[1]
    assert records[2]["ok"]
    assert all("ms" in r for r in records)


def test_selftest(capsys):
    code, out, _ = run(capsys, "selftest", "--cases", "25", "--seed", "4")
    assert code == 0
    assert "25/25 ok" in out


def test_selftest_negative_cases(capsys):
    code, out, err = run(capsys, "selftest", "--cases", "-5")
    assert code == 1
    assert out == ""
    assert err.startswith("error: ")


def test_input_error_exit_code(capsys):
    code, _, err = run(capsys, "factorize", "((a")
    assert code == 1
    assert "error" in err


DEEP_PARENS = "(" * 3000 + "a" + ")" * 3000
DEEP = "(" * 3000 + "a" + ")^w" * 3000


@pytest.mark.parametrize("argv, answer", [(["factorize", DEEP_PARENS], "a^[1]"),
                                          (["compare", DEEP_PARENS, "a"], "=")],
                         ids=["factorize", "compare"])
def test_deep_parentheses_parse(capsys, argv, answer):
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (0, answer + "\n", "")


@pytest.mark.parametrize("argv", [["factorize", DEEP], ["compare", DEEP, "a"]],
                         ids=["factorize", "compare"])
def test_deep_nesting_is_an_input_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err == "error: expression nested too deeply\n"


def test_batch_records_deep_nesting(tmp_path, capsys):
    """A line nested MAX_NESTING deep is refused as on the command line, and
    a line whose duplicated expression passes the token budget records the
    budget's message."""
    tall = "ab"
    for _ in range(600):
        tall = f"({tall})^wb"
    f = tmp_path / "batch.txt"
    f.write_text(f"{DEEP}\n{tall}\na\n")
    code, out, _ = run(capsys, "batch", str(f))
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()]
    assert [(r["ok"], r.get("error")) for r in records] == [
        (False, "expression nested too deeply"),
        (False, f"duplicated expression exceeds {TAU_TOKENS} tokens"),
        (True, None)]


TOWER30 = "(" * 30 + "ab" + ")^w" * 30
NEST800 = "(" * 800 + "a" + ")^w" * 800


@pytest.mark.parametrize("argv", [["factorize", NEST800], ["factorize", TOWER30],
                                  ["factorize", TOWER30, "--engine", "structural", "--marked"],
                                  ["tau", TOWER30]],
                         ids=["factorize-800", "factorize-tower30", "marked-tower30", "tau-tower30"])
def test_token_budget_is_an_input_error(capsys, argv):
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1
    assert code == 1
    assert err == f"error: duplicated expression exceeds {TAU_TOKENS} tokens\n"
    assert out == ("(ab)^[w^30]\n" if "--marked" in argv else "")


@settings(deadline=None, max_examples=300)
@given(st.text(alphabet="ab()^wω x", max_size=30))
def test_any_short_text_answers_or_is_an_input_error(text):
    """parse_expr raises nothing but ExprError; the CLI answers what parses
    (exit 0) and refuses the rest with the parser's message (exit 1).  No
    other error escapes as an input error, and no engine disagrees (exit 2)."""
    try:
        parse_expr(text)
        refusal = None
    except ExprError as err:
        refusal = f"error: {err}\n"
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["factorize", text, "--engine", "both"])
    assert (code, err.getvalue()) == ((0, "") if refusal is None else (1, refusal))


def test_batch_missing_file(capsys):
    code, _, err = run(capsys, "batch", "/nonexistent/file.txt")
    assert code == 1
    assert "error" in err


def test_batch_not_utf8(tmp_path, capsys):
    f = tmp_path / "batch.txt"
    f.write_bytes(b"\xff\xfea\n")
    code, out, err = run(capsys, "batch", str(f))
    assert code == 1
    assert out == ""
    assert err.startswith("error: ")


@pytest.mark.parametrize("engine, error", [
    ("structural", StructuralError),
    ("automaton", AutomatonError),
    ("automaton", MissingLimitError),
    ("automaton", TraceError),
    ("automaton", OrdinalError),
], ids=lambda value: value if isinstance(value, str) else value.__name__)
def test_invariant_failure_exit_code(capsys, monkeypatch, engine, error):
    def broken(*args, **kwargs):
        raise error("injected")

    monkeypatch.setattr(cli, "factorize_structural" if engine == "structural" else "factorize",
                        broken)
    code, out, err = run(capsys, "factorize", "(bba)^w", "--engine", engine)
    assert code == 2
    assert out == ""
    assert err == "invariant failure: injected\n"


@pytest.mark.parametrize("lookup, message", [
    (lambda: compile_expr(parse_expr("(bba)^w")).limit_target(1),
     "state 1 ends no loop"),
    (lambda: SharpAutomaton(compile_expr(tau(parse_expr("(a^wb)^wa^w"))), 0, 4).limit_target(6),
     "limit target 7 escapes sharp [0,4]"),
], ids=["base", "sharp"])
def test_missing_limit_exit_code(capsys, monkeypatch, lookup, message):
    """A top state that ends no loop, and a sharp's limit that escapes its
    range, raise MissingLimitError, an invariant failure with exit code 2."""
    with pytest.raises(MissingLimitError):
        lookup()
    monkeypatch.setattr(cli, "factorize", lambda *args, **kwargs: lookup())
    code, out, err = run(capsys, "factorize", "(bba)^w")
    assert (code, out, err) == (2, "", f"invariant failure: {message}\n")


def test_depth_16_tower_at_the_token_budget(capsys):
    """The depth-16 tower ((...((ac)^wa)^wb...)^wc)^wa duplicates to 262,142
    tokens, just under TAU_TOKENS; both engines agree on its three factors,
    and its marking takes 262,210 steps, most of them crossed in diagonal
    stretches."""
    text = "ac"
    for letter in "abcabcabcabcabca":
        text = f"({text})^w{letter}"
    code, out, _ = run(capsys, "factorize", "--engine", "both", "--json", text)
    assert code == 0
    record = json.loads(out)
    assert (record["states"], record["steps"], len(record["factors"])) == (262_143, 262_210, 3)
    assert [f["exponent"] for f in record["factors"]] == ["w", "w", "1"]
    compile_expr.cache_clear()

