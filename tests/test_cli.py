"""Command-line interface: outputs, formats, exit codes."""

import json

import pytest

from ratword.cli import main


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
    assert "states: 7" in out
    code, out, _ = run(capsys, "compile", "a^w", "--dot")
    assert code == 0
    assert out.startswith("digraph")


def test_compare(capsys):
    code, out, _ = run(capsys, "compare", "a^wb", "a^wa")
    assert code == 0
    assert out.strip().startswith(">")
    code, out, _ = run(capsys, "compare", "(ab)^w", "abab(ab)^w")
    assert code == 0
    assert out.strip() == "="


def test_prime(capsys):
    for text, expected in [
        ("a^wb", "prime"),
        ("(ab)^w", "not prime: equals (ab)^[w]"),
        ("abab", "not prime: equals (ab)^[2]"),
        ("aba", "not prime: suffix at state 2 (a) is smaller"),
        ("ba^w", "not prime: suffix at state 1 (aa^w) is smaller"),
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


def test_input_error_exit_code(capsys):
    code, _, err = run(capsys, "factorize", "((a")
    assert code == 1
    assert "error" in err


DEEP = "(" * 3000 + "a" + ")" * 3000


@pytest.mark.parametrize("argv", [["factorize", DEEP], ["compare", DEEP, "a"]],
                         ids=["factorize", "compare"])
def test_deep_nesting_is_an_input_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err == "error: expression nested too deeply\n"


def test_batch_missing_file(capsys):
    code, _, err = run(capsys, "batch", "/nonexistent/file.txt")
    assert code == 1
    assert "error" in err
