import io

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from siglogic.cli import run

from conftest import (
    ALL_FIXTURE_SIGS,
    JAVA_MAX,
    JAVA_MAX_RAW,
    PHP_MAX,
    PHP_MAX_RAW,
    WILDCARD_QUERY,
)


def _run(argv, stdin_text=""):
    out, err = io.StringIO(), io.StringIO()
    code = run(argv, stdin=io.StringIO(stdin_text), stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture
def kb_path(tmp_path):
    path = tmp_path / "kb.txt"
    path.write_text("".join(s + "\n" for s in ALL_FIXTURE_SIGS), encoding="utf-8")
    return str(path)


@pytest.fixture
def eq_path(tmp_path):
    path = tmp_path / "links.txt"
    path.write_text(
        "java|java.math|BigInteger|shiftLeft|1\thaskell|Data.Bits|builtin|shiftL|2\n"
        "haskell|Data.Bits|builtin|shiftL|2\tclojure|clojure.core|builtin|bit-shift-left|2\n",
        encoding="utf-8",
    )
    return str(path)


def test_normalize_with_dialect_flag():
    code, out, err = _run(
        ["normalize", "--dialect", "java", "--lang", "java"],
        JAVA_MAX_RAW + "\n",
    )
    assert code == 0, err
    assert out == JAVA_MAX + "\n"


def test_normalize_php_row():
    code, out, _ = _run(
        ["normalize", "--dialect", "php", "--lang", "php"], PHP_MAX_RAW + "\n"
    )
    assert code == 0
    assert out == PHP_MAX + "\n"


def test_normalize_tab_corpus():
    corpus = (
        "java\tjava\t%s\n" % JAVA_MAX_RAW
        + "php\tphp\t%s\n" % PHP_MAX_RAW
        + JAVA_MAX + "\n"  # already-normalized lines pass through
    )
    code, out, _ = _run(["normalize"], corpus)
    assert code == 0
    assert out.splitlines() == [JAVA_MAX, PHP_MAX, JAVA_MAX]


def test_normalize_error_reports_line_number(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text(JAVA_MAX + "\n" + "not a signature\n", encoding="utf-8")
    code, out, err = _run(["normalize", str(bad)])
    assert code == 1
    assert "%s:2:" % bad in err


def test_compile_command():
    code, out, _ = _run(["compile"], JAVA_MAX + "\n")
    assert code == 0
    assert out.startswith("lam x1 . lam x2 . ex v . ex f . ex n . ex c . fun(f,max)")
    assert out.count("\n") == 1


def test_compile_parse_error_exit_code():
    code, _, err = _run(["compile"], "garbage ::\n")
    assert code == 1
    assert "<stdin>:1:" in err


def test_ingest_creates_and_extends_kb(tmp_path):
    kb_file = tmp_path / "kb.txt"
    code, out, _ = _run(
        ["ingest", "--kb", str(kb_file), "--dialect", "java", "--lang", "java"],
        JAVA_MAX_RAW + "\n",
    )
    assert code == 0
    assert "14 new facts" in out
    assert kb_file.read_text(encoding="utf-8") == JAVA_MAX + "\n"
    # re-ingesting is a no-op
    code, out, _ = _run(
        ["ingest", "--kb", str(kb_file), "--dialect", "java", "--lang", "java"],
        JAVA_MAX_RAW + "\n",
    )
    assert "0 new facts" in out
    assert kb_file.read_text(encoding="utf-8") == JAVA_MAX + "\n"


def test_query_result_block(kb_path):
    code, out, _ = _run(["query", WILDCARD_QUERY, "--kb", kb_path])
    assert code == 0
    assert out == (
        "java lang Math::max(long:a,long:b) -> long\n"
        "C=Math\nN=lang\nf=max\np=b\n"
    )


def test_query_no_results(kb_path):
    code, out, _ = _run(
        ["query", "ruby N? C?::f?(?) -> r?", "--kb", kb_path]
    )
    assert code == 0
    assert out == "0 results\n"


def test_query_porcelain(kb_path):
    code, out, _ = _run(
        ["query", WILDCARD_QUERY, "--kb", kb_path, "--porcelain"]
    )
    assert code == 0
    assert out == (
        "java lang Math::max(long:a,long:b) -> long\tC=Math\tN=lang\tf=max\tp=b\n"
    )


def test_equiv_command(kb_path, eq_path):
    code, out, _ = _run(
        [
            "equiv",
            "java java.math BigInteger::EquivIn(shiftLeft,haskell)(?) -> s?",
            "--kb", kb_path, "--eq", eq_path,
        ]
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "haskell Data.Bits builtin::shiftL(UNK:a,Int:UNK) -> UNK"
    assert "f'=shiftL" in lines
    assert "N=Data.Bits" in lines
    assert "C=builtin" in lines


def test_equiv_source_not_found_is_an_error(kb_path, eq_path):
    code, _, err = _run(
        [
            "equiv",
            "java java.math BigInteger::EquivIn(nothing,haskell)(?) -> s?",
            "--kb", kb_path, "--eq", eq_path,
        ]
    )
    assert code == 1
    assert "nothing" in err


@pytest.fixture
def compile_calls(monkeypatch):
    """Signatures the KB compiles, counted at `siglogic.kb.compile_signature`."""
    from siglogic import kb

    calls = []
    real = kb.compile_signature

    def counted(sig):
        calls.append(sig)
        return real(sig)

    monkeypatch.setattr(kb, "compile_signature", counted)
    return calls


def test_loading_a_kb_compiles_nothing(kb_path, eq_path, compile_calls):
    for argv in (
        ["query", WILDCARD_QUERY, "--kb", kb_path],
        ["equiv", "java java.math BigInteger::EquivIn(shiftLeft,haskell)(?) -> s?",
         "--kb", kb_path, "--eq", eq_path],
        ["ingest", "--kb", kb_path],
    ):
        code, _, _ = _run(argv, "java lang Math::min(long:a,long:b) -> long\n")
        assert code == 0
    assert compile_calls == []


def test_facts_compiles_each_signature_once(kb_path, compile_calls):
    assert _run(["facts", "--kb", kb_path])[0] == 0
    assert len(compile_calls) == len(ALL_FIXTURE_SIGS)


def test_facts_matches_in_memory_dump(kb_path):
    from siglogic import FactStore, dump_facts, ingest_signature, parse_signature

    store = FactStore()
    for text in ALL_FIXTURE_SIGS:
        ingest_signature(store, parse_signature(text))
    code, out, _ = _run(["facts", "--kb", kb_path])
    assert code == 0
    assert out.splitlines() == dump_facts(store)


def test_output_deterministic(kb_path):
    runs = {
        _run(["query", "java N? C?::f?(?) -> r?", "--kb", kb_path])[1]
        for _ in range(3)
    }
    assert len(runs) == 1


def test_usage_error_exit_code():
    code, _, _ = _run(["query"])  # missing args
    assert code == 2


def test_usage_error_goes_to_the_given_stderr(capsys):
    code, out, err = _run(["query"])
    assert code == 2
    assert err.startswith("usage: siglogic query")
    assert "required" in err
    assert out == ""
    assert capsys.readouterr().err == ""


def test_help_goes_to_the_given_stdout(capsys):
    code, out, err = _run(["-h"])
    assert code == 0
    assert out.startswith("usage: siglogic")
    assert err == ""
    assert capsys.readouterr().out == ""


def test_failed_ingest_leaves_kb_unchanged(kb_path, tmp_path, monkeypatch):
    import os

    def fail(src, dst):
        raise OSError("disk full")

    kb_file = tmp_path / "kb.txt"
    before = kb_file.read_bytes()
    listing = sorted(os.listdir(tmp_path))
    monkeypatch.setattr(os, "replace", fail)
    code, out, err = _run(
        ["ingest", "--kb", kb_path], "java lang Math::min(long:a,long:b) -> long\n"
    )
    assert (code, out) == (1, "")
    assert "disk full" in err
    assert kb_file.read_bytes() == before
    assert sorted(os.listdir(tmp_path)) == listing


def test_missing_kb_file_is_reported(tmp_path):
    code, _, err = _run(
        ["query", WILDCARD_QUERY, "--kb", str(tmp_path / "nope.txt")]
    )
    assert code == 1
    assert "nope.txt" in err


PHP_MAX_QUERY = "php N? C?::max(?) -> r?"


def test_query_prints_vararg_back(kb_path):
    code, out, _ = _run(["query", PHP_MAX_QUERY, "--kb", kb_path])
    assert code == 0
    assert out.splitlines()[0] == PHP_MAX


def test_query_porcelain_prints_vararg_back(kb_path):
    code, out, _ = _run(["query", PHP_MAX_QUERY, "--kb", kb_path, "--porcelain"])
    assert code == 0
    assert out == PHP_MAX + "\tC=builtin\tN=core\tr=mixed\n"


def test_ingest_key_conflict_is_a_line_diagnostic(tmp_path):
    kb_file = tmp_path / "kb.txt"
    kb_file.write_text(PHP_MAX + "\n", encoding="utf-8")
    new = tmp_path / "new.txt"
    new.write_text(JAVA_MAX + "\n" + PHP_MAX.replace(",...", "") + "\n",
                   encoding="utf-8")
    code, _, err = _run(["ingest", "--kb", str(kb_file), str(new)])
    assert code == 1
    assert err.startswith("%s:2: differing signature already stored for" % new)
    assert kb_file.read_text(encoding="utf-8") == PHP_MAX + "\n"


@pytest.mark.parametrize("command", ["query", "equiv", "facts", "ingest"])
def test_conflicting_kb_file_is_a_line_diagnostic(tmp_path, command):
    kb_file = tmp_path / "kb.txt"
    kb_file.write_text(
        JAVA_MAX + "\n\n" + JAVA_MAX.replace("long:b", "long:c") + "\n",
        encoding="utf-8",
    )
    links = tmp_path / "links.txt"
    links.write_text("", encoding="utf-8")
    argv = {
        "query": ["query", WILDCARD_QUERY],
        "equiv": ["equiv", "java lang Math::EquivIn(max,php)(?) -> r?",
                  "--eq", str(links)],
        "facts": ["facts"],
        "ingest": ["ingest"],
    }[command]
    code, _, err = _run(argv + ["--kb", str(kb_file)])
    assert code == 1
    assert err.startswith("%s:3: differing signature already stored for" % kb_file)


# Lines near the DSL grammar, so that fuzzed files reach past the parser;
# each signature comes with a variant that conflicts with it.
_FIXTURE_TEXT = [
    JAVA_MAX,
    JAVA_MAX.replace("long:b", "long:c"),
    PHP_MAX,
    PHP_MAX.replace(",...", ""),
    WILDCARD_QUERY,
    "java lang Math::EquivIn(max,php)(?) -> r?",
    "java|lang|Math|max|2\tphp|core|builtin|max|2",
    "java|lang|Math|max|2\tphp|core|builtin|max|-1",
]
_junk_line = st.one_of(
    st.text(alphabet="javphlngMx:.()?,->|\t UNK012$", max_size=40),
    st.text(max_size=20),
)
# Mostly grammar lines: one junk line usually ends a load with exit 1.
_fuzz_line = st.sampled_from(_FIXTURE_TEXT + ["", None, None]).flatmap(
    lambda line: _junk_line if line is None else st.just(line)
)
_fuzz_text = st.lists(_fuzz_line, max_size=8).map("\n".join)


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(kb_text=_fuzz_text, query=_fuzz_line, links_text=_fuzz_text)
def test_cli_fuzz_exit_codes(tmp_path, kb_text, query, links_text):
    kb_file, links = tmp_path / "kb.txt", tmp_path / "links.txt"
    kb_file.write_text(kb_text, encoding="utf-8")
    links.write_text(links_text, encoding="utf-8")
    for argv in (
        ["query", query, "--kb", str(kb_file)],
        ["equiv", query, "--kb", str(kb_file), "--eq", str(links)],
        ["facts", "--kb", str(kb_file)],
        ["ingest", "--kb", str(kb_file), str(links)],
    ):
        code, _, _ = _run(argv)
        assert code in (0, 1, 2), argv


def test_ingest_into_kb_without_final_newline(tmp_path):
    kb_file = tmp_path / "kb.txt"
    kb_file.write_text(JAVA_MAX, encoding="utf-8")
    min_sig = "java lang Math::min(long:a,long:b) -> long"
    code, _, err = _run(["ingest", "--kb", str(kb_file)], min_sig + "\n")
    assert code == 0, err
    assert kb_file.read_text(encoding="utf-8") == JAVA_MAX + "\n" + min_sig + "\n"
    assert _run(["facts", "--kb", str(kb_file)])[0] == 0


# `\r\n` and a lone `\r` both end a line: the bad byte is on line 3.
_BAD_UTF8 = JAVA_MAX.encode() + b"\r\n\rjava lang M\xffath::f() -> long\n"
_BAD_UTF8_ERR = "bad.txt:3: invalid UTF-8: invalid start byte\n"


@pytest.mark.parametrize("argv", [
    ["facts", "--kb", "bad.txt"],
    ["query", WILDCARD_QUERY, "--kb", "bad.txt"],
    ["ingest", "--kb", "bad.txt"],
    ["ingest", "--kb", "kb.txt", "bad.txt"],
    ["normalize", "bad.txt"],
    ["compile", "bad.txt"],
    ["equiv", "java java.math BigInteger::EquivIn(shiftLeft,haskell)(?) -> s?",
     "--kb", "kb.txt", "--eq", "bad.txt"],
], ids=["facts-kb", "query-kb", "ingest-kb", "ingest-input", "normalize",
        "compile", "equiv-links"])
def test_invalid_utf8_is_a_line_diagnostic(kb_path, tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bad.txt").write_bytes(_BAD_UTF8)
    before = (tmp_path / "kb.txt").read_bytes()
    assert _run(argv) == (1, "", _BAD_UTF8_ERR)
    assert (tmp_path / "bad.txt").read_bytes() == _BAD_UTF8
    assert (tmp_path / "kb.txt").read_bytes() == before


def test_invalid_utf8_on_stdin_is_a_line_diagnostic():
    out, err = io.StringIO(), io.StringIO()
    with io.TextIOWrapper(io.BytesIO(JAVA_MAX.encode() + b"\n\xff\n")) as stdin:
        code = run(["normalize"], stdin=stdin, stdout=out, stderr=err)
    assert (code, out.getvalue()) == (1, "")
    assert err.getvalue() == "<stdin>:2: invalid UTF-8: invalid start byte\n"
