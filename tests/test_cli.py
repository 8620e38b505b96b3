import gc
import io
import os
import random
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import siglogic
from siglogic.cli import run
from siglogic.dsl import parse_signature, print_signature
from siglogic.model import UNK, Const, function_key
from siglogic.kb import (
    FactStore, LineError, dump_facts, ingest_signature, load_kb, load_links,
)
from siglogic.logic import compile_signature, print_formula

from strategies import ground_signatures, signatures
from conftest import (
    ALL_FIXTURE_SIGS,
    JAVA_MAX,
    JAVA_MAX_RAW,
    PHP_MAX,
    PHP_MAX_RAW,
    PY_MAX,
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


def _run_script(argv, stdin_text):
    """siglogic's console entry point, `cli.main`, in a fresh process."""
    env = dict(os.environ, PYTHONPATH=str(Path(siglogic.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "siglogic.cli", *argv],
        input=stdin_text, capture_output=True, text=True, env=env, timeout=60,
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_a_cli_call_imports_no_module_it_does_not_need(tmp_path):
    # `-S`: no site packages, so the modules counted are the CLI's own.
    # Calls, not the import alone: argparse's formatter imports `shutil`
    # on every call, so only what no call needs is counted.
    env = dict(os.environ, PYTHONPATH=str(Path(siglogic.__file__).parents[1]))
    unneeded = ("dataclasses", "inspect")
    kb_file = str(tmp_path / "kb.sig")
    script = (
        "import sys, siglogic.cli as cli\n"
        "assert cli.run(['ingest', '--kb', %r]) == 0\n"
        "assert cli.run(['query', %r, '--kb', %r]) == 0\n"
        "print([m for m in %r if m in sys.modules], file=sys.stderr)\n"
    ) % (kb_file, WILDCARD_QUERY, kb_file, unneeded)
    proc = subprocess.run(
        [sys.executable, "-S", "-c", script],
        input=JAVA_MAX + "\n", capture_output=True, text=True, env=env, timeout=60,
    )
    assert (proc.returncode, proc.stderr) == (0, "[]\n")
    assert proc.stdout.startswith("ingested 1 signatures")
    assert os.path.exists(kb_file + ".rows")


def test_a_facts_call_on_a_ground_kb_compiles_no_parse_pattern(kb_path):
    # A fresh process, as each pattern is compiled once per process: the
    # slot, parameter and whole-line patterns serve parses, and a ground
    # KB's load reads its own pattern (the positive control).
    env = dict(os.environ, PYTHONPATH=str(Path(siglogic.__file__).parents[1]))
    script = (
        "import re, sys\n"
        "compiled, compile_ = [], re.compile\n"
        "re.compile = lambda p, flags=0: compiled.append(p) or compile_(p, flags)\n"
        "import siglogic.cli as cli\n"
        "assert cli.run(['facts', '--kb', %r]) == 0\n"
        "seen, dsl = list(compiled), cli.dsl\n"
        "assert dsl.lines_re(dsl._KB_LINE).pattern in seen\n"
        "print([f().pattern in seen for f in (dsl._slot_re, dsl._param_re, dsl._line_re)],"
        " file=sys.stderr)\n"
    ) % kb_path
    proc = subprocess.run(
        [sys.executable, "-S", "-c", script],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert (proc.returncode, proc.stderr) == (0, "[False, False, False]\n")
    assert proc.stdout.startswith("class(")


def test_console_entry_point_exit_codes():
    formula = print_formula(compile_signature(parse_signature(JAVA_MAX)))
    assert _run_script(["compile"], JAVA_MAX + "\n") == (0, formula + "\n", "")
    code, out, err = _run_script(["compile"], "java lang Math::max(long:a,long:b\n")
    assert (code, out) == (1, "")
    assert err == "<stdin>:1: at offset 33: expected ')', found end of input\n"
    code, _, err = _run_script(["frobnicate"], "")
    assert code == 2
    assert "invalid choice: 'frobnicate'" in err


def test_console_facts_equal_the_library_dump(tmp_path):
    # enough facts to span several of the CLI's writes
    texts = ALL_FIXTURE_SIGS + [
        "java ns%d C%d::f%d(long:a,int:b) -> long" % (i % 3, i % 5, i)
        for i in range(200)
    ]
    kb_file = tmp_path / "kb.txt"
    kb_file.write_text("".join(t + "\n" for t in texts), encoding="utf-8")
    store = FactStore()
    for text in texts:
        ingest_signature(store, parse_signature(text))
    lines = dump_facts(store)
    assert len(lines) > 2048
    expected = "".join(line + "\n" for line in lines)
    assert _run_script(["facts", "--kb", str(kb_file)], "") == (0, expected, "")


def test_package_all_lists_its_public_names():
    star = {}
    exec("from siglogic import *", star)  # each entry must resolve
    public = {
        name for name, value in vars(siglogic).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert sorted(siglogic.__all__) == sorted(public)
    # the library's own loaders, which the CLI calls too
    assert {"load_kb", "load_links", "LineError"} <= public


def test_the_cli_reads_no_private_attribute():
    """The CLI goes through the library's public names: `cli.py` reads no
    `_`-prefixed attribute and imports no `_`-prefixed name, dunders aside."""
    import ast

    def private(name):
        return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))

    path = Path(__file__).resolve().parents[1] / "src" / "siglogic" / "cli.py"
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Attribute) and private(node.attr):
            found.append("%d: .%s" % (node.lineno, node.attr))
        elif isinstance(node, ast.ImportFrom):
            found += ["%d: %s" % (node.lineno, a.name) for a in node.names if private(a.name)]
    assert found == []


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


@pytest.mark.parametrize("arity", ["2_0", " 2", "+2", "\u0662", "-1"])
def test_links_arity_is_plain_digits(kb_path, tmp_path, arity):
    links = tmp_path / "links.txt"
    links.write_text(
        "java|lang|Math|max|%s\tpython|decimal|Context|max|2\n" % arity,
        encoding="utf-8",
    )
    code, out, err = _run(["equiv", "java lang Math::EquivIn(max,python)(?) -> r?",
                           "--kb", kb_path, "--eq", str(links)])
    assert (code, out) == (1, "")
    assert err == "%s:1: invalid arity %r\n" % (links, arity)


_PY_MAX_KEY = "python|decimal|Context|max|2"


@pytest.mark.parametrize("line, error", [
    ("java|lang|Math|max\t" + _PY_MAX_KEY, "expected `lang|ns|class|name|arity`"),
    ("java|lang|Math|max|2|1\t" + _PY_MAX_KEY, "expected `lang|ns|class|name|arity`"),
    ("java|la ng|Math|max|2\t" + _PY_MAX_KEY, "invalid key token: 'la ng'"),
    ("JA VA|lang|Math|max|2\t" + _PY_MAX_KEY, "invalid key token: 'JA VA'"),  # as written
    ("java|lang|Math|max|2", "expected two tab-separated keys"),
    ("java|lang|Math|max|2\t%s\t%s" % (_PY_MAX_KEY, _PY_MAX_KEY),
     "expected two tab-separated keys"),
], ids=["four-fields", "six-fields", "bad-token", "bad-language", "one-key",
        "three-keys"])
def test_bad_links_key_is_a_line_diagnostic(kb_path, tmp_path, line, error):
    links = tmp_path / "links.txt"
    links.write_text(line + "\n", encoding="utf-8")
    code, out, err = _run(["equiv", "java lang Math::EquivIn(max,python)(?) -> r?",
                           "--kb", kb_path, "--eq", str(links)])
    assert (code, out, err) == (1, "", "%s:1: %s\n" % (links, error))


@pytest.fixture
def compile_calls(monkeypatch):
    """Rows the KB lays out as atoms, counted at
    `siglogic.kb.signature_atoms`."""
    from siglogic import kb

    calls = []
    real = kb.signature_atoms

    def counted(sig, *terms, **build):
        calls.append(sig)
        return real(sig, *terms, **build)

    monkeypatch.setattr(kb, "signature_atoms", counted)
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


@pytest.fixture
def load_work(monkeypatch):
    """Lines parsed and Signatures built while the CLI loads a KB
    (`kb.load_kb`), counted at `dsl.parse_signature` and at
    `Signature.__new__`."""
    from siglogic import dsl, kb, model

    made, loading = [], []
    real_load, real_parse = kb.load_kb, dsl.parse_signature
    real_new = model.Signature.__new__

    def load(*args):
        loading.append(True)
        try:
            return real_load(*args)
        finally:
            loading.pop()

    def parse(text):
        if loading:
            made.append(text)
        return real_parse(text)

    def new(cls, *args, **kwargs):
        sig = real_new(cls, *args, **kwargs)
        if loading:
            made.append(sig)
        return sig

    monkeypatch.setattr(kb, "load_kb", load)
    monkeypatch.setattr(dsl, "parse_signature", parse)
    monkeypatch.setattr(model.Signature, "__new__", new)
    return made


def test_loading_a_ground_kb_builds_no_signature(kb_path, eq_path, load_work):
    for argv in (
        ["query", WILDCARD_QUERY, "--kb", kb_path],
        ["equiv", "java java.math BigInteger::EquivIn(shiftLeft,haskell)(?) -> s?",
         "--kb", kb_path, "--eq", eq_path],
        ["facts", "--kb", kb_path],
        ["ingest", "--kb", kb_path],
    ):
        code, _, _ = _run(argv, "java lang Math::min(long:a,long:b) -> long\n")
        assert code == 0
    assert load_work == []
    # a line the reader does not read as ground is parsed to say why
    with open(kb_path, "a", encoding="utf-8") as fh:
        fh.write("java lang Math::f?(long:a) -> long\n")
    assert _run(["facts", "--kb", kb_path])[0] == 1
    assert load_work[0] == "java lang Math::f?(long:a) -> long"
    assert isinstance(load_work[1], siglogic.Signature)


def _kb_lines(rng, n):
    """n ground KB lines in the benchmark corpus's style: a few languages,
    namespaces, classes, types and parameter names, UNK among the types,
    overloads by arity, and some `,...` lists."""
    types = ("int", "long", "string", "bool", "UNK")
    lines = {}
    while len(lines) < n:
        params = ["%s:%s" % (rng.choice(types), rng.choice("abcxyn"))
                  for _ in range(rng.randint(0, 4))]
        key = (rng.choice(("java", "python", "php")), rng.randrange(3),
               rng.randrange(6), rng.randrange(40), len(params))
        if params and rng.random() < 0.2:
            params.append("...")
        lines.setdefault(key, "%s ns%d C%d::f%d(%s) -> %s" % (
            *key[:4], ",".join(params), rng.choice(types)))
    return list(lines.values())


def _strings(value):
    """Every string in value, nested tuples walked."""
    if isinstance(value, str):
        yield value
    elif isinstance(value, tuple):
        for item in value:
            yield from _strings(item)


def test_a_loaded_kb_shares_its_token_strings():
    lines = _kb_lines(random.Random(3), 300)
    # the loader lowercases a language tag: the new string is shared too
    text = "".join(
        (re.sub(r"^\w+", lambda m: m[0].upper(), l) if i % 7 == 0 else l) + "\n"
        for i, l in enumerate(lines)
    )
    built = FactStore()
    for line in lines:
        ingest_signature(built, parse_signature(line))
    loaded = load_kb(text, "kb.txt")
    assert loaded._rows == built._rows
    # one string per distinct token across the load's keys and rows together
    tokens = {}
    for token in _strings(tuple(loaded._rows.items())):
        assert tokens.setdefault(token, token) is token
    assert len(tokens) > 50


def test_a_dropped_kb_load_leaves_nothing_behind():
    import gc
    import tracemalloc

    from siglogic import model

    before = model.ground_slot.cache_info()
    load_kb("\n".join(_kb_lines(random.Random(4), 50)))  # compiles the KB pattern
    # tokens no other load has seen: a process-wide cache would keep each one
    text = "".join(
        "java ns%d C%d::leak%d(T%d:p%d) -> R%d\n" % ((i,) * 6) for i in range(500)
    )
    gc.collect()
    tracemalloc.start()
    try:
        store = load_kb(text)
        loaded = tracemalloc.get_traced_memory()[0]
        del store
        gc.collect()
        left = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert model.ground_slot.cache_info() == before
    # a share of the load, not a byte count, which varies with the Python build
    assert left < 0.03 * loaded, (left, loaded)


def test_parses_share_one_wildcard_per_label_and_a_kb_load_makes_none():
    from siglogic import model
    from siglogic.logic import expand_equiv

    # the whole-line match and the scanner (a `(?)` list) read the same values
    first = parse_signature("l? N? C?::f?(t?:p?,...) -> t?")
    again = parse_signature("l? N? C?::f?(?) -> t?")
    assert first.params[0].type_slot is first.ret is again.ret
    assert first.lang is again.lang and first.head is again.head
    # and the target labels an EquivIn query expands to
    _, target = expand_equiv(parse_signature("java lang Math::EquivIn(max,php)(?) -> t?"))
    assert target.namespace is first.namespace and target.ret is parse_signature(
        "l? N? C?::f?(?) -> r?").ret
    caches = (model.ground_slot, model.wildcard_slot)
    before = [cache.cache_info() for cache in caches]
    store = load_kb("\n".join(_kb_lines(random.Random(5), 50)))
    assert len(store.keys) > 10
    assert [cache.cache_info() for cache in caches] == before


def test_printing_query_results_adds_nothing_to_the_slot_cache(tmp_path):
    from siglogic import cli, model

    # result tokens that nothing else parses, so the cache holds none of them
    line = "zz-rows ns.rows Rows$C::rows'f(Rows$T:rows_p,...) -> Rows$R"
    kb_file = tmp_path / "kb.txt"
    kb_file.write_text(line + "\n", encoding="utf-8")
    query = "l? N? C?::f?(?) -> r?"
    cli._parse(query)  # the query's own tokens are cached by any parse
    before = model.ground_slot.cache_info().currsize
    for porcelain in ([], ["--porcelain"]):
        code, out, err = _run(["query", query, "--kb", str(kb_file), *porcelain])
        assert (code, err) == (0, "")
        assert out.startswith(line)
    assert model.ground_slot.cache_info().currsize == before


def test_facts_lays_out_each_arity_once_per_call(kb_path, compile_calls):
    # one layout per distinct row length, made again by every call: no
    # template outlives the call that built it
    widths = {len(parse_signature(t).params) * 2 + 6 for t in ALL_FIXTURE_SIGS}
    assert len(widths) == 2  # arities 1 and 2
    for _ in range(2):
        compile_calls.clear()
        assert _run(["facts", "--kb", kb_path])[0] == 0
        assert sorted(map(len, compile_calls)) == sorted(widths)


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


@pytest.mark.parametrize("command", ["normalize", "ingest"])
def test_lang_without_dialect_is_a_usage_error(tmp_path, command):
    # tab-separated and normalized lines name their own language
    kb_file = tmp_path / "kb.txt"
    argv = [command, "--lang", "java"]
    if command == "ingest":
        argv += ["--kb", str(kb_file)]
    code, out, err = _run(argv, JAVA_MAX_RAW + "\n")
    assert (code, out) == (2, "")
    assert err.startswith("usage: siglogic %s " % command)
    assert err.endswith("error: argument --lang: not allowed without --dialect\n")
    assert not kb_file.exists()


@pytest.mark.parametrize("flags, error", [
    (["--dialect", "java"], "argument --lang: required with --dialect java"),
    (["--dialect", "python"], "argument --lang: required with --dialect python"),
    (["--dialect", "php"], "argument --lang: required with --dialect php"),
    (["--dialect", "normalized", "--lang", "php"],
     "argument --lang: not allowed with --dialect normalized"),
    (["--dialect", "java", "--lang", "p p"],
     "argument --lang: invalid language tag: 'p p'"),
    (["--dialect", "java", "--lang", ""],
     "argument --lang: invalid language tag: ''"),
], ids=["java", "python", "php", "normalized", "bad-tag", "empty-tag"])
@pytest.mark.parametrize("stdin_text", ["", JAVA_MAX_RAW + "\n"],
                         ids=["empty", "one-line"])
@pytest.mark.parametrize("command", ["normalize", "ingest"])
def test_dialect_and_lang_mismatch_is_a_usage_error(
    tmp_path, command, stdin_text, flags, error
):
    kb_file = tmp_path / "kb.txt"
    argv = [command] + flags
    if command == "ingest":
        argv += ["--kb", str(kb_file)]
    code, out, err = _run(argv, stdin_text)
    assert (code, out) == (2, "")
    assert err.startswith("usage: siglogic %s " % command)
    assert err.endswith("siglogic %s: error: %s\n" % (command, error))
    assert not kb_file.exists()


@pytest.mark.parametrize("line, error", [
    ("java\t\tlong f(int x)", "the java dialect needs a language tag"),
    ("cobol\tcobol\tlong f(int x)", "unknown dialect 'cobol'"),
    ("normalized\tphp\t" + JAVA_MAX,
     "the normalized dialect takes no language tag"),
    ("java\tjava", "expected `dialect<TAB>lang<TAB>raw`"),
    ("java\tjava\ta\tb", "expected `dialect<TAB>lang<TAB>raw`"),
], ids=["no-language", "unknown-dialect", "normalized-with-language",
        "two-fields", "four-fields"])
def test_bad_tab_line_is_a_line_diagnostic(line, error):
    assert _run(["normalize"], line + "\n") == (1, "", "<stdin>:1: %s\n" % error)


@pytest.mark.parametrize("flags, line, normalized", [
    (["--dialect", "java", "--lang", "java"], "lang Math long\tmax(long a)",
     "java lang Math::max(long:a) -> long"),
    (["--dialect", "normalized"], "java lang\tMath::f(int:a) -> int",
     "java lang Math::f(int:a) -> int"),
], ids=["raw-dialect", "normalized-dialect"])
def test_a_tab_under_dialect_is_text_not_a_field(flags, line, normalized):
    assert _run(["normalize"] + flags, line + "\n") == (0, normalized + "\n", "")


def test_normalized_tab_line_with_empty_language_is_read():
    assert _run(["normalize"], "normalized\t\t%s\n" % JAVA_MAX) == (
        0, JAVA_MAX + "\n", "")


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


def test_calls_in_one_process_give_what_each_gives_alone(kb_path, full_store):
    from siglogic import cli

    calls = [
        (["query", WILDCARD_QUERY, "--kb", kb_path, "--porcelain"], ""),
        (["query", WILDCARD_QUERY, "--kb", kb_path], ""),
        (["normalize", "--dialect", "java", "--lang", "java"], JAVA_MAX_RAW + "\n"),
        (["normalize"], "java\tjava\t%s\n" % JAVA_MAX_RAW),
        (["normalize", "--lang", "x"], ""),
        (["compile"], JAVA_MAX + "\n"),
        (["--help"], ""),
        (["facts", "--kb", kb_path], ""),
    ]
    alone = []
    for argv, stdin_text in calls:
        cli._build_parser.cache_clear()  # a parser of its own, as in a fresh process
        alone.append(_run(argv, stdin_text))
    assert [_run(argv, stdin_text) for argv, stdin_text in calls] == alone
    porcelain, plain, flagged, tabbed, usage, valid, help_, facts = alone
    assert "\t" in porcelain[1] and "\t" not in plain[1]
    assert flagged == tabbed == (0, JAVA_MAX + "\n", "")
    assert usage[0] == 2 and valid == (0, valid[1], "")
    assert help_[1].startswith("usage: siglogic") and help_[1] not in facts[1]
    assert facts == (0, "".join(line + "\n" for line in dump_facts(full_store)), "")


def test_the_parser_is_built_on_the_first_call_only(kb_path, monkeypatch):
    import argparse
    import importlib

    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    monkeypatch.setattr(siglogic, "cli", siglogic.cli)  # put back after the test
    monkeypatch.delitem(sys.modules, "siglogic.cli")
    fresh = importlib.import_module("siglogic.cli")
    assert built == []
    assert fresh.run(["facts", "--kb", kb_path], stdout=io.StringIO()) == 0
    assert built
    first = list(built)
    for argv in (["facts", "--kb", kb_path], ["query", "-h"], ["normalize", "--lang", "x"]):
        fresh.run(argv, stdin=io.StringIO(), stdout=io.StringIO(), stderr=io.StringIO())
    assert built == first


def test_the_kb_pattern_is_compiled_on_the_first_load_only(kb_path, monkeypatch):
    import importlib

    compiled = []
    compile_ = re.compile

    def counting_compile(pattern, flags=0):
        compiled.append(pattern)
        return compile_(pattern, flags)

    monkeypatch.setattr(re, "compile", counting_compile)
    for name in ("cli", "kb", "dsl"):  # imported afresh, put back after the test
        monkeypatch.delattr(siglogic, name)
        monkeypatch.delitem(sys.modules, "siglogic." + name)
    fresh = importlib.import_module("siglogic.cli")
    imported = len(compiled)
    for _ in range(2):
        assert fresh.run(["facts", "--kb", kb_path], stdout=io.StringIO()) == 0
    pattern = fresh.dsl.lines_re(fresh.dsl._KB_LINE).pattern
    assert pattern not in compiled[:imported]
    assert compiled[imported:].count(pattern) == 1


@pytest.fixture
def collector_on():
    """Run the test with the cyclic collector on, and put back its state."""
    enabled = gc.isenabled()
    gc.enable()
    yield
    if not enabled:
        gc.disable()


@pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
def test_run_puts_back_the_collector_state_it_found(
    kb_path, tmp_path, monkeypatch, collector_on, enabled,
):
    from siglogic import kb

    bad_kb = tmp_path / "bad.txt"
    bad_kb.write_text("not a signature\n", encoding="utf-8")
    cold_kb = tmp_path / "cold.txt"  # no snapshot, so the load reads the text
    cold_kb.write_text(JAVA_MAX + "\n", encoding="utf-8")
    paused = []

    def fail(text, path):
        paused.append(not gc.isenabled())
        raise RuntimeError("load failed")

    if not enabled:
        gc.disable()
    for argv, code in [
        (["query", WILDCARD_QUERY, "--kb", kb_path], 0),
        (["facts", "--kb", str(bad_kb)], 1),
        (["query", WILDCARD_QUERY], 2),
    ]:
        assert _run(argv)[0] == code
        assert gc.isenabled() is enabled
    monkeypatch.setattr(kb, "load_kb", fail)
    with pytest.raises(RuntimeError, match="load failed"):
        _run(["query", WILDCARD_QUERY, "--kb", str(cold_kb)])
    assert gc.isenabled() is enabled
    assert paused == [True]


@pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
def test_run_calls_in_threads_put_back_the_collector_state(
    monkeypatch, collector_on, enabled,
):
    import threading

    codes = []

    def calls():
        for _ in range(100):
            codes.append(_run(["compile"], JAVA_MAX + "\n")[0])

    # overlapping calls may leave sys's streams swapped: argparse's output
    # is redirected through them
    monkeypatch.setattr(sys, "stdout", sys.stdout)
    monkeypatch.setattr(sys, "stderr", sys.stderr)
    if not enabled:
        gc.disable()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # a thread switch between nearly any two steps
    try:
        threads = [threading.Thread(target=calls) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert codes == [0] * 100 * len(threads)
    assert gc.isenabled() is enabled


def test_a_call_that_ends_cannot_re_enable_between_anothers_check_and_pause(monkeypatch):
    import threading

    from siglogic import cli

    paused = threading.Event()  # the first call has paused the collector
    release = threading.Event()  # the first call may return
    ended = threading.Event()  # the first call has returned

    class Collector:  # gc as `run` sees it: the second call's check waits
        on = True

        def isenabled(self):
            on = self.on
            if threading.current_thread() is second:
                release.set()
                ended.wait(timeout=0.5)  # at once, unless the first call waits for it
            return on

        def disable(self):
            self.on = False
            paused.set()

        def enable(self):
            self.on = True

    def command(*args):
        if threading.current_thread() is first:
            release.wait(timeout=5)
        return 0

    collector = Collector()
    monkeypatch.setattr(cli, "gc", collector)
    monkeypatch.setattr(cli, "_run", command)
    first = threading.Thread(target=lambda: (cli.run([]), ended.set()))
    second = threading.Thread(target=cli.run, args=([],))
    first.start()
    assert paused.wait(timeout=5)
    second.start()
    for t in (first, second):
        t.join(timeout=10)
    assert not first.is_alive() and not second.is_alive()
    assert collector.on


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
def test_an_in_process_call_runs_no_collection(tmp_path, collector_on, warm):
    # about 2k rows: enough allocations for the collector to start on its
    # own several times a call were it on
    lines = _kb_lines(random.Random(7), 2000)
    kb_file = tmp_path / "kb.txt"
    kb_file.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    java, python = (next(line for line in lines if line.startswith(lang + " "))
                    for lang in ("java", "python"))
    eq_file = tmp_path / "links.txt"
    eq_file.write_text("%s\t%s\n" % tuple(
        function_key(parse_signature(line)).text for line in (java, python)))
    name = parse_signature(java).head.token
    kb_path, rows = str(kb_file), Path(str(kb_file) + ".rows")
    calls = [
        ["query", "java N? C?::%s(?) -> r?" % name, "--kb", kb_path],
        ["query", "l? N? C?::f?(?) -> bool", "--kb", kb_path],
        ["query", "l? N? C?::f?(t?:p?) -> t?", "--kb", kb_path],
        ["equiv", "java N? C?::EquivIn(%s,python)(?) -> r?" % name,
         "--kb", kb_path, "--eq", str(eq_file)],
        ["facts", "--kb", kb_path],
        ["ingest", "--kb", kb_path],
    ]
    started = []

    def count(phase, info):
        if phase == "start":
            started.append(info["generation"])

    for argv in calls:
        stdin = JAVA_MAX + "\n"
        if warm:
            assert _run(argv, stdin)[0] == 0  # writes the snapshot the call reads
        else:
            rows.unlink(missing_ok=True)
        streams = io.StringIO(stdin), io.StringIO(), io.StringIO()
        gc.collect()
        gc.callbacks.append(count)
        try:
            code = run(argv, *streams)
        finally:
            gc.callbacks.remove(count)
        assert code == 0 and streams[1].getvalue() != "0 results\n", argv
        assert started == [], argv


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


def _snapshot_of(kb_file):
    """The store that the row snapshot beside a KB file loads, or None."""
    return siglogic.kb.load_snapshot(
        Path(str(kb_file) + ".rows").read_bytes(),
        siglogic.kb.kb_digest(Path(kb_file).read_bytes()),
    )


def _no_tmp(directory):
    return [name for name in os.listdir(directory) if name.endswith(".tmp")] == []


def test_a_read_command_writes_a_snapshot_that_the_next_one_reads(
    kb_path, eq_path, monkeypatch
):
    calls = [
        ["facts", "--kb", kb_path],
        ["query", WILDCARD_QUERY, "--kb", kb_path, "--porcelain"],
        ["equiv", "java java.math BigInteger::EquivIn(shiftLeft,haskell)(?) -> s?",
         "--kb", kb_path, "--eq", eq_path],
    ]
    cold = [_run(argv) for argv in calls]
    assert _snapshot_of(kb_path).rows == load_kb(Path(kb_path).read_text()).rows

    def text_load(*args):
        raise AssertionError("the KB text was loaded again")

    monkeypatch.setattr(siglogic.kb, "load_kb", text_load)
    assert [_run(argv) for argv in calls] == cold
    assert [code for code, _, _ in cold] == [0, 0, 0]


def _stale_kb(kb_file):  # a line the snapshot does not hold, and a bad one
    with open(kb_file, "a", encoding="utf-8") as fh:
        fh.write("java lang Math::abs(int:a) -> int\njava lang Math::f?() -> int\n")


def _damage(rows, case):
    """Damage the snapshot file `rows` by name."""
    data = rows.read_bytes()
    if case == "truncated":
        rows.write_bytes(data[:len(data) // 2])
    elif case == "garbage":
        rows.write_bytes(bytes(range(256)) * 8)
    elif case == "a flipped byte":
        rows.write_bytes(data[:-40] + bytes([data[-40] ^ 1]) + data[-39:])
    elif case == "another Python":
        from siglogic import kb

        header = kb._SNAPSHOT_HEADER[:3] + ((2, 7), 4)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(kb, "_SNAPSHOT_HEADER", header)
            kb_data = Path(str(rows)[:-len(".rows")]).read_bytes()
            rows.write_bytes(b"".join(
                kb.dump_snapshot(kb.load_kb(kb_data.decode()), kb.kb_digest(kb_data))))
    elif case == "a directory":
        rows.unlink()
        rows.mkdir()


_DAMAGE = ["stale", "truncated", "garbage", "a flipped byte", "another Python", "a directory"]


@pytest.mark.parametrize("case", _DAMAGE)
@pytest.mark.parametrize("command", ["query", "equiv", "facts"])
def test_a_stale_or_damaged_snapshot_changes_no_output(tmp_path, eq_path, case, command):
    kb_file = tmp_path / "kb.txt"
    kb_file.write_text("".join(s + "\n" for s in ALL_FIXTURE_SIGS), encoding="utf-8")
    rows = tmp_path / "kb.txt.rows"
    argv = {
        "query": ["query", WILDCARD_QUERY],
        "equiv": ["equiv", "java java.math BigInteger::EquivIn(shiftLeft,haskell)(?) -> s?",
                  "--eq", eq_path],
        "facts": ["facts"],
    }[command] + ["--kb", str(kb_file)]
    assert _run(argv)[0] == 0 and rows.is_file()
    if case == "stale":
        _stale_kb(kb_file)
    else:
        _damage(rows, case)
    damaged = rows.read_bytes() if rows.is_file() else None
    rows.rename(tmp_path / "aside")
    expected = _run(argv)  # as with no snapshot
    if case == "stale":
        assert expected[0] == 1 and not rows.exists()  # a failed load writes none
    else:
        assert expected[0] == 0
        rows.unlink()
    (tmp_path / "aside").rename(rows)
    assert _run(argv) == expected
    assert _no_tmp(tmp_path)
    if case == "a directory":  # no snapshot, so never replaced
        assert rows.is_dir()
    elif case in ("stale", "garbage"):
        assert rows.read_bytes() == damaged
    else:  # replaced by the snapshot of the KB
        assert _snapshot_of(kb_file).rows == load_kb(kb_file.read_text()).rows


@pytest.mark.parametrize("case", [None] + _DAMAGE)
def test_ingest_writes_the_snapshot_of_the_new_kb(tmp_path, case):
    new = tmp_path / "new.txt"
    new.write_text(JAVA_MAX + "\njava lang Math::abs(int:a) -> int\n", encoding="utf-8")
    outcomes = []
    for name in ("bare", "snapshot"):
        kb_file = tmp_path / name / "kb.txt"
        kb_file.parent.mkdir()
        kb_file.write_text(PHP_MAX + "\n", encoding="utf-8")
        if name == "snapshot":
            assert _run(["facts", "--kb", str(kb_file)])[0] == 0  # writes one
            if case == "stale":
                kb_file.write_text(PHP_MAX + "\n" + PY_MAX + "\n", encoding="utf-8")
            elif case is not None:
                _damage(tmp_path / name / "kb.txt.rows", case)
        elif case == "stale":
            kb_file.write_text(PHP_MAX + "\n" + PY_MAX + "\n", encoding="utf-8")
        outcomes.append((_run(["ingest", "--kb", str(kb_file), str(new)]),
                         kb_file.read_bytes()))
        assert _no_tmp(kb_file.parent)
        if name == "bare" or case not in ("garbage", "a directory"):
            assert _snapshot_of(kb_file).rows == load_kb(kb_file.read_text()).rows
        elif case == "a directory":
            assert (tmp_path / name / "kb.txt.rows").is_dir()
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][0][0] == 0


def test_ingest_keeps_the_permission_bits_of_the_kb_and_its_snapshot(kb_path):
    assert _run(["facts", "--kb", kb_path])[0] == 0  # writes the snapshot
    rows = kb_path + ".rows"
    os.chmod(kb_path, 0o640)
    os.chmod(rows, 0o600)
    code, out, _ = _run(["ingest", "--kb", kb_path], "java lang Math::abs(int:a) -> int\n")
    assert (code, out) == (0, "ingested 1 signatures, 9 new facts\n")
    assert (os.stat(kb_path).st_mode & 0o7777, os.stat(rows).st_mode & 0o7777) == (0o640, 0o600)


@pytest.mark.parametrize("command", ["query", "facts", "ingest"])
def test_a_file_that_is_no_snapshot_is_never_replaced(kb_path, command):
    rows = Path(kb_path + ".rows")
    rows.write_text("my own rows\n", encoding="utf-8")
    argv = {
        "query": ["query", WILDCARD_QUERY],
        "facts": ["facts"],
        "ingest": ["ingest"],
    }[command] + ["--kb", kb_path]
    for _ in range(2):
        code, _, err = _run(argv, JAVA_MAX + "\n")
        assert (code, err) == (0, "")
    assert rows.read_text(encoding="utf-8") == "my own rows\n"
    assert _no_tmp(rows.parent)


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


@pytest.mark.parametrize("dialect, raw, offset", [
    ("java", "long UNK(int a)", 5),
    ("python", "decimal UNK(a)", 8),
    ("php", "mixed UNK($a)", 6),
])
@pytest.mark.parametrize("command", ["normalize", "ingest"])
def test_raw_function_named_unk_is_a_line_diagnostic(
    tmp_path, command, dialect, raw, offset
):
    # UNK is ground, but a signature with no function name has no identity
    kb_file = tmp_path / "kb.txt"
    kb_file.write_text(JAVA_MAX + "\n", encoding="utf-8")
    argv = [command, "--dialect", dialect, "--lang", dialect]
    if command == "ingest":
        argv += ["--kb", str(kb_file)]
    code, out, err = _run(argv, raw + "\n")
    assert (code, out) == (1, "")
    assert err == (
        "<stdin>:1: %s dialect, at offset %d: "
        "function name may not be UNK\n" % (dialect, offset)
    )
    assert kb_file.read_text(encoding="utf-8") == JAVA_MAX + "\n"


def test_ingest_key_conflict_is_a_line_diagnostic(tmp_path):
    kb_file = tmp_path / "kb.txt"
    kb_file.write_text(PHP_MAX + "\n", encoding="utf-8")
    new = tmp_path / "new.txt"
    new.write_text(JAVA_MAX + "\n" + PHP_MAX.replace(",...", "") + "\n",
                   encoding="utf-8")
    code, out, err = _run(["ingest", "--kb", str(kb_file), str(new)])
    # the key is spelled as witnesses and links files spell it
    assert (code, out) == (1, "")
    assert err == "%s:2: differing signature already stored for php|core|builtin|max|2\n" % new
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
    code, out, err = _run(argv + ["--kb", str(kb_file)])
    assert (code, out) == (1, "")
    assert err == (
        "%s:3: differing signature already stored for java|lang|Math|max|2\n" % kb_file)


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


def test_ingest_appends_each_new_line_once_in_input_order(tmp_path):
    kb_file = tmp_path / "kb.txt"
    old = JAVA_MAX + "\n" + JAVA_MAX  # a repeated line and no final newline
    kb_file.write_text(old, encoding="utf-8")
    min_sig = "java lang Math::min(long:a) -> long"
    batch = [
        min_sig,
        JAVA_MAX,  # already stored
        "JAVA lang Math::abs(int:a,...) -> int",  # stored lowercased
        min_sig,  # a repeat within the batch
        "python builtins builtin::len(UNK:x) -> int",
    ]
    code, out, err = _run(["ingest", "--kb", str(kb_file)], "\n".join(batch))
    assert (code, err) == (0, "")
    # 9 each for min and abs, 11 for len with its new namespace and class
    assert out == "ingested 5 signatures, 29 new facts\n"
    new = [min_sig, "java lang Math::abs(int:a,...) -> int", batch[-1]]
    assert kb_file.read_text(encoding="utf-8") == old + "\n" + "".join(
        s + "\n" for s in new
    )


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


_BREAKS = {"lf": ["\n"], "crlf": ["\r\n"], "cr": ["\r"], "mixed": ["\r\n", "\r", "\n"]}


def _text(lines, breaks, final):
    """lines, each ended by the next of breaks in turn; the last by none
    unless final."""
    text = "".join(line + breaks[i % len(breaks)] for i, line in enumerate(lines))
    return text if final else text.rstrip("\r\n")


_LINKS = [
    "java|java.math|BigInteger|shiftLeft|1\thaskell|Data.Bits|builtin|shiftL|2",
    "haskell|Data.Bits|builtin|shiftL|2\tclojure|clojure.core|builtin|bit-shift-left|2",
]
_EQUIV_QUERY = "java java.math BigInteger::EquivIn(shiftLeft,haskell)(?) -> s?"

# argv, its files' lines, and the file whose line 3 the bad case breaks
_READERS = {
    "facts": (["facts", "--kb", "kb.txt"], {"kb.txt": ALL_FIXTURE_SIGS}, "kb.txt"),
    "query": (["query", WILDCARD_QUERY, "--kb", "kb.txt", "--porcelain"],
              {"kb.txt": ALL_FIXTURE_SIGS}, "kb.txt"),
    "equiv": (["equiv", _EQUIV_QUERY, "--kb", "kb.txt", "--eq", "links.txt"],
              {"kb.txt": ALL_FIXTURE_SIGS, "links.txt": _LINKS}, "links.txt"),
    "normalize": (["normalize", "in.txt"],
                  {"in.txt": ["java\tjava\t" + JAVA_MAX_RAW, "php\tphp\t" + PHP_MAX_RAW,
                              JAVA_MAX, PY_MAX]}, "in.txt"),
    "compile": (["compile", "in.txt"], {"in.txt": ALL_FIXTURE_SIGS}, "in.txt"),
}


def _read_with_breaks(where, monkeypatch, reader, breaks, final, bad):
    """What reader gives on its files written with breaks in where; if bad,
    with line 3 of its broken file not a signature."""
    argv, files, broken = _READERS[reader]
    where.mkdir()
    monkeypatch.chdir(where)  # the same relative paths in every diagnostic
    for name, lines in files.items():
        if bad and name == broken:
            lines = lines[:2] + ["not a signature"] + lines[3:]
        (where / name).write_bytes(_text(lines, breaks, final).encode())
    return _run(argv)


@pytest.mark.parametrize("final", [True, False], ids=["final-break", "no-final-break"])
@pytest.mark.parametrize("breaks", list(_BREAKS.values()), ids=list(_BREAKS))
@pytest.mark.parametrize("reader", list(_READERS))
def test_every_line_break_style_reads_as_newlines(tmp_path, monkeypatch, reader,
                                                  breaks, final):
    def read(name, breaks, final, bad):
        return _read_with_breaks(tmp_path / name, monkeypatch, reader, breaks, final, bad)

    good = read("lf", ["\n"], True, False)
    assert good[0] == 0 and good[1] and good[2] == ""
    assert read("styled", breaks, final, False) == good
    bad = read("lf-bad", ["\n"], True, True)
    assert bad[0] == 1 and bad[2].startswith(_READERS[reader][2] + ":3: ")
    assert read("styled-bad", breaks, final, True) == bad


@pytest.mark.parametrize("final", [True, False], ids=["final-break", "no-final-break"])
@pytest.mark.parametrize("breaks", list(_BREAKS.values()), ids=list(_BREAKS))
def test_ingest_keeps_the_kb_line_breaks_and_appends_newlines(tmp_path, breaks, final):
    kb_file = tmp_path / "kb.txt"
    before = _text(ALL_FIXTURE_SIGS[:3], breaks, final).encode()
    kb_file.write_bytes(before)
    new = ALL_FIXTURE_SIGS[3:]
    code, _, err = _run(["ingest", "--kb", str(kb_file)], "".join(s + "\n" for s in new))
    assert (code, err) == (0, "")
    assert kb_file.read_bytes() == (
        before + (b"" if final else b"\n") + "".join(s + "\n" for s in new).encode()
    )


@settings(max_examples=200, deadline=None)
@given(*[st.text("a \r\n\u2028\xe9", max_size=12)] * 2)  # U+2028 ends no line
def test_a_utf8_error_names_the_line_that_lines_reads(head, tail):
    from siglogic import cli

    # `#` marks where the bad byte goes: the line _lines puts it on
    lineno = next(n for n, line in cli._lines(head + "#" + tail) if "#" in line)
    with pytest.raises(LineError, match=r"^p:%d: invalid UTF-8" % lineno):
        cli._decode("p", head.encode() + b"\xff" + tail.encode())


def test_query_language_is_lowercased_like_the_kb(kb_path):
    lower = _run(["query", "java N? C?::f?(?) -> r?", "--kb", kb_path])
    assert lower[0] == 0 and JAVA_MAX in lower[1]
    assert _run(["query", "JAVA N? C?::f?(?) -> r?", "--kb", kb_path]) == lower


def test_equiv_source_language_is_lowercased_like_the_kb(kb_path, tmp_path):
    links = tmp_path / "max.txt"
    links.write_text(
        "java|lang|Math|max|2\tpython|decimal|Context|max|2\n", encoding="utf-8"
    )
    argv = ["--kb", kb_path, "--eq", str(links)]
    lower = _run(["equiv", "java lang Math::EquivIn(max,python)(?) -> r?"] + argv)
    assert lower[0] == 0 and PY_MAX in lower[1]
    assert _run(
        ["equiv", "JAVA lang Math::EquivIn(max,python)(?) -> r?"] + argv
    ) == lower


_BOM = b"\xef\xbb\xbf"


def test_byte_order_mark_is_dropped_from_a_kb(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "kb.txt").write_bytes(JAVA_MAX.encode() + b"\n")
    (tmp_path / "bom.txt").write_bytes(_BOM + JAVA_MAX.encode() + b"\n")
    facts = _run(["facts", "--kb", "kb.txt"])
    assert facts[0] == 0
    assert _run(["facts", "--kb", "bom.txt"]) == facts
    # line numbers of later diagnostics are unchanged
    (tmp_path / "bad.txt").write_bytes(
        _BOM + JAVA_MAX.encode() + b"\nnot a signature\n"
    )
    code, _, err = _run(["facts", "--kb", "bad.txt"])
    assert code == 1 and err.startswith("bad.txt:2: ")


def test_byte_order_mark_is_dropped_from_an_input_file(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "in.txt").write_bytes(_BOM + JAVA_MAX_RAW.encode() + b"\n")
    argv = ["normalize", "--dialect", "java", "--lang", "java", "in.txt"]
    assert _run(argv) == (0, JAVA_MAX + "\n", "")


def test_byte_order_mark_is_dropped_from_stdin():
    argv = ["normalize", "--dialect", "java", "--lang", "java"]
    out, err = io.StringIO(), io.StringIO()
    with io.TextIOWrapper(io.BytesIO(_BOM + JAVA_MAX_RAW.encode() + b"\n")) as stdin:
        code = run(argv, stdin=stdin, stdout=out, stderr=err)
    assert (code, out.getvalue(), err.getvalue()) == (0, JAVA_MAX + "\n", "")
    # a text stream without a byte buffer
    assert _run(argv, "\ufeff" + JAVA_MAX_RAW + "\n") == (0, JAVA_MAX + "\n", "")


_WILDCARD_LANG_EQUIV = "L? lang Math::EquivIn(max,php)(?) -> r?"


@pytest.mark.parametrize("command", ["compile", "query", "equiv"])
def test_equiv_head_without_a_concrete_language_is_a_diagnostic(
    kb_path, eq_path, command
):
    argv, where = {
        "compile": (["compile"], "<stdin>"),
        "query": (["query", _WILDCARD_LANG_EQUIV, "--kb", kb_path], "<query>"),
        "equiv": (["equiv", _WILDCARD_LANG_EQUIV, "--kb", kb_path, "--eq", eq_path],
                  "<query>"),
    }[command]
    assert _run(argv, _WILDCARD_LANG_EQUIV + "\n") == (
        1, "", "%s:1: EquivIn requires a concrete source language\n" % where
    )


@pytest.mark.parametrize("command, error", [
    ("query", "<query>:1: EquivIn queries go through answer_equiv"),
    ("equiv", "<query>:1: expand_equiv requires an EquivIn head"),
    ("compile", "<stdin>:1: EquivIn heads expand via expand_equiv"),
])
def test_a_head_of_the_wrong_kind_is_a_diagnostic(kb_path, eq_path, command, error):
    equiv_query = "java java.math BigInteger::EquivIn(shiftLeft,haskell)(?) -> r?"
    argv = {
        "query": ["query", equiv_query, "--kb", kb_path],
        "equiv": ["equiv", WILDCARD_QUERY, "--kb", kb_path, "--eq", eq_path],
        "compile": ["compile"],
    }[command]
    assert _run(argv, equiv_query + "\n") == (1, "", error + "\n")


_PY_BUILTIN_MAX = "python builtin builtin::max(UNK:a,UNK:b) -> UNK"


@pytest.mark.parametrize("porcelain", [False, True])
@pytest.mark.parametrize("query, labels", [
    # the base's own N and r are kept; the target's get a prime
    ("java N? Math::EquivIn(max,python)(long:a,long:b) -> r?",
     ["C=builtin", "N=lang", "N'=builtin", "f'=max", "r=long", "r'=UNK"]),
    ("java lang Math::EquivIn(max,python)(long:f'?,long:b) -> long",
     ["C=builtin", "N=builtin", "f'=a", "f''=max", "r=UNK"]),
], ids=["N-and-r", "f-prime"])
def test_equiv_target_labels_are_primed_past_the_query_labels(
    tmp_path, porcelain, query, labels
):
    kb_file, links = tmp_path / "kb.txt", tmp_path / "links.txt"
    kb_file.write_text(JAVA_MAX + "\n" + _PY_BUILTIN_MAX + "\n", encoding="utf-8")
    links.write_text(
        "java|lang|Math|max|2\tpython|builtin|builtin|max|2\n", encoding="utf-8"
    )
    argv = ["equiv", query, "--kb", str(kb_file), "--eq", str(links)]
    sep = "\t" if porcelain else "\n"
    expected = sep.join([_PY_BUILTIN_MAX] + labels) + "\n"
    assert _run(argv + ["--porcelain"] * porcelain) == (0, expected, "")


_UNK_LANG_SIG = "UNK ns C::f(int:a) -> r"


def test_unk_language_survives_normalize_load_and_query(tmp_path):
    # UNK is a token, not a tag to lowercase: it stays UNK end to end
    assert _run(["normalize", "--dialect", "normalized"], _UNK_LANG_SIG + "\n") == (
        0, _UNK_LANG_SIG + "\n", ""
    )
    kb_file = tmp_path / "kb.txt"
    kb_file.write_text(_UNK_LANG_SIG + "\n", encoding="utf-8")
    facts = _run(["facts", "--kb", str(kb_file)])[1].splitlines()
    assert "lang(fn:UNK|ns|C|f|1,UNK)" in facts
    assert _run(
        ["query", "UNK N? C?::f?(?) -> s?", "--kb", str(kb_file), "--porcelain"]
    ) == (0, _UNK_LANG_SIG + "\tC=C\tN=ns\tf=f\ts=r\n", "")


def test_unk_language_takes_part_in_an_equivalence(tmp_path):
    kb_file, links = tmp_path / "kb.txt", tmp_path / "links.txt"
    kb_file.write_text(
        _UNK_LANG_SIG + "\njava lang Math::g(int:a) -> r\n", encoding="utf-8"
    )
    links.write_text("UNK|ns|C|f|1\tjava|lang|Math|g|1\n", encoding="utf-8")
    assert _run(["equiv", "java lang Math::EquivIn(g,UNK)(?) -> s?",
                 "--kb", str(kb_file), "--eq", str(links), "--porcelain"]) == (
        0, _UNK_LANG_SIG + "\tC=C\tN=ns\tf'=f\tr=r\ts=r\n", ""
    )


def test_raw_unk_language_is_not_lowercased():
    assert _run(["normalize", "--dialect", "java", "--lang", "UNK"],
                "long f(int a)\n") == (0, "UNK core builtin::f(int:a) -> long\n", "")


def test_unk_language_is_an_equivalence_source(tmp_path):
    kb_file, links = tmp_path / "kb.txt", tmp_path / "links.txt"
    kb_file.write_text(
        "UNK core builtin::unkfn(int:a) -> int\n"
        "java lang Math::abs(int:a) -> int\n", encoding="utf-8"
    )
    links.write_text("UNK|core|builtin|unkfn|1\tjava|lang|Math|abs|1\n",
                     encoding="utf-8")
    assert _run(["equiv", "UNK core builtin::EquivIn(unkfn,java)(?) -> r?",
                 "--kb", str(kb_file), "--eq", str(links), "--porcelain"]) == (
        0, "java lang Math::abs(int:a) -> int\tC=Math\tN=lang\tf'=abs\tr=int"
           "\tr'=int\n", ""
    )


def test_compile_lowercases_the_language_like_the_kb():
    lower = _run(["compile"], "java lang Math::max(long:a) -> long\n")
    assert lower[0] == 0 and "lang(f,java)" in lower[1]
    assert _run(["compile"], "JAVA lang Math::max(long:a) -> long\n") == lower
    # that function is named f, so the function binder is f_e
    assert "lang(f_e,UNK)" in _run(["compile"], _UNK_LANG_SIG + "\n")[1]


def test_results_are_in_key_order(tmp_path):
    # by (lang, ns, class, name, arity) as a tuple: arity 2 before 10, and a
    # name before the longer names it begins
    ten = ",".join("int:a%d" % i for i in range(1, 11))
    lines = [
        "java lang M::f(%s) -> r" % ten,
        "java lang M::f(int:a,int:b) -> r",
        "java lang M::g$x() -> r",
        "java lang M::g() -> r",
    ]
    kb_file = tmp_path / "kb.txt"
    kb_file.write_text("".join(l + "\n" for l in lines), encoding="utf-8")
    code, out, err = _run(["query", "java lang M::n?(?) -> r",
                           "--kb", str(kb_file), "--porcelain"])
    assert (code, err) == (0, "")
    assert out.splitlines() == [
        lines[1] + "\tn=f", lines[0] + "\tn=f", lines[3] + "\tn=g",
        lines[2] + "\tn=g$x",
    ]


def test_equiv_base_named_unk_matches_no_function(kb_path, eq_path):
    assert _run(["equiv", "java lang Math::EquivIn(UNK,php)(?) -> r?",
                 "--kb", kb_path, "--eq", eq_path]) == (
        1, "", "<query>:1: no ingested function matches 'UNK'\n"
    )


def _reference_load(text, path="<kb>"):
    """A KB loaded line by line through the library: `normalize`, then
    `ingest_signature`."""
    from siglogic import cli, kb
    from siglogic.normalizer import Dialect, normalize

    store = FactStore()
    for lineno, line in cli._lines(text):
        try:
            ingest_signature(store, normalize(line, Dialect.NORMALIZED))
        except kb.INPUT_ERRORS as e:
            raise LineError(path, lineno, str(e))
    return store


def _loaded(load, text):
    """What a load of text gives: its `path:line:` diagnostic, or its keys,
    their signatures, its fact count and its facts."""
    from siglogic.kb import reconstruct_signature

    try:
        store = load(text, "kb.txt")
    except LineError as e:
        return str(e)
    keys = list(store.keys)
    sigs = [reconstruct_signature(store, key) for key in keys]
    return keys, sigs, len(store), dump_facts(store)


_PUNCT = re.compile(r"(::|->|[(),:])")
# Whitespace to Python (`str.isspace`, `\s`) that ends no KB line
_ODD_SPACES = ["\x0b", "\x0c", "\x1c", "\x85", "\xa0", "\u2028"]


@st.composite
def _kb_line(draw, earlier):
    """A KB line: a drawn signature (ground, wildcard, `(?)`, EquivIn or
    UNK-headed), a repeat of an earlier one or a conflicting variant of
    it, maybe with its language upper-cased, respaced or broken."""
    kind = draw(st.sampled_from(
        ["ground"] * 8 + ["again"] * 3 + ["any", "unk", "conflict"]
    ))
    if kind in ("again", "conflict") and earlier:
        sig = draw(st.sampled_from(earlier))
        if kind == "conflict" and sig.params and draw(st.booleans()):
            sig = sig._replace(vararg=not sig.vararg)
        elif kind == "conflict":
            ret = Const("y" if sig.ret == Const("x") else "x")
            sig = sig._replace(ret=ret)
    elif kind == "any":
        sig = draw(signatures())
    else:
        sig = draw(ground_signatures)
        if kind == "unk":
            sig = sig._replace(head=UNK)
    if isinstance(sig.lang, Const):
        earlier.append(sig)
        if draw(st.booleans()):
            sig = sig._replace(lang=Const(sig.lang.token.upper()))
    text = print_signature(sig)
    if draw(st.booleans()):  # whitespace around the punctuation, none inside a token
        space = st.sampled_from(["", " ", "  ", "\t", *_ODD_SPACES])
        text = _PUNCT.sub(lambda m: draw(space) + m.group() + draw(space), text)
        between = draw(st.sampled_from([" ", " \t ", *_ODD_SPACES]))
        text = draw(space) + text.replace(" ", between) + draw(space)
    if draw(st.integers(0, 19)) == 0:  # a character dropped or put in
        i = draw(st.integers(0, len(text)))
        text = text[:i] + draw(st.sampled_from(["", ":", "(", ",", "?", " x"])) + text[i + 1:]
    return text


@st.composite
def _kb_text(draw):
    """KB lines, blank and whitespace-only ones among them, each ended by
    `\\n`, `\\r\\n` or `\\r`, the last maybe by none."""
    earlier, text, end = [], "", ""
    blank = st.sampled_from(["", " ", "\t", *_ODD_SPACES])
    for _ in range(draw(st.integers(1, 8))):
        line = draw(_kb_line(earlier)) if draw(st.integers(0, 3)) else draw(blank)
        end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
        text += line + end
    return text[:-len(end)] if draw(st.booleans()) else text


@settings(max_examples=100, deadline=None)
@given(_kb_text())
def test_the_row_reader_loads_as_the_library_does(text):
    assert _loaded(load_kb, text) == _loaded(_reference_load, text)


@st.composite
def _ground_kb_lines(draw):
    """KB lines of ground signatures, some repeated, in any order, each
    language tag as drawn, upper-cased or with its case swapped."""
    lines = [print_signature(s) for s in draw(st.lists(ground_signatures, min_size=1, max_size=6))]
    lines += draw(st.lists(st.sampled_from(lines), max_size=4))
    case = st.sampled_from([str, str.upper, str.swapcase])
    return [
        draw(case)(tag) + " " + rest
        for tag, rest in (line.split(" ", 1) for line in draw(st.permutations(lines)))
    ]


def _counted(store):
    return len(store), store._shared, dump_facts(store)


@settings(max_examples=100, deadline=None)
@given(_ground_kb_lines(), _ground_kb_lines())
def test_a_loaded_kb_counts_what_line_by_line_ingest_counts(lines, batch):
    import tempfile

    from siglogic.kb import _derived_facts
    from siglogic.logic import print_atom
    from siglogic.normalizer import Dialect, normalize

    text = "".join(line + "\n" for line in lines)
    try:
        built = _reference_load(text, "kb.txt")
    except LineError as e:  # two bodies under one key, tags aside
        with pytest.raises(LineError) as raised:
            load_kb(text, "kb.txt")
        assert str(raised.value) == str(e)
        return
    loaded = load_kb(text, "kb.txt")
    assert _counted(loaded) == _counted(built)
    # and both print what the oracle derives from the rows, a fact a line
    facts = sorted({print_atom(a) for a in _derived_facts(loaded)})
    assert dump_facts(loaded) == facts and len(loaded) == len(facts)

    # ingest onto the loaded KB counts the facts each new line adds
    new_facts, error = 0, None
    for lineno, line in enumerate(batch, start=1):
        try:
            new_facts += ingest_signature(built, normalize(line, Dialect.NORMALIZED))
        except ValueError as e:
            error = "<stdin>:%d: %s\n" % (lineno, e)
            break
    with tempfile.TemporaryDirectory() as tmp:
        kb_file = os.path.join(tmp, "kb.txt")
        with open(kb_file, "w", encoding="utf-8") as fh:
            fh.write(text)
        code, out, err = _run(["ingest", "--kb", kb_file], "".join(l + "\n" for l in batch))
        if error is not None:
            assert (code, out, err) == (1, "", error)
            return
        assert (code, err) == (0, "")
        assert out == "ingested %d signatures, %d new facts\n" % (len(batch), new_facts)
        with open(kb_file, encoding="utf-8") as fh:
            assert _counted(load_kb(fh.read(), kb_file)) == _counted(built)

    # a repeat differing in its return, after a blank line, fails at its own line
    conflict = re.sub(r"\S+$", lambda m: m[0] + "x", lines[0])
    with pytest.raises(LineError, match=re.escape(
            "kb.txt:%d: differing signature already stored for " % (len(lines) + 2))):
        load_kb(text + "\n" + conflict + "\n", "kb.txt")


def _reference_key(text):
    """A links key checked field by field as written, then its language
    lowercased."""
    from siglogic.model import FunctionKey, lang_token

    fields = text.split("|")
    if len(fields) != 5:
        raise ValueError("expected `lang|ns|class|name|arity`")
    lang, namespace, class_name, name, arity = fields
    if not (arity.isascii() and arity.isdigit()):
        raise ValueError("invalid arity %r" % arity)
    key = FunctionKey(lang, namespace, class_name, name, int(arity))
    return key._replace(lang=lang_token(lang))


def _reference_links(text, path="<links>"):
    """A links text read line by line: two tab-separated keys a line."""
    from siglogic import cli
    from siglogic.kb import EquivStore

    eqs = EquivStore()
    for lineno, line in cli._lines(text):
        try:
            halves = line.split("\t")
            if len(halves) != 2:
                raise ValueError("expected two tab-separated keys")
            eqs.add_eq(*map(_reference_key, halves))
        except ValueError as e:
            raise LineError(path, lineno, str(e))
    return eqs


def _mostly(good, other):
    """good 49 draws in 50, else other."""
    return st.integers(0, 49).flatmap(lambda n: good if n else other)


_link_field = _mostly(
    st.sampled_from(["java", "JAVA", "Php", "UNK", "unk", "ns0", "C1", "f$2", "a.b'-c"]),
    st.text(alphabet="aZ09._$'-+ |\t", max_size=5),
)
_link_arity = _mostly(
    st.sampled_from(["0", "2", "07", "12"]),
    st.text(alphabet="0123456789+_ -a", max_size=3),
)
_link_key = st.builds(
    lambda fields, arity: "|".join(fields + [arity]),
    _mostly(st.lists(_link_field, min_size=4, max_size=4),
            st.lists(_link_field, min_size=3, max_size=5)),
    _link_arity,
)
_links_line = _mostly(
    st.lists(_link_key, min_size=2, max_size=2).map("\t".join)
    | st.sampled_from(["", "", " \t "]),
    st.lists(_link_key, min_size=1, max_size=3).map("\t".join),
)


@st.composite
def _links_text(draw):
    """Links lines, near the key grammar or not, each ended by `\\n`,
    `\\r\\n` or `\\r`, the last maybe by none."""
    text, end = "", ""
    for _ in range(draw(st.integers(1, 8))):
        end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
        text += draw(_links_line) + end
    return text[:-len(end)] if draw(st.booleans()) else text


def _links_read(load, path, text):
    """Each linked key's class, or the load's `path:line:` diagnostic."""
    try:
        eqs = load(text, path)
    except LineError as e:
        return str(e)
    return {key: eqs.class_of(key) for key in eqs._class}


@settings(max_examples=200, deadline=None)
@given(_links_text())
def test_the_one_pass_links_reader_reads_as_the_line_reader_does(text):
    import tempfile

    from siglogic import cli

    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "links.txt")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        got = _links_read(lambda _, p: load_links(cli._read(p), p), path, text)
    assert got == _links_read(_reference_links, path, text)
