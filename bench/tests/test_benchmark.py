"""Tests of the benchmark itself: python3 -m pytest bench/tests"""

import json
import sys
from pathlib import Path
from random import Random

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import corpus  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
from tracer import PER_LAYER  # noqa: E402

import siglogic as sl  # noqa: E402


def test_generator_is_deterministic_per_seed():
    def build(seed):
        rng = Random(seed)
        fns = corpus.gen_functions(rng, 300)
        groups = corpus.gen_groups(rng, fns)
        raw = [corpus.raw_fn(fn) for fn in corpus.gen_raw_functions(rng, 90)]
        return fns, groups, raw

    assert build(7) == build(7)
    assert build(7) != build(8)
    fns, groups, _ = build(7)
    assert len({fn.key for fn in fns}) == len(fns) == 300
    assert {fn.lang for fn in fns} == set(corpus.LANGS)
    assert {len(fn.params) for fn in fns} == {0, 1, 2, 3, 4}
    assert any(fn.vararg for fn in fns) and any(fn.ret == "UNK" for fn in fns)
    members = [fn for g in groups for fn in g]
    assert len(members) == len(set(members))
    assert all(len({fn.lang for fn in g}) == len(g) >= 2 for g in groups)


def test_raw_lines_normalize_to_the_generated_signature():
    for fn in corpus.gen_raw_functions(Random(3), 150):
        dialect, lang, raw = corpus.raw_fn(fn).split("\t")
        sig = sl.normalize(raw, sl.Dialect(dialect), lang)
        assert sl.print_signature(sig) == fn.text


@pytest.fixture(scope="module")
def small_kb():
    rng = Random(11)
    fns = corpus.gen_functions(rng, 160)
    groups = corpus.gen_groups(rng, fns)
    store, eqs = sl.FactStore(), sl.EquivStore()
    for fn in fns:
        sl.ingest_signature(store, sl.parse_signature(fn.text))
    for g in groups:
        for m in g[1:]:
            eqs.add_eq(sl.FunctionKey(*g[0].key), sl.FunctionKey(*m.key))
    return rng, fns, groups, store, eqs


def _as_set(bindings):
    return {(run.key_tuple(b.key), b.items) for b in bindings}


def test_oracle_agrees_with_brute_force_answer(small_kb):
    rng, fns, _, store, _ = small_kb
    queries = corpus.gen_point_pool(rng, fns, 20) + list(corpus.SCAN_QUERIES) + list(corpus.JOIN_QUERIES)
    nonempty = 0
    for q in queries:
        expected = oracle.expected_answer(q, fns)
        assert expected == _as_set(sl.brute_force_answer(store, sl.parse_signature(q))), q
        nonempty += bool(expected)
    assert nonempty > len(queries) // 2
    assert oracle.fact_count(fns) == len(store)


def test_oracle_equiv_agrees_with_answer_equiv(small_kb):
    rng, fns, groups, store, eqs = small_kb
    by_group = oracle.group_index(groups)
    for q in corpus.gen_equiv_pool(rng, groups, 20):
        expected = oracle.expected_equiv(q, fns, by_group)
        assert expected
        assert expected == _as_set(sl.answer_equiv(store, eqs, sl.parse_signature(q))), q


def _spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_names_match_the_code():
    spec = _spec()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(PER_LAYER)


SMALL = {"query_mix": 120, "cli_roundtrip": 120, "ingest_raw": 60}


@pytest.mark.parametrize("name", list(run.WORKLOADS))
def test_smoke_run(name, tmp_path, capsys):
    wl = run.WORKLOADS[name](1, tmp_path, n_functions=SMALL[name])
    result = json.loads(run.measure(wl, 0.01))
    assert result["correct"] and result["attempted"] > 0
    units = {m["name"]: m["unit"] for m in _spec()["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("name", list(run.WORKLOADS))
def test_traced_counts_repeat_exactly(name, tmp_path, capsys):
    counts = []
    for attempt in range(2):
        workdir = tmp_path / str(attempt)
        workdir.mkdir()
        wl = run.WORKLOADS[name](2, workdir, n_functions=SMALL[name])
        result = json.loads(run.measure_traced(wl, 2, out_dir=tmp_path))
        assert result["correct"]
        assert set(result["metrics"]) == {m for m, _, _ in PER_LAYER}
        counts.append({k: v["value"] for k, v in result["metrics"].items() if v["unit"] != "s"})
    assert counts[0] == counts[1]
    assert counts[0]["cli.run.calls" if name != "query_mix" else "kb.answer.calls"] > 0


@pytest.mark.parametrize("name", list(run.WORKLOADS))
def test_request_counts_do_not_depend_on_run_length(name, tmp_path, capsys):
    counts = []
    for seconds in (0.01, 1.0):
        workdir = tmp_path / str(seconds)
        workdir.mkdir()
        wl = run.WORKLOADS[name](3, workdir, n_functions=SMALL[name])
        result = json.loads(run.measure(wl, seconds))
        counts.append((result["attempted"], result["failed"]))
    assert counts[0] == counts[1]
