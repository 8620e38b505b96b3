"""Expected results, worked out from the generated corpus alone.

A small slot matcher answers the benchmark's queries over `corpus.Fn`
records, the generator's equivalence groups answer `EquivIn`, and the
fact schema (8 + 3n atoms per function, namespace and class atoms shared)
gives the fact count.  Nothing here imports siglogic.
"""

from __future__ import annotations

import re
from collections import Counter

_QUERY = re.compile(r"^(\S+) (\S+) (\S+)::(.+)\((.*)\) -> (\S+)$")
_EQUIV_HEAD = re.compile(r"^EquivIn\((\S+),(\S+)\)$")


def _slot(text):
    """('label', name) for a wildcard, ('tok', token) otherwise; UNK is a token."""
    return ("label", text[:-1]) if text.endswith("?") else ("tok", text)


def parse_query(text):
    """A query as slot tuples: (lang, ns, cls, name, params, mode, ret).

    mode is 'any' for `(?)`, 'min' for a trailing `,...`, else 'exact'.
    """
    lang, ns, cls, name, params, ret = _QUERY.match(text).groups()
    if params == "?":
        mode, plist = "any", []
    else:
        items = params.split(",") if params else []
        mode = "min" if items and items[-1] == "..." else "exact"
        plist = [tuple(_slot(s) for s in p.split(":")) for p in items if p != "..."]
    return (_slot(lang), _slot(ns), _slot(cls), _slot(name), plist, mode, _slot(ret))


def _bind(slot, token, binds):
    kind, value = slot
    if kind == "tok":
        return binds if value == token else None
    bound = binds.get(value)
    if bound is None:
        binds = dict(binds)
        binds[value] = token
        return binds
    return binds if bound == token else None


def match(query, fn):
    """Wildcard bindings of a parsed query against fn, or None."""
    lang, ns, cls, name, plist, mode, ret = query
    arity = len(fn.params)
    if mode == "exact" and arity != len(plist):
        return None
    if mode == "min" and arity < len(plist):
        return None
    pairs = [(lang, fn.lang), (ns, fn.ns), (cls, fn.cls), (name, fn.name), (ret, fn.ret)]
    for (qt, qn), (t, n) in zip(plist, fn.params):
        pairs += [(qt, t), (qn, n)]
    binds = {}
    for slot, token in pairs:
        binds = _bind(slot, token, binds)
        if binds is None:
            return None
    return binds


def _result(fn, binds):
    return (fn.key, tuple(sorted(binds.items())))


def expected_answer(text, fns):
    """{(key, sorted (label, token) pairs)} for a plain-head query."""
    query = parse_query(text)
    results = set()
    for fn in fns:
        binds = match(query, fn)
        if binds is not None:
            results.add(_result(fn, binds))
    return results


def group_index(groups):
    """key -> the functions equivalent to it, itself included."""
    index = {}
    for group in groups:
        for fn in group:
            index[fn.key] = group
    return index


def expected_equiv(text, fns, groups_by_key):
    """Results of an `EquivIn(base,target)` query from the generator's groups."""
    lang, ns, cls, head, plist, mode, ret = parse_query(text)
    base, target = _EQUIV_HEAD.match(head[1]).groups()
    query = (lang, ns, cls, ("tok", base), plist, mode, ret)
    results = set()
    for source in fns:
        binds = match(query, source)
        if binds is None:
            continue
        for member in groups_by_key.get(source.key, (source,)):
            if member.lang != target.lower():
                continue
            mapping = dict(binds)
            mapping.update({"f'": member.name, "N": member.ns, "C": member.cls, "r": member.ret})
            results.add(_result(member, mapping))
    return results


def expected_records(results, by_key):
    """What `siglogic query|equiv` prints for `results`, as a multiset of
    (signature line, sorted label=value pairs)."""
    return Counter((by_key[key].text, items) for key, items in results)


def parse_cli_results(text, porcelain):
    """The multiset of records in `siglogic query|equiv` output."""
    if text == "0 results\n":
        return Counter()
    if porcelain:
        blocks = [line.split("\t") for line in text.splitlines()]
    else:
        blocks = [block.split("\n") for block in text.strip("\n").split("\n\n")]
    return Counter(
        (block[0], tuple(sorted(tuple(kv.split("=", 1)) for kv in block[1:])))
        for block in blocks
    )


def drop_vararg(records):
    """records as the seed prints them: the `,...` of vararg rows is lost."""
    return Counter({(line.replace(",...)", ")"), items): n for (line, items), n in records.items()})


def fact_count(fns):
    """Distinct facts of a KB: 6 + 3n per function, plus one namespace atom
    per (lang, ns) and one class atom per (lang, ns, cls)."""
    return (
        sum(6 + 3 * len(fn.params) for fn in fns)
        + len({(fn.lang, fn.ns) for fn in fns})
        + len({(fn.lang, fn.ns, fn.cls) for fn in fns})
    )


def new_facts(fn, seen_ns, seen_cls):
    """Facts that ingesting a new function adds; updates the seen sets."""
    added = 6 + 3 * len(fn.params)
    for seen, key in ((seen_ns, (fn.lang, fn.ns)), (seen_cls, (fn.lang, fn.ns, fn.cls))):
        if key not in seen:
            seen.add(key)
            added += 1
    return added
