"""Seeded generator of the benchmark's inputs.

Everything the program under test receives is made here from a seed: a
normalized signature corpus, cross-language equivalence groups, query
pools for each query shape, and a raw java/python/php tab corpus.  The
generator never imports siglogic, so the expectations derived from its
output are independent of the code being measured.
"""

from __future__ import annotations

from dataclasses import dataclass

LANGS = ("java", "python", "php", "haskell", "ruby", "js", "csharp", "go")
TYPES = ("int", "long", "double", "bool", "string", "bytes", "list", "map", "object")
PARAM_NAMES = ("a", "b", "c", "x", "y", "n", "key", "value", "items", "text", "flag", "other")

FUNCS_PER_CLASS = 8  # real API docs group a handful of methods per class
CLASSES_PER_NS = 4
UNK_SHARE = 0.15  # share of parameter types and returns that are UNK
VARARG_SHARE = 0.1  # share of functions with at least one param that end in `,...`
OVERLOAD_SHARE = 0.1  # share of functions that overload the previous name in their class
ARITY_WEIGHTS = (10, 30, 30, 20, 10)  # arity 0..4
EQUIV_GROUP_SHARE = 0.1  # one equivalence group per ten functions


@dataclass(frozen=True)
class Fn:
    """One ground signature; `ret` and param types may be the token UNK."""

    lang: str
    ns: str
    cls: str
    name: str
    params: tuple  # ((type, name), ...)
    vararg: bool
    ret: str

    @property
    def key(self):
        return (self.lang, self.ns, self.cls, self.name, len(self.params))

    @property
    def text(self):
        params = ",".join("%s:%s" % p for p in self.params)
        if self.vararg:
            params += ",..."
        return "%s %s %s::%s(%s) -> %s" % (
            self.lang, self.ns, self.cls, self.name, params, self.ret,
        )


def _slot_type(rng):
    return "UNK" if rng.random() < UNK_SHARE else rng.choice(TYPES)


def _arity(rng):
    return rng.choices(range(len(ARITY_WEIGHTS)), ARITY_WEIGHTS)[0]


def _params(rng, arity):
    names = rng.sample(PARAM_NAMES, arity)
    return tuple((_slot_type(rng), n) for n in names)


def gen_functions(rng, n, langs=LANGS, flat=()):
    """n functions with unique keys, spread evenly over `langs`.

    Each language gets its own namespaces and classes, about
    FUNCS_PER_CLASS functions per class and CLASSES_PER_NS classes per
    namespace, so both grow with n.  A language in `flat` keeps every
    function in `core builtin`, as PHP docs do.
    """
    fns = []
    keys = set()
    names_pool = max(8, n // 4)
    for li, lang in enumerate(langs):
        count = n // len(langs) + (1 if li < n % len(langs) else 0)
        prev = None
        for i in range(count):
            if lang in flat:
                ns, cls = "core", "builtin"
            else:
                c = i // FUNCS_PER_CLASS
                ns, cls = "ns%d" % (c // CLASSES_PER_NS), "C%d" % c
            while True:
                overload = (
                    prev is not None and prev.cls == cls
                    and rng.random() < OVERLOAD_SHARE
                )
                name = prev.name if overload else "f%d" % rng.randrange(names_pool)
                arity = _arity(rng)
                if (lang, ns, cls, name, arity) not in keys:
                    break
            params = _params(rng, arity)
            vararg = arity > 0 and rng.random() < VARARG_SHARE
            fn = Fn(lang, ns, cls, name, params, vararg, _slot_type(rng))
            keys.add(fn.key)
            fns.append(fn)
            prev = fn
    return fns


def gen_groups(rng, fns):
    """Disjoint cross-language equivalence groups of 2-4 functions."""
    by_lang = {}
    for fn in fns:
        by_lang.setdefault(fn.lang, []).append(fn)
    for pool in by_lang.values():
        rng.shuffle(pool)
    groups = []
    for _ in range(int(len(fns) * EQUIV_GROUP_SHARE)):
        langs = [l for l in by_lang if by_lang[l]]
        if len(langs) < 2:
            break
        size = min(len(langs), rng.randint(2, 4))
        groups.append(tuple(by_lang[l].pop() for l in rng.sample(langs, size)))
    return groups


def link_lines(groups):
    """Links-file lines: each member after the first linked to the first."""

    def key_text(fn):
        return "|".join(str(part) for part in fn.key)

    return [
        "%s\t%s" % (key_text(g[0]), key_text(m)) for g in groups for m in g[1:]
    ]


# Query pools.  Shapes with a seed-independent cost mix (scan, join) use
# a fixed list of forms so every seed puts the same work in a round.


def point_query(fn):
    return "%s %s %s::%s(?) -> r?" % (fn.lang, fn.ns, fn.cls, fn.name)


SCAN_QUERIES = tuple("l? N? C?::f?(?) -> %s" % t for t in TYPES + ("UNK",))

JOIN_QUERIES = (
    "l? N? C?::f?(t?:p1?) -> t?",
    "l? N? C?::f?(t?:p1?,t?:p2?) -> t?",
    "l? N? C?::f?(t?:p1?,u?:p2?,t?:p3?) -> u?",
    "l? N? C?::f?(t?:p1?,...) -> t?",
    "l? N? C?::f?(t?:p1?,t?:p2?,...) -> UNK",
)


def equiv_query(source, target_lang):
    return "%s %s %s::EquivIn(%s,%s)(?) -> s?" % (
        source.lang, source.ns, source.cls, source.name, target_lang,
    )


def gen_point_pool(rng, fns, size):
    return [point_query(fn) for fn in rng.sample(fns, size)]


def gen_equiv_pool(rng, groups, size):
    pool = []
    for _ in range(size):
        group = rng.choice(groups)
        source, target = rng.sample(group, 2)
        pool.append(equiv_query(source, target.lang))
    return pool


# Raw documentation-style lines for the ingest path.

RAW_LANGS = ("java", "python", "php")


def raw_fn(fn):
    """A raw `dialect<TAB>lang<TAB>text` line that normalizes to `fn`.

    Only functions that the dialect can express are passed in: python
    has no types, php has no namespace or class.
    """
    if fn.lang == "java":
        params = ["%s %s" % p if p[0] != "UNK" else p[1] for p in fn.params]
        if fn.vararg:
            params.append("..")
        head = "%s %s %s %s" % (fn.ns, fn.cls, fn.ret, fn.name)
        return "java\tjava\t%s(%s)" % (head, ", ".join(params))
    if fn.lang == "python":
        params = [p[1] for p in fn.params] + (["..."] if fn.vararg else [])
        return "python\tpython\t%s %s %s(%s)" % (fn.ns, fn.cls, fn.name, " ".join(params))
    params = ["%s $%s" % p if p[0] != "UNK" else "$" + p[1] for p in fn.params]
    if fn.vararg:
        params.append("..")
    head = fn.name if fn.ret == "UNK" else "%s %s" % (fn.ret, fn.name)
    return "php\tphp\t%s(%s)" % (head, ", ".join(params))


def gen_raw_functions(rng, n):
    """n functions in java, python and php that the raw dialects can express."""
    fns = []
    for fn in gen_functions(rng, n, RAW_LANGS, flat=("php",)):
        if fn.lang == "java" and fn.ret == "UNK":
            fn = Fn(fn.lang, fn.ns, fn.cls, fn.name, fn.params, fn.vararg, rng.choice(TYPES))
        if fn.lang == "python":
            params = tuple(("UNK", p[1]) for p in fn.params)
            fn = Fn(fn.lang, fn.ns, fn.cls, fn.name, params, fn.vararg, "UNK")
        fns.append(fn)
    return fns


def conflicting(rng, fn):
    """Same FunctionKey as `fn` (a java or php function), another return type."""
    ret = rng.choice([t for t in TYPES if t != fn.ret])
    return Fn(fn.lang, fn.ns, fn.cls, fn.name, fn.params, fn.vararg, ret)
