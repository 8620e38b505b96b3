"""Ground-fact knowledge base and conjunctive query answering.

The store is a table of the ingested functions by FunctionKey, each a
flat row of token strings shared per load, `(lang, namespace, class,
name, ret, t1, n1, …, tn, nn, vararg)` (`model.signature_row`); the KB
text stays the only store of record.  A load (`load_kb`) reads each
ground KB line into its row (`dsl.read_rows`) and counts its facts once
from its keys (`_count_facts`), and `load_links` reads a links text into
an EquivStore; `dump_snapshot` and `load_snapshot` turn a loaded store
into bytes and back, checked against the digest of the KB's bytes
(`kb_digest`); the CLI reads the files, calls these and prints a stored
function from its row (`dsl.print_row`, through `FactStore.rows`); a
Signature is built again (`reconstruct_signature`) only for a library
caller and the oracle.  Facts are derived on demand:
a row's atom layout (`logic.signature_atoms`, which `compile_signature`
lays out over binders) is laid out over witnesses.  `dump_facts` lays
it out once per row length and call, over template fields with
`call_text` and `str` as builders, into `%`-templates of the printed
lines: a row's own facts per row, the namespace and class facts they
share once per identity the store keeps; the oracle path (`FactStore.facts`,
`brute_force_answer`) passes `Const`s and builds `Atom`s.  A witness is
a plain string derived from the function's identity (a `str` never
equals a `Const`, so a witness cannot pass for a token).  Namespace
witnesses are shared across functions of the same (lang, namespace);
class witnesses across (lang, namespace, class).  Queries are
signatures with wildcards.  Each is read once into a matcher
(`_matcher`), run over the rows, that checks a stored row's length,
its arity, and the query's constant slots (row position i is query slot
i) before it reads any label, and returns the label pairs sorted, so a
result `Binding` is one tuple built as is; a query with a constant name,
or else a constant ret, reads only that slot's posting list, and one with
neither but an exact parameter list only the rows of its length.  The
backtracking unifier of the query's compiled atoms against the facts is
kept as the oracle, `brute_force_answer`.
"""

from __future__ import annotations

import marshal
import re
import sys
from collections import defaultdict, namedtuple
from functools import partial
from math import inf
from operator import attrgetter, itemgetter
from types import MappingProxyType

try:
    from _blake2 import blake2b as _hash  # hashlib would load OpenSSL, 3.6 MB more per process
except ImportError:  # an interpreter built without it, whose hashlib lacks blake2b too
    from hashlib import sha256 as _hash

from . import __version__
from .dsl import lines_re, read_rows
from .logic import (
    App,
    Formula,
    LogicError,
    Term,
    UnsupportedHead,
    Var,
    call_text,
    compile_signature,
    expand_equiv,
    signature_atoms,
)
from .model import (
    KEY_TEXT,
    Const,
    EquivIn,
    FunctionKey,
    Param,
    Signature,
    Wildcard,
    function_key,
    ground_slot,
    lang_token,
    signature_row,
    unchecked_key,
    wildcard_labels,
)
from .normalizer import Dialect, normalize


class SourceNotFound(LookupError):
    """An EquivIn query's base pattern matched no ingested function."""


class KeyConflict(ValueError):
    """A differing signature is already stored under the same FunctionKey.

    Keys are the store's identity: witnesses are derived from them, so two
    bodies under one key would merge their facts and make answers depend
    on which body is asked about.
    """


INPUT_ERRORS = (ValueError, SourceNotFound)  # all siglogic input errors


class LineError(Exception):
    """An input error at a line of a text, as `path:line: message`; its
    `path`, `lineno` and `message` are kept as attributes."""

    def __init__(self, path, lineno, message):
        super().__init__("%s:%d: %s" % (path, lineno, message))
        self.path, self.lineno, self.message = path, lineno, message

    def __reduce__(self):  # else unpickling calls it with the text alone
        return LineError, (self.path, self.lineno, self.message)


def fn_skolem(key: FunctionKey) -> str:
    return "fn:" + key.text


def ret_skolem(key: FunctionKey) -> str:
    return "ret:" + key.text


def param_skolem(key: FunctionKey, position: int) -> str:
    return "par:%s|%d" % (key.text, position)


def ns_skolem(lang: str, namespace: str) -> str:
    return "ns:%s|%s" % (lang, namespace)


def cls_skolem(lang: str, namespace: str, class_name: str) -> str:
    return "cls:%s|%s|%s" % (lang, namespace, class_name)


class Binding(namedtuple("Binding", "key items")):
    """One query answer: the matched function's key and its wildcard
    assignments, `(label, token)` pairs sorted by label.

    It equals, hashes and orders like its tuple `(key, items)`.  Building
    one sorts `items`; `_binding` builds one as is, for pairs already
    sorted.
    `binding[label]` reads a label's token, an int index a field.
    """

    __slots__ = ()

    def __new__(cls, key, items=()):
        return super().__new__(cls, key, tuple(sorted(items)))

    @property
    def mapping(self) -> dict:
        return dict(self.items)

    def __getitem__(self, at):
        return self.mapping[at] if isinstance(at, str) else tuple.__getitem__(self, at)


# `Binding._make` without its Python-level call, for pairs already sorted
_binding = partial(tuple.__new__, Binding)


class FactStore:
    """Ingested functions by FunctionKey, each a flat row of token strings
    `(lang, namespace, class, name, ret, t1, n1, …, tn, nn, vararg)`, one
    string per distinct token of one load; their facts are derived on demand.

    `keys` and `rows` are live read-only views of the table, in storing
    order: its keys, and each key's row.  Besides the table the store keeps
    a running count of the facts and the (lang, namespace) and (lang,
    namespace, class) identities seen: their namespace and class atoms are
    the only facts functions share.  Its posting lists, `(key, row)` pairs
    by their name token, their ret token or their row's length, are built
    by `answer` on first use and all dropped by a new row.
    """

    def __init__(self):
        self._rows = {}
        self.keys, self.rows = self._rows.keys(), MappingProxyType(self._rows)
        self._shared = set()
        self._size = 0
        # 3 (name) or 4 (ret) -> {token: [items]}; len -> {row length: [items]}
        self._index = {}

    def __len__(self):
        return self._size

    def facts(self, pred: str, first: Term = None):
        """The derived facts with predicate `pred` (and first arg `first`)."""
        return frozenset(
            atom for atom in _derived_facts(self)
            if atom.pred == pred and (first is None or atom.args[0] == first)
        )


def _skolemize(key: FunctionKey, row, **build):
    """The ground atoms of one stored function, from its row of terms.

    They are the shared atom layout (`signature_atoms`, which
    `compile_signature` lays out over binders) over its witnesses; `build`
    passes on that layout's builders.
    """
    return signature_atoms(
        row,
        ret_skolem(key),
        fn_skolem(key),
        ns_skolem(*key[:2]),
        cls_skolem(*key[:3]),
        tuple(param_skolem(key, j) for j in range(1, key.arity + 1)),
        **build,
    )


def _derived_facts(store: FactStore) -> set:
    # each function's terms as compile_signature reads them: Consts
    return {
        atom for key in store.keys
        for atom in _skolemize(key, signature_row(reconstruct_signature(store, key)))
    }


_token = attrgetter("token")


def ingest_signature(store: FactStore, sig: Signature) -> int:
    """Store a ground signature as a row of its tokens, compiling nothing;
    returns how many facts it adds (`_count_facts`).

    Re-ingesting the identical row adds nothing; any other row under a
    stored key, even one differing only in the vararg flag, raises
    KeyConflict, and a signature that is not ground NotGround.
    """
    key, row = _keyed_row(sig)
    stored = store._rows.setdefault(key, row)
    if stored is not row:  # stored before: only the identical row adds nothing
        if stored != row:
            raise _key_conflict(key)
        return 0
    store._index.clear()
    return _count_facts(store, (key,))


def _keyed_row(sig: Signature) -> tuple:
    """A ground signature's key and token row; else it raises NotGround."""
    return function_key(sig), signature_row(sig, _token)


def _key_conflict(key: FunctionKey) -> KeyConflict:  # a differing row under key
    return KeyConflict("differing signature already stored for %s" % key.text)


_NAMESPACE, _CLASS, _ARITY = itemgetter(slice(2)), itemgetter(slice(3)), itemgetter(4)


def _count_facts(store: FactStore, keys) -> int:
    """Count the newly stored `keys` into the store's facts; returns how
    many they add: 6 + 3n each for n params, plus a namespace and a class
    atom for each (lang, namespace) and (lang, namespace, class) new to it.
    """
    shared = store._shared
    seen = len(shared)
    shared.update(map(_NAMESPACE, keys))
    shared.update(map(_CLASS, keys))
    added = 6 * len(keys) + 3 * sum(map(_ARITY, keys)) + len(shared) - seen
    store._size += added
    return added


def load_kb(text: str, path: str = "<kb>") -> FactStore:
    """The store of a KB text: each line's row (`dsl.read_rows`) stored
    under its key, a repeat once, and then the facts of all its keys
    counted at once (`_count_facts`).  A line that is not ground, or that
    differs from the row stored under its key, raises LineError."""
    store = FactStore()
    put = store._rows.setdefault
    for lineno, key, row in read_rows(text):
        try:
            if key is None:  # row is the line's text, not ground; normalize says why
                key, row = _keyed_row(normalize(row, Dialect.NORMALIZED))
            if put(key, row) != row:
                raise _key_conflict(key)
        except INPUT_ERRORS as e:
            raise LineError(path, lineno, str(e))
    _count_facts(store, store.keys)
    return store


# A row snapshot's first bytes; the header in its blob names the format
# and what wrote it.
SNAPSHOT_MAGIC = b"\0siglogic rows\n"
_SNAPSHOT_HEADER = (
    "siglogic rows", 2, __version__, sys.version_info[:2], marshal.version,
)
_DIGEST = len(SNAPSHOT_MAGIC) + 16  # the digest's end, the blob's start


def kb_digest(data: bytes) -> bytes:
    """The 16-byte blake2b digest (sha256 where Python lacks blake2b) of the
    KB bytes `data`, which names their row snapshot: a caller need not
    keep the bytes to write one."""
    return _hash(data).digest()[:16]


def _snapshot_digest(digest: bytes, blob) -> bytes:
    outer = _hash(digest)
    outer.update(blob)
    return outer.digest()[:16]


def dump_snapshot(store: FactStore, digest: bytes) -> tuple:
    """The row snapshot of a store loaded from, or written as, the KB bytes
    of `digest` (`kb_digest`), as two parts to be written in turn (joining
    them would copy the blob): `SNAPSHOT_MAGIC` and a 16-byte blake2b
    digest of `digest` and the blob, then one `marshal` blob of a header
    and the rows.  `marshal` keeps object identity within a blob, so the
    rows share their tokens as a text load's do."""
    blob = marshal.dumps((_SNAPSHOT_HEADER, tuple(store._rows.values())))
    return SNAPSHOT_MAGIC + _snapshot_digest(digest, blob), blob


def load_snapshot(snapshot: bytes, digest: bytes) -> FactStore | None:
    """The store of a row snapshot (`dump_snapshot`, its parts joined) of
    the KB bytes of `digest` (`kb_digest`), equal to `load_kb`'s of their
    text; None when it is no snapshot of them or of this format, siglogic
    and Python.

    The digest is checked before the blob is decoded: `marshal` may crash
    the process on bytes it did not write, and a changed byte anywhere
    changes the digest.  Only the rows are read from the blob: each key
    and the facts are derived from them as `load_kb` derives them."""
    blob = memoryview(snapshot)[_DIGEST:]
    if (not snapshot.startswith(SNAPSHOT_MAGIC)
            or snapshot[len(SNAPSHOT_MAGIC):_DIGEST] != _snapshot_digest(digest, blob)):
        return None
    try:
        header, rows = marshal.loads(blob)
    except (EOFError, ValueError, TypeError):  # another Python's blob, say
        return None
    finally:
        del snapshot, blob  # freed here, before the keys are built, if passed on
    if header != _SNAPSHOT_HEADER:
        return None
    store = FactStore()
    # a row (lang, namespace, class, name, ret, t1, n1, …, tn, nn, vararg)
    # is 6 + 2n long; its key is read as dsl.read_rows reads it
    store._rows.update(
        {unchecked_key((*row[:4], (len(row) - 6) >> 1)): row for row in rows}
    )
    _count_facts(store, store.keys)
    return store


def reconstruct_signature(store: FactStore, key: FunctionKey) -> Signature:
    """The signature ingested under `key`, exactly as it was ingested."""
    row = store._rows[key]
    lang, namespace, class_name, name, ret = map(ground_slot, row[:5])
    terms = map(ground_slot, row[5:-1])  # read twice: each (type, name) one Param
    params = tuple(map(Param, terms, terms))
    return Signature(lang, namespace, class_name, name, params, vararg=row[-1], ret=ret)


class EquivStore:
    """Cross-language `eq` knowledge: classes of equivalent FunctionKeys.

    Each linked key maps to the one list of its class's members, shared by
    every member; `add_eq` moves the smaller class into the larger (union
    by size), so a key moves O(log n) times.  A key never linked is a
    class of its own and is not stored; reads store nothing.
    """

    def __init__(self):
        self._class = {}  # linked key -> the shared list of its class

    def add_eq(self, a: FunctionKey, b: FunctionKey):
        big = self._class.setdefault(a, [a])
        small = self._class.setdefault(b, [b])
        if big is small:
            return
        if len(big) < len(small):
            big, small = small, big
        big += small
        for key in small:
            self._class[key] = big

    def equivalent(self, a: FunctionKey, b: FunctionKey) -> bool:
        members = self._class.get(a)
        return a == b or (members is not None and members is self._class.get(b))

    def class_of(self, key: FunctionKey) -> frozenset:
        return frozenset(self._class.get(key, (key,)))


_LINKS_LINE = KEY_TEXT + r"\t" + KEY_TEXT  # two well-formed keys


def load_links(text: str, path: str = "<links>") -> EquivStore:
    """The links of a links text, two tab-separated keys (`FunctionKey.text`)
    a line, read in one pass: a line of two well-formed keys is read by
    one match, and any other line that is not blank through
    `FunctionKey.parse`, which says what is wrong with it (a LineError)."""
    eqs = EquivStore()
    for lineno, m in enumerate(lines_re(_LINKS_LINE).finditer(text), start=1):
        fields = m.groups()
        if fields[0] is not None:
            eqs.add_eq(
                unchecked_key((lang_token(fields[0]), *fields[1:4], int(fields[4]))),
                unchecked_key((lang_token(fields[5]), *fields[6:9], int(fields[9]))),
            )
        elif m.group().strip():  # any other line that is not blank
            try:
                halves = m.group().rstrip("\r\n").split("\t")
                if len(halves) != 2:
                    raise ValueError("expected two tab-separated keys")
                eqs.add_eq(FunctionKey.parse(halves[0]), FunctionKey.parse(halves[1]))
            except INPUT_ERRORS as e:
                raise LineError(path, lineno, str(e))
    return eqs


def _unify(query: Term, fact: Term, binds: dict, formula: Formula):
    """Extend binds so query matches fact, or return None.

    App-vs-App respects the query's arity mode: exact by default, prefix
    for vararg queries, name-only when the parameter list is the `?`
    wildcard.
    """
    if isinstance(query, Var):
        bound = binds.get(query.name)
        if bound is None:
            binds = dict(binds)
            binds[query.name] = fact
            return binds
        return binds if bound == fact else None
    if isinstance(query, App):
        if not isinstance(fact, App):
            return None
        binds = _unify(query.fn, fact.fn, binds, formula)
        if binds is None:
            return None
        if formula.arity_unconstrained:
            return binds
        if formula.min_arity:
            if len(fact.args) < len(query.args):
                return None
        elif len(fact.args) != len(query.args):
            return None
        for q, f in zip(query.args, fact.args):
            binds = _unify(q, f, binds, formula)
            if binds is None:
                return None
        return binds
    return binds if query == fact else None


def answer(store: FactStore, query: Signature) -> set:
    """All bindings of the query's wildcards against the stored signatures.

    The query is read once into a matcher, which checks each stored
    row's length, then the query's constant slots, then its repeated
    labels, and returns the label pairs sorted, so each result is built
    as is (`_binding`).
    It runs over the posting list of the query's constant (UNK too) name,
    else of its constant ret, else, for an exact parameter list of k
    params, of the rows `6 + 2k` long, built on the first query that needs
    it; a `,...` or `(?)` query with neither constant reads every row.
    """
    if isinstance(query.head, EquivIn):
        raise UnsupportedHead("EquivIn queries go through answer_equiv")
    match = _matcher(query)
    rows = store._rows.items()
    exact = not (query.params_wildcard or query.vararg)
    for by, value in (
        (3, getattr(query.head, "token", None)),
        (4, getattr(query.ret, "token", None)),
        (len, 6 + 2 * len(query.params) if exact else None),
    ):
        if value is not None:
            postings = store._index.get(by)
            if postings is None:
                read = len if by is len else itemgetter(by)
                postings = store._index[by] = defaultdict(list)
                for item in rows:
                    postings[read(item[1])].append(item)
            rows = postings.get(value, ())
            break
    results = set()
    for key, row in rows:
        pairs = match(row)
        if pairs is not None:
            results.add(_binding((key, pairs)))
    return results


def brute_force_answer(store: FactStore, query: Signature) -> set:
    """Oracle for answer(): backtracking unification over the facts.

    The query's compiled atoms are unified, in compiler order, against the
    skolemized facts; function witnesses map back to keys at the end.
    """
    if isinstance(query.head, EquivIn):
        raise UnsupportedHead("EquivIn queries go through answer_equiv")
    formula = compile_signature(query)
    fn_var = formula.existentials[1]
    # (label, its variable): compile renames a label spelled like a constant
    label_vars = tuple(zip(wildcard_labels(query), formula.existentials[4:]))
    atoms = formula.atoms
    key_by_fn = {fn_skolem(key): key for key in store.keys}
    by_pred, by_pred_first = defaultdict(set), defaultdict(set)
    for fact in _derived_facts(store):
        by_pred[fact.pred].add(fact)
        by_pred_first[fact.pred, fact.args[0]].add(fact)
    results = set()

    def solve(i, binds):
        if i == len(atoms):
            fn = binds.get(fn_var)
            key = key_by_fn.get(fn)
            if key is None:
                return
            results.add(
                Binding(
                    key,
                    tuple(
                        (lbl, _ground_token(binds[x])) for lbl, x in label_vars
                    ),
                )
            )
            return
        atom = atoms[i]
        if atom.pred == "eq":
            # the value entity is the matched function's own return witness;
            # without this the join is loose for zero-arity functions
            fn = binds.get(fn_var)
            key = key_by_fn.get(fn)
            if key is None:
                return
            candidates = by_pred_first["eq", ret_skolem(key)]
        else:
            first = atom.args[0]
            if isinstance(first, Var):
                first = binds.get(first.name)
            candidates = (
                by_pred_first[atom.pred, first]
                if first is not None and not isinstance(first, App)
                else by_pred[atom.pred]
            )
        for fact in candidates:
            nb = binds
            for q, f in zip(atom.args, fact.args):
                nb = _unify(q, f, nb, formula)
                if nb is None:
                    break
            if nb is not None:
                solve(i + 1, nb)

    solve(0, {})
    return results


def _ground_token(term: Term) -> str:
    if isinstance(term, Const):
        return term.token
    raise LogicError("wildcard bound to a non-constant term: %r" % (term,))


def _matcher(query: Signature):
    """A function from a stored row to the query's `(label, token)` pairs
    against it, sorted by label, or None when it does not match.

    The query's slots are the stored layout's (`signature_row`), `(lang,
    namespace, class, name, ret, t1, n1, …, tk, nk, vararg)`, so slot i is
    read at row position i.  Each call checks the row's length (k or more
    parameters, or exactly k), compares its constant slots, read by one
    itemgetter, with the query's tokens as one tuple, checks that a
    repeated label reads equal values, and reads each label's first
    position, in label order, by another itemgetter.
    """
    slots = signature_row(query)
    least = len(slots)
    most = inf if query.params_wildcard or query.vararg else least
    consts, first, repeats = [], {}, []
    for i, s in enumerate(slots[:-1]):  # the last is the vararg flag
        if not isinstance(s, Wildcard):
            consts.append(i)
        elif first.setdefault(s.label, i) != i:
            repeats.append((first[s.label], i))
    labels = sorted(first)
    read_consts = _reader(consts)
    tokens = read_consts(tuple(getattr(s, "token", None) for s in slots))
    read_labels = _reader([first[label] for label in labels])

    def match(row):
        if not least <= len(row) <= most:
            return None
        if read_consts(row) != tokens:
            return None
        for i, j in repeats:
            if row[i] != row[j]:
                return None
        return tuple(zip(labels, read_labels(row)))

    return match


def _reader(positions):
    """An itemgetter of `positions` that returns a tuple for any number
    of them: a lone position is read twice (a zip with its one label stops
    after the first), and none reads an empty slice."""
    if len(positions) == 1:
        positions = positions * 2
    return itemgetter(*positions) if positions else itemgetter(slice(0))


def answer_equiv(facts: FactStore, eqs: EquivStore, query: Signature) -> set:
    """Each answer to the query's base joined with the answers to its
    target (`expand_equiv`) that the EquivStore holds equivalent to it."""
    base, target = expand_equiv(query)
    sources = answer(facts, base)
    if not sources:
        raise SourceNotFound(
            "no ingested function matches %r" % (query.head.base_name,)
        )
    match = _matcher(target)
    results = set()
    for source in sources:
        for member in eqs.class_of(source.key):
            row = facts._rows.get(member)
            if row is None:
                continue
            pairs = match(row)
            if pairs is not None:
                # the target's primed labels interleave the base's: sort again
                results.add(Binding(member, source.items + pairs))
    return results


def dump_facts(store: FactStore) -> list:
    """All facts as canonical text atoms, sorted; deterministic.

    Each row's own facts are printed from the `%`-template of its length
    (`_fact_templates`), built by the first such row of this call: one
    fill and one split a row.  The namespace and class facts functions
    share are printed once per identity in `store._shared`, not per row.
    """
    templates, lines = {}, []
    for key, row in store._rows.items():
        t = templates.get(len(row))
        if t is None:
            t = templates[len(row)] = _fact_templates(len(row))
        (own, read_own), shared = t
        lines += (own % read_own(row + (key.text,))).split("\n")
    # the shared templates read no parameter, so any row's are right, and
    # a store without rows has no identities
    for identity in store._shared:
        common, read_common = shared[len(identity)]
        lines.append(common % read_common(identity))
    lines.sort()
    return lines


class _KeyField(FunctionKey):
    """A key of template fields, its text the field `{-1}`, filled last."""

    __slots__ = ()
    text = "{-1}"


_FIELD = re.compile(r"\{(-?\d+)\}")


def _fact_templates(width: int) -> tuple:
    """The printed facts of a stored row `width` long as `%`-templates,
    each with the itemgetter of the values it is filled with: the
    function's own facts as lines joined by `\\n`, and the namespace and
    class facts it shares by the length (2, 3) of the identity they read.

    They are `_skolemize` laid out once over fields: `{i}` for row
    position i, which the key's first four fields are too, as a stored
    key's are its row's first four, and `{-1}` for the key's text.  The layout treats
    its terms as opaque strings, and no token holds `{`, `}`, `%` or a
    line break (`TOKEN_RE`), so a filled template is the facts' printed
    lines.
    """
    fields = tuple("{%d}" % i for i in range(width))
    key = _KeyField._make((*fields[:4], (width - 6) // 2))
    own, shared = [], {}
    for line in _skolemize(key, fields, atom=call_text, app=call_text, const=str):
        if line.startswith(("namespace(", "class(")):
            shared[1 + max(map(int, _FIELD.findall(line)))] = _template([line])
        else:
            own.append(line)
    return _template(own), shared


def _template(lines) -> tuple:
    text = "\n".join(lines)
    return _FIELD.sub("%s", text), itemgetter(*map(int, _FIELD.findall(text)))
