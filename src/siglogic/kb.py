"""Ground-fact knowledge base and conjunctive query answering.

The store of record is a table of the ingested signatures by FunctionKey.
Its facts are derived on demand by skolemizing each signature's compiled
formula: each bound variable is replaced by a witness, a plain string
derived from the function's identity (a `str` never equals a `ConstTok`,
so a witness cannot pass for a token).  Namespace witnesses are shared
across functions of the same (lang, namespace); class witnesses across
(lang, namespace, class).  Queries are signatures with wildcards,
answered by slot-by-slot matching against the table.  The backtracking
unifier of the query's compiled atoms against the facts is kept as the
oracle, `brute_force_answer`.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field, replace

from .logic import (
    App,
    ConstTok,
    Formula,
    LogicError,
    NotEquivHead,
    Term,
    UnsupportedHead,
    Var,
    compile_signature,
    print_atom,
    subst_atoms,
)
from .model import (
    Const,
    EquivIn,
    FunctionKey,
    NotGround,
    Plain,
    Signature,
    Unk,
    function_key,
    is_ground,
    slot_token,
    wildcard_labels,
)


class SourceNotFound(LookupError):
    """An EquivIn query's base pattern matched no ingested function."""


class KeyConflict(ValueError):
    """A differing signature is already stored under the same FunctionKey.

    Keys are the store's identity: witnesses are derived from them, so two
    bodies under one key would merge their facts and make answers depend
    on which body is asked about.
    """


def _key_id(key: FunctionKey) -> str:
    # `|` lies outside the token charset, so ids are injective in the key
    return "%s|%s|%s|%s|%d" % (
        key.lang, key.namespace, key.class_name, key.name, key.arity,
    )


def fn_skolem(key: FunctionKey) -> str:
    return "fn:" + _key_id(key)


def ret_skolem(key: FunctionKey) -> str:
    return "ret:" + _key_id(key)


def param_skolem(key: FunctionKey, position: int) -> str:
    return "par:%s|%d" % (_key_id(key), position)


def ns_skolem(lang: str, namespace: str) -> str:
    return "ns:%s|%s" % (lang, namespace)


def cls_skolem(lang: str, namespace: str, class_name: str) -> str:
    return "cls:%s|%s|%s" % (lang, namespace, class_name)


@dataclass(frozen=True)
class Binding:
    """One query answer: wildcard assignments plus the matched function."""

    key: FunctionKey
    items: tuple = field(default=())  # sorted (label, token) pairs

    def __post_init__(self):
        object.__setattr__(self, "items", tuple(sorted(self.items)))

    @property
    def mapping(self) -> dict:
        return dict(self.items)

    def __getitem__(self, label: str) -> str:
        return self.mapping[label]


class FactStore:
    """Ingested signatures by FunctionKey; their facts are derived on demand.

    Besides the table the store keeps a running count of the facts and the
    (lang, namespace) and (lang, namespace, class) identities seen: their
    namespace and class atoms are the only facts functions share.
    """

    def __init__(self):
        self._sigs = {}
        self._shared = set()
        self._size = 0

    def __len__(self):
        return self._size

    @property
    def keys(self):
        return self._sigs.keys()

    def facts(self, pred: str, first: Term = None):
        """The derived facts with predicate `pred` (and first arg `first`)."""
        return frozenset(
            atom for atom in _derived_facts(self)
            if atom.pred == pred and (first is None or atom.args[0] == first)
        )


def _skolemize(key: FunctionKey, sig: Signature):
    """The ground atoms of one stored signature.

    They are its compiled atoms with each binder replaced by its witness.
    """
    formula = compile_signature(sig)
    v, f, n, c = formula.existentials
    witness = {
        v: ret_skolem(key),
        f: fn_skolem(key),
        n: ns_skolem(key.lang, key.namespace),
        c: cls_skolem(key.lang, key.namespace, key.class_name),
    }
    for j, x in enumerate(formula.lambdas, start=1):
        witness[x] = param_skolem(key, j)
    return subst_atoms(formula.atoms, witness)


def _derived_facts(store: FactStore) -> set:
    return {
        atom for key, sig in store._sigs.items() for atom in _skolemize(key, sig)
    }


def ingest_signature(store: FactStore, sig: Signature) -> int:
    """Store sig, compiling nothing; returns how many facts it adds.

    That is 6 + 3n for n params, plus its namespace and class atoms when
    they are new.  Re-ingesting the identical signature adds nothing; any
    other signature under a stored key, even one differing only in the
    vararg flag, raises KeyConflict.
    """
    if not is_ground(sig):
        raise NotGround("only ground signatures can be ingested")
    key = function_key(sig)
    stored = store._sigs.get(key)
    if stored is not None:
        if stored == sig:
            return 0
        raise KeyConflict("differing signature already stored for %s" % (key,))
    shared = {(key.lang, key.namespace), (key.lang, key.namespace, key.class_name)}
    added = 6 + 3 * len(sig.params) + len(shared - store._shared)
    store._shared |= shared
    store._sigs[key] = sig
    store._size += added
    return added


def reconstruct_signature(store: FactStore, key: FunctionKey) -> Signature:
    """The signature ingested under `key`, exactly as it was ingested."""
    return store._sigs[key]


class EquivStore:
    """Union-find over FunctionKeys; holds cross-language `eq` knowledge.

    Each root keeps the list of its class's members; `add_eq` links the
    smaller class under the larger (union by size), so `class_of` reads
    one list instead of scanning every key.
    """

    def __init__(self):
        self._parent = {}
        self._members = {}  # root -> every key in its class

    def _find(self, key: FunctionKey) -> FunctionKey:
        if key not in self._parent:
            self._parent[key] = key
            self._members[key] = [key]
        root = key
        while self._parent[root] != root:
            root = self._parent[root]
        while self._parent[key] != root:  # path compression
            self._parent[key], key = root, self._parent[key]
        return root

    def add_eq(self, a: FunctionKey, b: FunctionKey):
        ra, rb = self._find(a), self._find(b)
        if ra == rb:
            return
        if len(self._members[ra]) < len(self._members[rb]):
            ra, rb = rb, ra
        self._parent[rb] = ra
        self._members[ra] += self._members.pop(rb)

    def equivalent(self, a: FunctionKey, b: FunctionKey) -> bool:
        return a == b or self._find(a) == self._find(b)

    def class_of(self, key: FunctionKey) -> frozenset:
        return frozenset(self._members[self._find(key)])


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

    Each stored signature is matched slot by slot against the query.
    """
    if isinstance(query.head, EquivIn):
        raise UnsupportedHead("EquivIn queries go through answer_equiv")
    results = set()
    for key, sig in store._sigs.items():
        binds = _match_signature(query, sig)
        if binds is not None:
            results.add(Binding(key, tuple(binds.items())))
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
    if isinstance(term, ConstTok):
        return term.token
    raise LogicError("wildcard bound to a non-constant term: %r" % (term,))


def _match_slot(qslot, token: str, binds: dict):
    if isinstance(qslot, Const):
        return binds if qslot.token == token else None
    if isinstance(qslot, Unk):
        return binds if token == "UNK" else None
    bound = binds.get(qslot.label)
    if bound is None:
        binds = dict(binds)
        binds[qslot.label] = token
        return binds
    return binds if bound == token else None


def _match_signature(query: Signature, sig: Signature):
    binds = {}
    pairs = [
        (query.lang, slot_token(sig.lang)),
        (query.namespace, slot_token(sig.namespace)),
        (query.class_name, slot_token(sig.class_name)),
        (query.head.name_slot, slot_token(sig.head.name_slot)),
        (query.ret, slot_token(sig.ret)),
    ]
    if not query.params_wildcard:
        if query.vararg:
            if len(sig.params) < len(query.params):
                return None
        elif len(sig.params) != len(query.params):
            return None
        for qp, sp in zip(query.params, sig.params):
            pairs.append((qp.type_slot, slot_token(sp.type_slot)))
            pairs.append((qp.name_slot, slot_token(sp.name_slot)))
    for qslot, token in pairs:
        binds = _match_slot(qslot, token, binds)
        if binds is None:
            return None
    return binds


def answer_equiv(facts: FactStore, eqs: EquivStore, query: Signature) -> set:
    """Resolve an EquivIn query over the stored signatures and the EquivStore."""
    if not isinstance(query.head, EquivIn):
        raise NotEquivHead("answer_equiv requires an EquivIn head")
    base_sig = replace(query, head=Plain(Const(query.head.base_name)))
    sources = answer(facts, base_sig)
    if not sources:
        raise SourceNotFound(
            "no ingested function matches %r" % (query.head.base_name,)
        )
    target_lang = query.head.target_lang.lower()
    results = set()
    for source in sources:
        for member in eqs.class_of(source.key):
            if member.lang.lower() != target_lang:
                continue
            member_sig = facts._sigs.get(member)
            if member_sig is None:
                continue
            mapping = dict(source.items)
            mapping["f'"] = member.name
            mapping["N"] = member.namespace
            mapping["C"] = member.class_name
            mapping["r"] = slot_token(member_sig.ret)
            results.add(Binding(member, tuple(mapping.items())))
    return results


def dump_facts(store: FactStore):
    """All facts as canonical text atoms, sorted; deterministic."""
    # print_atom is injective on ground atoms: dedupe the cheaper strings
    return sorted({
        print_atom(atom)
        for key, sig in store._sigs.items()
        for atom in _skolemize(key, sig)
    })
