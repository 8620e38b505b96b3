"""Hypothesis strategies for signatures."""

from hypothesis import strategies as st

from siglogic.model import (
    UNK,
    Const,
    EquivIn,
    Param,
    Signature,
    Wildcard,
)

tokens = st.from_regex(r"[A-Za-z0-9._$'-]{1,8}", fullmatch=True).filter(
    lambda t: t != "UNK"
)
labels = st.from_regex(r"[A-Za-z0-9._$'-]{1,8}", fullmatch=True)

ground_slots = st.one_of(st.just(UNK), tokens.map(Const))
slots = st.one_of(st.just(UNK), tokens.map(Const), labels.map(Wildcard))


def _params(slot_strategy):
    return st.lists(st.tuples(slot_strategy, slot_strategy), max_size=4).map(
        lambda pairs: tuple(Param(t, p) for t, p in pairs)
    )


@st.composite
def signatures(draw, ground=False):
    """Arbitrary well-formed signatures.

    With ground=True: no wildcards, a Const head (not UNK), no `(?)` list.
    Otherwise wildcards, EquivIn heads and whole-list wildcards all occur.
    """
    slot = ground_slots if ground else slots
    if ground:
        head = draw(tokens.map(Const))
    elif draw(st.booleans()) and draw(st.integers(0, 4)) == 0:
        head = EquivIn(draw(tokens), draw(tokens))
    else:
        head = draw(slot)

    if isinstance(head, EquivIn):
        lang = draw(tokens.map(Const))
    else:
        lang = draw(slot)

    params_wildcard = False
    params = ()
    vararg = False
    if not ground and draw(st.integers(0, 3)) == 0:
        params_wildcard = True
    else:
        params = draw(_params(slot))
        if params:
            vararg = draw(st.integers(0, 3)) == 0
    return Signature(
        lang=lang,
        namespace=draw(slot),
        class_name=draw(slot),
        head=head,
        params=params,
        params_wildcard=params_wildcard,
        vararg=vararg,
        ret=draw(slot),
    )


ground_signatures = signatures(ground=True)
