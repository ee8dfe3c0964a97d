"""Ordered indexed markings: token sets with a generation preorder.

The preorder records precedence in token generation.  After a firing:

  1. untouched tokens keep their old relation;
  2. the tokens generated together form a clique (related both ways);
  3. an untouched token precedes every generated token iff it preceded,
     in the pre-firing order, some token the firing deleted.

The update is computed on positions (`step_rows`): a marking is the
sorted tuple of its tokens, a token is its position there, a token set is
an int mask of positions, and the preorder is one up-set mask per token.
No numbering reaches past one marking: a move maps the positions of its
source to those of its target.  `OIMGraph` is the ordered token game of
one net on ints: it interns each marking once and builds its moves once.
Each net object builds one, on first use (`PTNet.oim_graph`), and every
fc/cn search, canonical form, validator, `oim_successors` and
`reachable_oim` call on that net plays on it, so a marking's moves are
built once however many calls reach it.  The graph keeps the interned
markings and their move lists only.  It does not keep what one call
makes: `OIMCodec`, which decodes markings and moves to the public types
and encodes them back, and the search's canonical memo live as long as
their call.  Nor does it hold the net, only its kernel and transitions,
so it is freed with the net by reference counting.  A net built anew,
even an equal one, shares nothing with another.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from dataclasses import dataclass
from functools import wraps
from typing import Optional

from .nets import Multiset, NetError, PTNet
from .indexed import IndexedMarking, alpha, firings, is_closed, pick


@dataclass(frozen=True)
class OrderedIndexedMarking:
    tokens: frozenset  # frozenset[Token]
    order: frozenset  # frozenset[tuple[Token, Token]], a preorder on tokens


def oim_check(o: OrderedIndexedMarking) -> None:
    """Assert the preorder invariants; used by the property tests."""
    for a, b in o.order:
        if a not in o.tokens or b not in o.tokens:
            raise NetError(f"order mentions foreign token in {o}")
    for a in o.tokens:
        if (a, a) not in o.order:
            raise NetError(f"order not reflexive at {a}")
    for a, b in o.order:
        for c, d in o.order:
            if b == c and (a, d) not in o.order:
                raise NetError(f"order not transitive: {a} {b} {d}")


def init_oim(k0: IndexedMarking) -> OrderedIndexedMarking:
    """The initial ordered indexed marking (k0, k0 x k0)."""
    if not is_closed(k0):
        raise NetError("initial indexed marking must be closed")
    return OrderedIndexedMarking(k0, frozenset((a, b) for a in k0 for b in k0))


@dataclass(frozen=True)
class OIMStep:
    tid: str
    removed: frozenset  # frozenset[Token]
    target: OrderedIndexedMarking


def shifted(x: int, gone: list, made: list) -> int:
    """The mask x of source positions as target positions: the bits of
    `gone`, deleted positions in descending order, are dropped, and a zero
    bit opens at each of `made`, created target positions in ascending
    order.  Untouched tokens keep their relative order, so this is the map
    of a move on the positions it leaves."""
    for i in gone:
        x = x & ((1 << i) - 1) | (x >> (i + 1)) << i
    for j in made:
        x = x & ((1 << j) - 1) | (x >> j) << (j + 1)
    return x


class Remap(dict):
    """`shifted` for one move, as a memo: subscripted with a source mask,
    it gives the mask's image and stores it."""

    __slots__ = ("gone", "made")

    def __missing__(self, x: int) -> int:
        y = self[x] = shifted(x, self.gone, self.made)
        return y


def step_rows(tokens: tuple, rows: tuple, removed: int,
              created: tuple) -> tuple[tuple, tuple, tuple, Remap, int]:
    """The order update on positions.  `rows[i]` is the up-set mask of
    tokens[i], `removed` the mask of the deleted positions and `created`
    the sorted tokens the firing makes.  Returns the target tokens, their
    rows, the plan (for each target position, its source position, or -1
    if the firing created it), the `Remap` of the move and the mask of the
    created target positions."""
    target = []
    plan = []
    gone = []
    for i, tok in enumerate(tokens):
        if removed >> i & 1:
            gone.append(i)
        else:
            target.append(tok)
            plan.append(i)
    gone.reverse()
    opened = []
    made = 0
    for tok in created:
        j = bisect_left(target, tok)
        target.insert(j, tok)
        plan.insert(j, -1)
        opened.append(j)
        made |= 1 << j
    remap = Remap()
    remap.gone = gone
    remap.made = opened
    # Clause (3) is evaluated against the pre-firing order.
    new_rows = tuple([made if i < 0 else shifted(rows[i], gone, opened) | (
        made if rows[i] & removed else 0) for i in plan])
    return tuple(target), new_rows, tuple(plan), remap, made


def encode_rows(tokens: tuple, pairs, within: tuple) -> Optional[tuple]:
    """The rows of a relation from the sorted tuple tokens to the sorted
    tuple within: rows[i] is the mask of the positions of within that
    tokens[i] is related to.  None if an element of pairs is not a
    2-tuple or names another token."""
    at = {tok: i for i, tok in enumerate(tokens)}
    to = at if within is tokens else {tok: j for j, tok in enumerate(within)}
    rows = [0] * len(tokens)
    for pair in pairs:
        if type(pair) is not tuple or len(pair) != 2:
            return None
        i, j = at.get(pair[0]), to.get(pair[1])
        if i is None or j is None:
            return None
        rows[i] |= 1 << j
    return tuple(rows)


def decode_rows(tokens: tuple, rows: tuple, within: tuple,
                pairs: dict) -> frozenset:
    """The relation of `encode_rows` rows as token pairs.  Equal pairs are
    one object, shared through `pairs`: token a -> token b -> (a, b)."""
    out = []
    for a, up in zip(tokens, rows):
        known = pairs.get(a)
        if known is None:
            known = pairs[a] = {}
        while up:
            b = up & -up
            up ^= b
            tb = within[b.bit_length() - 1]
            pair = known.get(tb)
            if pair is None:
                pair = known[tb] = (a, tb)
            out.append(pair)
    return frozenset(out)


def _step_order(
    old: frozenset,
    untouched: frozenset,
    generated: frozenset,
    removed: frozenset,
) -> frozenset:
    tokens = tuple(sorted(untouched | removed))
    gone = sum(1 << i for i, tok in enumerate(tokens) if tok in removed)
    target, rows, *_ = step_rows(tokens, encode_rows(tokens, old, tokens),
                                 gone, tuple(sorted(generated)))
    return decode_rows(target, rows, target, {})


_MISSING = object()


def _is_token(tok) -> bool:
    return (type(tok) is tuple and len(tok) == 2 and type(tok[0]) is str
            and type(tok[1]) is int and tok[1] >= 1)


class OIMGraph:
    """The ordered token game of a net on ints.  Each distinct marking
    (tokens, rows), its sorted token tuple and the up-set mask of each of
    its positions, is interned to an id in the order it is found.  A move
    is the tuple

        (label, tid, removed mask, deleted entries, target id,
         created mask, plan, remap)

    built once per marking, with a (position, bit, up-set) entry per
    deleted token and the created mask, plan and remap of `step_rows`;
    masks before the target id are over the source's positions, the
    created mask over the target's.  The graph grows with the calls that
    play on it; what a call decodes lives in its `OIMCodec`.  A call
    holds `lock` while it plays (`holding_graph`), which also guards the
    images stored in a move's `Remap`."""

    def __init__(self, net: PTNet):
        self.kernel = net.kernel
        self.transitions = net.transitions
        self.lock = threading.RLock()
        self.ids: dict[tuple, int] = {}  # (tokens, rows) -> id
        self.oims: list[tuple] = []  # id -> (tokens, rows)
        self.plain: list[bool] = []  # id -> every token has index 1
        self.moves: list = []  # id -> (moves, moves by label), or None

    def intern(self, tokens: tuple, rows: tuple) -> int:
        key = (tokens, rows)
        o = self.ids.get(key)
        if o is None:
            o = self.ids[key] = len(self.oims)
            self.oims.append(key)
            self.plain.append(all(i == 1 for _, i in tokens))
            self.moves.append(None)
        return o

    def initial(self, m: Multiset) -> int:
        """The id of init_oim of the closed indexed marking of m: every
        token precedes every token."""
        tokens = tuple((p, i) for p, n in m.items() for i in range(1, n + 1))
        return self.intern(tokens, ((1 << len(tokens)) - 1,) * len(tokens))

    def successors(self, o: int) -> tuple:
        """(moves, moves by label) from marking o: transitions in
        declaration order, victim choices ordered by their sorted
        tokens."""
        entry = self.moves[o]
        if entry is None:
            tokens, rows = self.oims[o]
            moves, by_label = [], {}
            for t, removed, created in firings(self.kernel, self.transitions,
                                               tokens):
                target, target_rows, plan, remap, made = step_rows(
                    tokens, rows, removed, created)
                deleted = tuple([(i, 1 << i, rows[i])
                                 for i in reversed(remap.gone)])
                move = (t.label, t.tid, removed, deleted,
                        self.intern(target, target_rows), made, plan, remap)
                moves.append(move)
                by_label.setdefault(t.label, []).append(move)
            entry = self.moves[o] = (moves, by_label)
        return entry

    def reached(self, start: int) -> list[int]:
        """The ids of the markings reachable from start, breadth first."""
        found = [start]
        seen = {start}
        for o in found:
            for move in self.successors(o)[0]:
                if move[4] not in seen:
                    seen.add(move[4])
                    found.append(move[4])
        return found


class OIMCodec:
    """The markings and moves of an `OIMGraph` as the public types, and
    back, for one call.  Decoded markings and token pairs are shared, so
    that equal parts of a certificate are one object; relations and steps
    are decoded, and relations encoded, anew each time.  Encoding interns
    the markings in the graph."""

    def __init__(self, graph: OIMGraph):
        self.graph = graph
        self.pairs: dict = {}  # token pairs, shared by every decoded relation
        self.decoded: dict[int, OrderedIndexedMarking] = {}
        # OrderedIndexedMarking -> id, or None where a token is malformed
        # or a pair is not a pair of its tokens
        self.encoded: dict = {}

    def relation(self, a: int, rows: tuple, b: int) -> frozenset:
        """The token pairs of rows from the tokens of marking a to those
        of marking b."""
        oims = self.graph.oims
        return decode_rows(oims[a][0], rows, oims[b][0], self.pairs)

    def oim(self, o: int) -> OrderedIndexedMarking:
        x = self.decoded.get(o)
        if x is None:
            tokens, rows = self.graph.oims[o]
            x = self.decoded[o] = OrderedIndexedMarking(
                frozenset(tokens), self.relation(o, rows, o))
        return x

    def step(self, o: int, move: tuple) -> OIMStep:
        """The move of marking o as an `OIMStep`."""
        return OIMStep(move[1], frozenset(pick(self.graph.oims[o][0],
                                               move[2])), self.oim(move[4]))

    def encode(self, o: OrderedIndexedMarking) -> Optional[int]:
        """The id of o, or None if a token is not a (str place, int index
        >= 1) pair or an element of its order is not a pair of its
        tokens.  The tokens are checked before they are sorted, so that no
        mix of types is compared."""
        x = self.encoded.get(o, _MISSING)
        if x is _MISSING:
            x = None
            if all(map(_is_token, o.tokens)):
                tokens = tuple(sorted(o.tokens))
                rows = encode_rows(tokens, o.order, tokens)
                if rows is not None:
                    x = self.graph.intern(tokens, rows)
            self.encoded[o] = x
        return x


def holding_graph(fn):
    """fn(net, ...) run holding the lock of the net's `OIMGraph`.  The
    calls on a net share its graph, and interning a marking or storing an
    image in a move's remap is a read-modify-write, so calls from several
    threads take turns."""
    @wraps(fn)
    def call(net: PTNet, *args, **kwargs):
        with net.oim_graph.lock:
            return fn(net, *args, **kwargs)
    return call


@holding_graph
def oim_successors(net: PTNet, o: OrderedIndexedMarking) -> list[OIMStep]:
    """All firings of the ordered token game from o, all victim choices."""
    codec = OIMCodec(net.oim_graph)
    start = codec.encode(o)
    if start is None:
        raise NetError(f"token not a (place, index >= 1) pair, or order "
                       f"mentions foreign token, in {o}")
    return [codec.step(start, move)
            for move in codec.graph.successors(start)[0]]


def _oim_walk(net: PTNet, k0: IndexedMarking, cap: int) -> tuple:
    """(codec, ids of the ordered indexed markings reachable from
    init_oim(k0), breadth first)."""
    if not is_closed(k0):
        raise NetError("initial indexed marking must be closed")
    net.kernel.explore((alpha(k0),), cap)
    graph = net.oim_graph
    return OIMCodec(graph), graph.reached(graph.initial(alpha(k0)))


@holding_graph
def reachable_oim(net: PTNet, k0: IndexedMarking, cap: int) -> frozenset:
    """All ordered indexed markings reachable from init_oim(k0).  Raises
    what exploring the marking of k0 under `cap` raises."""
    codec, found = _oim_walk(net, k0, cap)
    return frozenset(map(codec.oim, found))


@holding_graph
def oim_space(net: PTNet, k0: IndexedMarking, cap: int) -> dict:
    """Each ordered indexed marking reachable from init_oim(k0) -> its
    `oim_successors`, decoded from the moves of the walk that found it."""
    codec, found = _oim_walk(net, k0, cap)
    successors = codec.graph.successors
    return {codec.oim(o): [codec.step(o, move) for move in successors(o)[0]]
            for o in found}
