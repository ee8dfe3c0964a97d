"""Ordered indexed markings: token sets with a generation preorder.

The preorder records precedence in token generation.  After a firing:

  1. untouched tokens keep their old relation;
  2. the tokens generated together form a clique (related both ways);
  3. an untouched token precedes every generated token iff it preceded,
     in the pre-firing order, some token the firing deleted.

The update is computed on int masks (`step_rows`): a token set is a mask
over a `TokenBits` numbering, and the preorder is one up-set mask per
token.  `OIMGraph` is the ordered token game of one net on ints: it
interns each marking once and builds its moves once.  Each net object
builds one, on first use (`PTNet.oim_graph`), and every fc/cn search,
canonical form, validator, `oim_successors` and `reachable_oim` call on
that net plays on it, so a marking's moves are built once however many
calls reach it.  The graph keeps ints and moves only: the token
numbering, the interned markings and their move lists.  It does not keep
what one call makes: `OIMCodec`, which decodes markings and moves to the
public types and encodes them back, and the search's canonical memo live
as long as their call.  Nor does it hold the net, only its kernel and
transitions, so it is freed with the net by reference counting.  A net
built anew, even an equal one, shares nothing with another.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from functools import wraps
from typing import Optional

from .nets import Multiset, NetError, PTNet
from .indexed import IndexedMarking, TokenBits, alpha, is_closed


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


def step_rows(mask: int, rows: tuple, removed: int,
              created: int) -> tuple[int, tuple, tuple]:
    """The order update on masks.  `rows[i]` is the up-set mask of the i-th
    token of `mask` in bit order.  Returns the target mask, its rows and its
    plan: for each target token in bit order, its position in `mask`, or -1
    if the firing created it."""
    untouched = mask & ~removed
    target = untouched | created
    new_rows = []
    plan = []
    rest = target
    while rest:
        low = rest & -rest
        rest ^= low
        if low & untouched:
            i = (mask & (low - 1)).bit_count()
            up = rows[i]
            # Clause (3) is evaluated against the pre-firing order.
            new_rows.append(up & untouched | (created if up & removed else 0))
            plan.append(i)
        else:
            new_rows.append(created)
            plan.append(-1)
    return target, tuple(new_rows), tuple(plan)


def encode_rows(bits: TokenBits, mask: int, pairs, within: int) -> tuple:
    """The rows of a relation from the tokens of mask to those of within:
    rows[i] is the mask of the tokens the i-th token of mask is related to.
    Pairs that mention other tokens are dropped."""
    rows = [0] * mask.bit_count()
    bit = bits.bit
    for a, b in pairs:
        ba, bb = bit.get(a, 0), bit.get(b, 0)
        if ba & mask and bb & within:
            rows[(mask & (ba - 1)).bit_count()] |= bb
    return tuple(rows)


def decode_rows(bits: TokenBits, mask: int, rows: tuple,
                 pairs: dict) -> frozenset:
    """The relation of rows as token pairs.  Pairs are shared through
    `pairs`: bit of a -> bit of b -> (a, b)."""
    tokens = bits.tokens
    out = []
    rest = mask
    for up in rows:
        a = rest & -rest
        rest ^= a
        known = pairs.get(a)
        if known is None:
            known = pairs[a] = {}
        while up:
            b = up & -up
            up ^= b
            pair = known.get(b)
            if pair is None:
                pair = known[b] = (tokens[a.bit_length() - 1],
                                   tokens[b.bit_length() - 1])
            out.append(pair)
    return frozenset(out)


def _step_order(
    old: frozenset,
    untouched: frozenset,
    generated: frozenset,
    removed: frozenset,
) -> frozenset:
    bits = TokenBits()
    gone = bits.mask(removed)
    mask = bits.mask(untouched) | gone
    target, rows, _ = step_rows(mask, encode_rows(bits, mask, old, mask),
                                gone, bits.mask(generated))
    return decode_rows(bits, target, rows, {})


_MISSING = object()


class OIMGraph:
    """The ordered token game of a net on ints.  Tokens are bits of `bits`,
    numbered on first use; each distinct marking (mask, rows), where
    rows[i] is the up-set mask of the i-th token of mask in bit order, is
    interned to an id in the order it is found.  A move is the tuple

        (label, tid, removed mask, deleted entries, target id,
         untouched mask, created mask, plan)

    built once per marking, with a (position, bit, up-set) entry per
    deleted token and the plan of `step_rows`.  The graph grows with the
    calls that play on it; what a call decodes lives in its `OIMCodec`.
    A call holds `lock` while it plays (`holding_graph`)."""

    def __init__(self, net: PTNet):
        self.kernel = net.kernel
        self.transitions = net.transitions
        self.lock = threading.RLock()
        self.bits = TokenBits()
        self.ids: dict[tuple, int] = {}  # (mask, rows) -> id
        self.oims: list[tuple] = []  # id -> (mask, rows)
        self.moves: list = []  # id -> (moves, moves by label), or None

    def intern(self, mask: int, rows: tuple) -> int:
        key = (mask, rows)
        o = self.ids.get(key)
        if o is None:
            o = self.ids[key] = len(self.oims)
            self.oims.append(key)
            self.moves.append(None)
        return o

    def initial(self, m: Multiset) -> int:
        """The id of init_oim of the closed indexed marking of m: every
        token precedes every token."""
        k = self.bits.mask([(p, i) for p, n in m.items()
                            for i in range(1, n + 1)])
        return self.intern(k, (k,) * k.bit_count())

    def successors(self, o: int) -> tuple:
        """(moves, moves by label) from marking o: transitions in
        declaration order, victim choices ordered by their sorted
        tokens."""
        entry = self.moves[o]
        if entry is None:
            mask, rows = self.oims[o]
            moves, by_label = [], {}
            for t, removed, created in self.bits.firings(
                    self.kernel, self.transitions, mask):
                target, target_rows, plan = step_rows(mask, rows, removed,
                                                      created)
                deleted = []
                rest = removed
                while rest:
                    b = rest & -rest
                    rest ^= b
                    i = (mask & (b - 1)).bit_count()
                    deleted.append((i, b, rows[i]))
                move = (t.label, t.tid, removed, tuple(deleted),
                        self.intern(target, target_rows), mask & ~removed,
                        created, plan)
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
    are decoded anew each time.  Encoding numbers the tokens it meets and
    interns the markings in the graph."""

    def __init__(self, graph: OIMGraph):
        self.graph = graph
        self.pairs: dict = {}  # token pairs, shared by every decoded relation
        self.decoded: dict[int, OrderedIndexedMarking] = {}
        # OrderedIndexedMarking -> id and (pairs, mask, within) -> rows,
        # each None where a token index is bad or a pair mentions a
        # foreign token
        self.encoded: dict = {}
        self.encoded_relations: dict = {}

    def relation(self, mask: int, rows: tuple) -> frozenset:
        """The token pairs of rows over the tokens of mask."""
        return decode_rows(self.graph.bits, mask, rows, self.pairs)

    def oim(self, o: int) -> OrderedIndexedMarking:
        x = self.decoded.get(o)
        if x is None:
            mask, rows = self.graph.oims[o]
            x = self.decoded[o] = OrderedIndexedMarking(
                frozenset(self.graph.bits.decode(mask)),
                self.relation(mask, rows))
        return x

    def step(self, move: tuple) -> OIMStep:
        return OIMStep(move[1], frozenset(self.graph.bits.decode(move[2])),
                       self.oim(move[4]))

    def encode_relation(self, pairs: frozenset, mask: int,
                        within: int) -> Optional[tuple]:
        """The rows of pairs from the tokens of mask to those of within, or
        None if a pair mentions another token."""
        key = (pairs, mask, within)
        rows = self.encoded_relations.get(key, _MISSING)
        if rows is _MISSING:
            rows = encode_rows(self.graph.bits, mask, pairs, within)
            rows = self.encoded_relations[key] = (
                rows if sum(r.bit_count() for r in rows) == len(pairs)
                else None)
        return rows

    def encode(self, o: OrderedIndexedMarking) -> Optional[int]:
        """The id of o, or None if a token's index is not an int >= 1 or
        its order mentions a foreign token.  Nothing is numbered for a
        marking with such an index."""
        x = self.encoded.get(o, _MISSING)
        if x is _MISSING:
            if not all(type(i) is int and i >= 1 for _, i in o.tokens):
                x = None
            else:
                mask = self.graph.bits.mask(o.tokens)
                rows = self.encode_relation(o.order, mask, mask)
                x = None if rows is None else self.graph.intern(mask, rows)
            self.encoded[o] = x
        return x


def holding_graph(fn):
    """fn(net, ...) run holding the lock of the net's `OIMGraph`.  The
    calls on a net share its graph, and numbering a token or interning a
    marking is a read-modify-write, so calls from several threads take
    turns."""
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
        raise NetError(f"token index not an int >= 1, or order mentions "
                       f"foreign token, in {o}")
    return [codec.step(move) for move in codec.graph.successors(start)[0]]


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
    return {codec.oim(o): [codec.step(move) for move in successors(o)[0]]
            for o in found}
