"""Ordered indexed markings: token sets with a generation preorder.

The preorder records precedence in token generation.  After a firing:

  1. untouched tokens keep their old relation;
  2. the tokens generated together form a clique (related both ways);
  3. an untouched token precedes every generated token iff it preceded,
     in the pre-firing order, some token the firing deleted.

The update is computed on int masks (`step_rows`): a token set is a mask
over a `TokenBits` numbering, and the preorder is one up-set mask per
token.  `OIMGraph` is the ordered token game of one net on ints: it
interns each marking once and builds its moves once, and it decodes
markings and moves to the public types and encodes them back.  The fc/cn
search, its canonical form, the validators, `oim_successors` and
`reachable_oim` all play on one.
"""

from __future__ import annotations

from dataclasses import dataclass
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
    interned to an id in the order it is found, so walking the ids in
    order from the first interned is a breadth-first search.  A move is
    the tuple

        (label, tid, removed mask, deleted entries, target id,
         untouched mask, created mask, plan)

    built once per marking, with a (position, bit, up-set) entry per
    deleted token and the plan of `step_rows`.  Decoded markings,
    relations, steps and token pairs are shared, so that equal parts of a
    certificate are one object."""

    def __init__(self, net: PTNet):
        self.net = net
        self.bits = TokenBits()
        self.ids: dict[tuple, int] = {}  # (mask, rows) -> id
        self.oims: list[tuple] = []  # id -> (mask, rows)
        self.moves: list = []  # id -> (moves, moves by label), or None
        self.pairs: dict = {}  # token pairs, shared by every decoded relation
        self.relations: dict[tuple, frozenset] = {}  # (mask, rows) -> pairs
        self.decoded: dict[int, OrderedIndexedMarking] = {}
        self.steps: dict[int, OIMStep] = {}  # id(move) -> its OIMStep
        # OrderedIndexedMarking -> id and (pairs, mask, within) -> rows,
        # each None where a pair mentions a foreign token
        self.encoded: dict = {}
        self.encoded_relations: dict = {}

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
            for t, removed, created in self.bits.firings(self.net, mask):
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

    def relation(self, mask: int, rows: tuple) -> frozenset:
        """The token pairs of rows over the tokens of mask."""
        key = (mask, rows)
        pairs = self.relations.get(key)
        if pairs is None:
            pairs = self.relations[key] = decode_rows(self.bits, mask, rows,
                                                      self.pairs)
        return pairs

    def oim(self, o: int) -> OrderedIndexedMarking:
        x = self.decoded.get(o)
        if x is None:
            mask, rows = self.oims[o]
            x = self.decoded[o] = OrderedIndexedMarking(
                frozenset(self.bits.decode(mask)), self.relation(mask, rows))
        return x

    def step(self, move: tuple) -> OIMStep:
        s = self.steps.get(id(move))
        if s is None:
            s = self.steps[id(move)] = OIMStep(
                move[1], frozenset(self.bits.decode(move[2])),
                self.oim(move[4]))
        return s

    def encode_relation(self, pairs: frozenset, mask: int,
                        within: int) -> Optional[tuple]:
        """The rows of pairs from the tokens of mask to those of within, or
        None if a pair mentions another token."""
        key = (pairs, mask, within)
        rows = self.encoded_relations.get(key, _MISSING)
        if rows is _MISSING:
            rows = encode_rows(self.bits, mask, pairs, within)
            rows = self.encoded_relations[key] = (
                rows if sum(r.bit_count() for r in rows) == len(pairs)
                else None)
        return rows

    def encode(self, o: OrderedIndexedMarking) -> Optional[int]:
        """The id of o, or None if its order mentions a foreign token."""
        x = self.encoded.get(o, _MISSING)
        if x is _MISSING:
            mask = self.bits.mask(o.tokens)
            rows = self.encode_relation(o.order, mask, mask)
            x = self.encoded[o] = (None if rows is None
                                   else self.intern(mask, rows))
        return x


def oim_successors(net: PTNet, o: OrderedIndexedMarking) -> list[OIMStep]:
    """All firings of the ordered token game from o, all victim choices."""
    graph = OIMGraph(net)
    start = graph.encode(o)
    if start is None:
        raise NetError(f"order mentions foreign token in {o}")
    return [graph.step(move) for move in graph.successors(start)[0]]


def reachable_oim(net: PTNet, k0: IndexedMarking, cap: int) -> frozenset:
    """All ordered indexed markings reachable from init_oim(k0).  Raises
    what exploring the marking of k0 under `cap` raises."""
    graph = OIMGraph(net)
    graph.encode(init_oim(k0))
    net.kernel.explore((alpha(k0),), cap)
    o = 0
    while o < len(graph.oims):
        graph.successors(o)
        o += 1
    return frozenset(map(graph.oim, range(o)))
