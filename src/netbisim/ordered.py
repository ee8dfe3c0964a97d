"""Ordered indexed markings: token sets with a generation preorder.

The preorder records precedence in token generation.  After a firing:

  1. untouched tokens keep their old relation;
  2. the tokens generated together form a clique (related both ways);
  3. an untouched token precedes every generated token iff it preceded,
     in the pre-firing order, some token the firing deleted.

The update is computed on int masks (`step_rows`): a token set is a mask
over a `TokenBits` numbering, and the preorder is one up-set mask per
token.  `oim_successors` and `_step_order` decode its results.
"""

from __future__ import annotations

from dataclasses import dataclass

from .nets import NetError, PTNet, _explore
from .indexed import IndexedMarking, Token, TokenBits, alpha, is_closed


@dataclass(frozen=True)
class OrderedIndexedMarking:
    tokens: frozenset  # frozenset[Token]
    order: frozenset  # frozenset[tuple[Token, Token]], a preorder on tokens

    def leq(self, a: Token, b: Token) -> bool:
        return (a, b) in self.order


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

    def untouched(self, source: OrderedIndexedMarking) -> frozenset:
        return source.tokens - self.removed

    def generated(self, source: OrderedIndexedMarking) -> frozenset:
        return self.target.tokens - (source.tokens - self.removed)


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


def oim_moves(net: PTNet, bits: TokenBits, mask: int, rows: tuple) -> list:
    """(transition, removed, created, target mask, target rows, plan) for
    every firing of the ordered token game from (mask, rows), in the order
    of `TokenBits.firings`."""
    return [(t, removed, created, *step_rows(mask, rows, removed, created))
            for t, removed, created in bits.firings(net, mask)]


def oim_successors(net: PTNet, o: OrderedIndexedMarking) -> list[OIMStep]:
    """All firings of the ordered token game from o, all victim choices."""
    bits = TokenBits()
    mask = bits.mask(o.tokens)
    steps = []
    pairs: dict = {}
    for t, removed, _, target, rows, _ in oim_moves(
            net, bits, mask, encode_rows(bits, mask, o.order, mask)):
        steps.append(OIMStep(
            t.tid, frozenset(bits.decode(removed)),
            OrderedIndexedMarking(frozenset(bits.decode(target)),
                                  decode_rows(bits, target, rows, pairs))))
    return steps


def reachable_oim(net: PTNet, k0: IndexedMarking, cap: int) -> frozenset:
    """All ordered indexed markings reachable from init_oim(k0)."""
    return frozenset(_explore(
        init_oim(k0), lambda o: [s.target for s in oim_successors(net, o)],
        lambda o: alpha(o.tokens), cap))
