"""Ordered indexed markings: token sets with a generation preorder.

The preorder records precedence in token generation.  After a firing:

  1. untouched tokens keep their old relation;
  2. the tokens generated together form a clique (related both ways);
  3. an untouched token precedes every generated token iff it preceded,
     in the pre-firing order, some token the firing deleted.
"""

from __future__ import annotations

from dataclasses import dataclass

from .nets import NetError, PTNet, _explore
from .indexed import IndexedMarking, Token, alpha, im_successors, is_closed


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


def _step_order(
    old: frozenset,
    untouched: frozenset,
    generated: frozenset,
    removed: frozenset,
) -> frozenset:
    # Clause (3) is evaluated against the pre-firing order, as defined.
    pairs = {(a, b) for a, b in old if a in untouched and b in untouched}
    pairs.update((a, b) for a in generated for b in generated)
    raised = {
        a for a in untouched if any((a, d) in old for d in removed)
    }
    pairs.update((a, b) for a in raised for b in generated)
    return frozenset(pairs)


def oim_successors(net: PTNet, o: OrderedIndexedMarking) -> list[OIMStep]:
    """All firings of the ordered token game from o, all victim choices."""
    steps = []
    for im_step in im_successors(net, o.tokens):
        untouched = o.tokens - im_step.removed
        generated = im_step.target - untouched
        order = _step_order(o.order, untouched, generated, im_step.removed)
        steps.append(
            OIMStep(im_step.tid, im_step.removed,
                    OrderedIndexedMarking(im_step.target, order))
        )
    return steps


def reachable_oim(net: PTNet, k0: IndexedMarking, cap: int) -> frozenset:
    """All ordered indexed markings reachable from init_oim(k0)."""
    return frozenset(_explore(
        init_oim(k0), lambda o: [s.target for s in oim_successors(net, o)],
        lambda o: alpha(o.tokens), cap))
