"""Indexed markings and the individual-token game.

A token is a (place, index) pair; an indexed marking is a frozenset of
tokens.  Token deletion is nondeterministic (every choice of victims is
returned), token creation always picks the least free index per place.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product

from .nets import Multiset, NetError, PTNet, _enabled_transitions, _explore

Token = tuple[str, int]
IndexedMarking = frozenset  # frozenset[Token]


class InsufficientTokensError(NetError):
    def __init__(self, place: str):
        super().__init__(f"not enough tokens on place {place!r} to delete")
        self.place = place


def alpha(k: IndexedMarking) -> Multiset:
    """Project an indexed marking back to a plain marking."""
    acc: dict[str, int] = {}
    for place, _ in k:
        acc[place] = acc.get(place, 0) + 1
    return Multiset(acc)


def indices_of(k: IndexedMarking, place: str) -> set[int]:
    return {i for p, i in k if p == place}


def is_closed(k: IndexedMarking) -> bool:
    """True iff every place's indices are exactly 1..n, with no holes."""
    per_place: dict[str, set[int]] = {}
    for place, i in k:
        per_place.setdefault(place, set()).add(i)
    return all(idx == set(range(1, len(idx) + 1)) for idx in per_place.values())


def initial_indexed(m: Multiset) -> IndexedMarking:
    """The unique closed indexed marking projecting onto m."""
    return frozenset((p, i) for p, n in m.items() for i in range(1, n + 1))


def boxminus(k: IndexedMarking, m: Multiset) -> set[IndexedMarking]:
    """All indexed markings obtained by deleting m(s) tokens of each place s.

    The result has one member per choice of victims, i.e.
    prod_s C(|k(s)|, m(s)) markings in total.
    """
    victim_sets = []
    for place, n in m.items():
        idx = sorted(indices_of(k, place))
        if n > len(idx):
            raise InsufficientTokensError(place)
        victim_sets.append([{(place, i) for i in c} for c in combinations(idx, n)])
    results: set[IndexedMarking] = set()
    for choice in product(*victim_sets):
        removed = set().union(*choice) if choice else set()
        results.add(k - removed)
    return results


def boxplus(k: IndexedMarking, m: Multiset) -> IndexedMarking:
    """Add one token per unit of m, always at the least free index."""
    acc = set(k)
    used: dict[str, set[int]] = {}
    for place, i in k:
        used.setdefault(place, set()).add(i)
    for place, n in m.items():
        taken = used.setdefault(place, set())
        for _ in range(n):
            i = 1
            while i in taken:
                i += 1
            taken.add(i)
            acc.add((place, i))
    return frozenset(acc)


@dataclass(frozen=True)
class IMStep:
    tid: str
    removed: frozenset  # frozenset[Token]
    target: IndexedMarking


def im_successors(net: PTNet, k: IndexedMarking) -> list[IMStep]:
    """Every firing of the individual token game from k, all victim choices.

    Deterministic order: transitions in declaration order, victim choices
    sorted by their removed-token sets.
    """
    m = alpha(k)
    steps = []
    for t in _enabled_transitions(net, m):
        for k2 in sorted(boxminus(k, t.pre), key=lambda x: sorted(k - x)):
            steps.append(IMStep(t.tid, frozenset(k - k2), boxplus(k2, t.post)))
    return steps


def reachable_im(net: PTNet, k0: IndexedMarking, cap: int) -> frozenset:
    """The finite set IM(N(k0)) of reachable indexed markings."""
    if not is_closed(k0):
        raise NetError("initial indexed marking must be closed")
    return frozenset(_explore(
        k0, lambda k: [s.target for s in im_successors(net, k)], alpha, cap))
