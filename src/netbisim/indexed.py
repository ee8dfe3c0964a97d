"""Indexed markings and the individual-token game.

A token is a (place, index) pair; an indexed marking is a frozenset of
tokens.  Token deletion is nondeterministic (every choice of victims is
returned), token creation always picks the least free index per place.
Both are computed on a marking's sorted token tuple, where a token is its
position and a set of tokens is an int mask of positions; the frozenset
functions sort their input and decode their results.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .nets import Kernel, Multiset, NetError, PTNet

Token = tuple[str, int]
IndexedMarking = frozenset  # frozenset[Token]


def token_text(tok: Token) -> str:
    """A token as text: (place,index)."""
    return f"({tok[0]},{tok[1]})"


def tokens_text(tokens) -> str:
    """The tokens, sorted, as `token_text` separated by spaces."""
    return " ".join(map(token_text, sorted(tokens)))


class InsufficientTokensError(NetError):
    def __init__(self, place: str):
        super().__init__(f"not enough tokens on place {place!r} to delete")
        self.place = place


def alpha(k: IndexedMarking) -> Multiset:
    """Project an indexed marking back to a plain marking."""
    return Multiset.of(*(p for p, _ in k))


def is_closed(k: IndexedMarking) -> bool:
    """True iff every place's indices are exactly 1..n, with no holes."""
    return k == initial_indexed(alpha(k))


def closed_alpha(k0: IndexedMarking) -> Multiset:
    """alpha(k0) of an initial indexed marking; NetError if k0 is not
    closed."""
    if not is_closed(k0):
        raise NetError("initial indexed marking must be closed")
    return alpha(k0)


def initial_indexed(m: Multiset) -> IndexedMarking:
    """The unique closed indexed marking projecting onto m."""
    return frozenset((p, i) for p, n in m.items() for i in range(1, n + 1))


def positions(tokens: tuple) -> dict[str, list[int]]:
    """place -> the positions of its tokens in the sorted tuple tokens."""
    at: dict[str, list[int]] = {}
    for j, (place, _) in enumerate(tokens):
        at.setdefault(place, []).append(j)
    return at


def victims(at: dict, m: Multiset) -> list[int]:
    """The position masks of every choice of m(s) tokens of each place s,
    ordered by their sorted tokens; `at` is `positions` of the tokens."""
    choices = [0]
    for place, n in m.items():
        present = at.get(place, ())
        if n > len(present):
            raise InsufficientTokensError(place)
        if n == 1:
            picks = [1 << j for j in present]
        elif n == len(present):
            # a place's tokens are adjacent in the sorted tuple
            picks = [((1 << n) - 1) << present[0]]
        else:
            picks = [sum(1 << j for j in c) for c in combinations(present, n)]
        choices = (picks if choices == [0]
                   else [r | c for r in choices for c in picks])
    return choices


def create(tokens: tuple, at: dict, removed: int, m: Multiset) -> tuple:
    """The tokens, sorted, that adding m to the sorted tuple tokens less
    the positions of removed creates, each at the least index its place
    has free; `at` is `positions` of the tokens."""
    made = []
    for place, n in m.items():
        js = at.get(place)
        used = {tokens[j][1] for j in js if not removed >> j & 1} if js else ()
        i = 1
        for _ in range(n):
            while i in used:
                i += 1
            made.append((place, i))
            i += 1
    return tuple(made)


def firings(kernel: Kernel, transitions: tuple, tokens: tuple):
    """Yield (transition, removed mask, created tokens) for every firing of
    the individual token game from the sorted tuple tokens, all victim
    choices, on a net's kernel and transitions: transitions in declaration
    order, victim choices ordered by their sorted tokens."""
    index = kernel.index
    at = positions(tokens)
    # place number -> tokens; a token on a place the net does not declare
    # (a tampered certificate's) enables nothing
    counts = {index[p]: len(js) for p, js in at.items() if p in index}
    for pos in kernel.enabled(counts):
        t = transitions[pos]
        for removed in victims(at, t.pre):
            yield t, removed, create(tokens, at, removed, t.post)


def pick(tokens: tuple, mask: int) -> list:
    """The tokens at the positions of mask; a mask ~removed picks those
    that removed leaves."""
    return [tok for j, tok in enumerate(tokens) if mask >> j & 1]


def boxminus(k: IndexedMarking, m: Multiset) -> set[IndexedMarking]:
    """All indexed markings obtained by deleting m(s) tokens of each place s.

    The result has one member per choice of victims, i.e.
    prod_s C(|k(s)|, m(s)) markings in total.
    """
    tokens = tuple(sorted(k))
    return {frozenset(pick(tokens, ~r)) for r in victims(positions(tokens), m)}


def boxplus(k: IndexedMarking, m: Multiset) -> IndexedMarking:
    """Add one token per unit of m, always at the least free index."""
    tokens = tuple(sorted(k))
    return k | frozenset(create(tokens, positions(tokens), 0, m))


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
    tokens = tuple(sorted(k))
    return [
        IMStep(t.tid, frozenset(pick(tokens, removed)),
               frozenset(pick(tokens, ~removed) + list(created)))
        for t, removed, created in firings(net.kernel, net.transitions, tokens)
    ]


def reachable_im(net: PTNet, k0: IndexedMarking, cap: int) -> frozenset:
    """The finite set IM(N(k0)) of reachable indexed markings.  Raises what
    exploring the marking of k0 under `cap` raises."""
    net.kernel.explore((closed_alpha(k0),), cap)
    kernel, transitions = net.kernel, net.transitions
    found = [tuple(sorted(k0))]
    seen = set(found)
    for tokens in found:
        for _, removed, created in firings(kernel, transitions, tokens):
            target = tuple(sorted(pick(tokens, ~removed) + list(created)))
            if target not in seen:
                seen.add(target)
                found.append(target)
    return frozenset(map(frozenset, found))


def im_space(net: PTNet, k0: IndexedMarking, cap: int) -> dict:
    """Each indexed marking reachable from k0 -> its `im_successors`."""
    return {k: im_successors(net, k) for k in reachable_im(net, k0, cap)}
