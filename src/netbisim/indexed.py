"""Indexed markings and the individual-token game.

A token is a (place, index) pair; an indexed marking is a frozenset of
tokens.  Token deletion is nondeterministic (every choice of victims is
returned), token creation always picks the least free index per place.
Both are computed on int masks over a `TokenBits` numbering; the
frozenset functions decode their results.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from itertools import combinations

from .nets import Kernel, Multiset, NetError, PTNet, Transition

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


def is_closed(k: IndexedMarking) -> bool:
    """True iff every place's indices are exactly 1..n, with no holes."""
    per_place: dict[str, set[int]] = {}
    for place, i in k:
        per_place.setdefault(place, set()).add(i)
    return all(idx == set(range(1, len(idx) + 1)) for idx in per_place.values())


def initial_indexed(m: Multiset) -> IndexedMarking:
    """The unique closed indexed marking projecting onto m."""
    return frozenset((p, i) for p, n in m.items() for i in range(1, n + 1))


class TokenBits:
    """A numbering of tokens by bits: the i-th token numbered is the int
    1 << i, and a set of tokens is the OR of their bits (a mask).  Tokens
    are numbered on first use, so the numbering depends on no bound."""

    def __init__(self):
        self.tokens: list[Token] = []  # bit position -> token
        self.bit: dict[Token, int] = {}  # token -> 1 << position
        # place -> [(index, bit)] of its numbered tokens, sorted by index
        self.places: dict[str, list[tuple[int, int]]] = {}
        self.firsts = 0  # the mask of the numbered tokens of index 1

    def of(self, tok: Token) -> int:
        b = self.bit.get(tok)
        if b is None:
            b = self.bit[tok] = 1 << len(self.tokens)
            self.tokens.append(tok)
            place = self.places.get(tok[0])
            if place is None:
                self.places[tok[0]] = [(tok[1], b)]
            else:
                insort(place, (tok[1], b))
            if tok[1] == 1:
                self.firsts |= b
        return b

    def mask(self, k) -> int:
        m = 0
        for tok in k:
            m |= self.of(tok)
        return m

    def decode(self, mask: int) -> list[Token]:
        """The tokens of mask, in bit order."""
        tokens = self.tokens
        out = []
        while mask:
            low = mask & -mask
            out.append(tokens[low.bit_length() - 1])
            mask ^= low
        return out

    def victims(self, mask: int, m: Multiset) -> list[int]:
        """The masks of every choice of m(s) tokens of each place s in mask,
        ordered by their sorted tokens."""
        choices = [0]
        for place, n in m.items():
            present = [b for _, b in self.places.get(place, ()) if mask & b]
            if n > len(present):
                raise InsufficientTokensError(place)
            picks = [sum(c) for c in combinations(present, n)]
            choices = [r | c for r in choices for c in picks]
        return choices

    def create(self, mask: int, m: Multiset) -> int:
        """The mask of the tokens that adding m to mask creates, each at the
        least index its place has free."""
        made = 0
        for place, n in m.items():
            for _ in range(n):
                i = 1
                for index, b in self.places.get(place, ()):
                    if index < i:
                        continue
                    if index > i or not (mask | made) & b:
                        break
                    i += 1
                made |= self.of((place, i))
        return made

    def firings(self, kernel: Kernel, transitions: tuple,
                mask: int) -> list[tuple[Transition, int, int]]:
        """(transition, removed, created) for every firing of the individual
        token game from mask, all victim choices, on a net's kernel and
        transitions: transitions in declaration order, victim choices
        ordered by their sorted tokens."""
        tokens = self.tokens
        index = kernel.index
        # place number -> tokens; a token on a place the net does not
        # declare (a tampered certificate's) enables nothing
        counts: dict[int, int] = {}
        rest = mask
        while rest:
            low = rest & -rest
            i = index.get(tokens[low.bit_length() - 1][0])
            if i is not None:
                counts[i] = counts.get(i, 0) + 1
            rest ^= low
        out = []
        for pos in kernel.enabled(counts):
            t = transitions[pos]
            for removed in self.victims(mask, t.pre):
                out.append((t, removed, self.create(mask & ~removed, t.post)))
        return out


def boxminus(k: IndexedMarking, m: Multiset) -> set[IndexedMarking]:
    """All indexed markings obtained by deleting m(s) tokens of each place s.

    The result has one member per choice of victims, i.e.
    prod_s C(|k(s)|, m(s)) markings in total.
    """
    bits = TokenBits()
    mask = bits.mask(k)
    return {frozenset(bits.decode(mask & ~r)) for r in bits.victims(mask, m)}


def boxplus(k: IndexedMarking, m: Multiset) -> IndexedMarking:
    """Add one token per unit of m, always at the least free index."""
    bits = TokenBits()
    mask = bits.mask(k)
    return frozenset(bits.decode(mask | bits.create(mask, m)))


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
    bits = TokenBits()
    mask = bits.mask(k)
    return [
        IMStep(t.tid, frozenset(bits.decode(removed)),
               frozenset(bits.decode(mask & ~removed | created)))
        for t, removed, created in bits.firings(net.kernel, net.transitions,
                                                mask)
    ]


def reachable_im(net: PTNet, k0: IndexedMarking, cap: int) -> frozenset:
    """The finite set IM(N(k0)) of reachable indexed markings.  Raises what
    exploring the marking of k0 under `cap` raises."""
    if not is_closed(k0):
        raise NetError("initial indexed marking must be closed")
    net.kernel.explore((alpha(k0),), cap)
    bits = TokenBits()
    kernel, transitions = net.kernel, net.transitions
    found = [bits.mask(k0)]
    seen = set(found)
    for mask in found:
        for _, removed, created in bits.firings(kernel, transitions, mask):
            target = mask & ~removed | created
            if target not in seen:
                seen.add(target)
                found.append(target)
    return frozenset(frozenset(bits.decode(mask)) for mask in found)


def im_space(net: PTNet, k0: IndexedMarking, cap: int) -> dict:
    """Each indexed marking reachable from k0 -> its `im_successors`."""
    return {k: im_successors(net, k) for k in reachable_im(net, k0, cap)}
