"""Multisets, P/T nets, markings and the collective token game."""

from __future__ import annotations

from collections import abc, deque
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, Union

CountsLike = Union[Mapping[str, int], Iterable[tuple[str, int]], "Multiset", None]


class NetError(ValueError):
    """Malformed net, marking or transition."""


class NotEnabledError(NetError):
    def __init__(self, tid: str, marking: "Multiset"):
        super().__init__(f"transition {tid!r} is not enabled at {marking}")
        self.tid = tid
        self.marking = marking


class BoundExceededError(NetError):
    """Exploration found a marking with more than `cap` tokens on a place."""

    def __init__(self, place: str, marking: "Multiset", cap: int):
        super().__init__(
            f"place {place!r} holds {marking[place]} tokens in {marking}, cap is {cap}"
        )
        self.place = place
        self.marking = marking
        self.cap = cap


class Multiset:
    """Immutable finite multiset over place ids; zero-count entries are dropped."""

    __slots__ = ("_counts", "_key")

    def __init__(self, counts: CountsLike = None):
        if counts is None:
            items: Iterable[tuple[str, int]] = ()
        elif isinstance(counts, Multiset):
            items = counts._counts.items()
        elif isinstance(counts, abc.Mapping):
            items = counts.items()
        else:
            items = counts
        acc: dict[str, int] = {}
        for place, n in items:
            if not isinstance(n, int) or n < 0:
                raise NetError(f"bad multiplicity {n!r} for {place!r}")
            if n:
                acc[place] = acc.get(place, 0) + n
        self._counts = acc
        self._key = tuple(sorted(acc.items()))

    @classmethod
    def of(cls, *places: str) -> "Multiset":
        """Multiset from place names, repetitions counted."""
        acc: dict[str, int] = {}
        for p in places:
            acc[p] = acc.get(p, 0) + 1
        return cls(acc)

    def __getitem__(self, place: str) -> int:
        return self._counts.get(place, 0)

    def __contains__(self, place: str) -> bool:
        return place in self._counts

    def __iter__(self) -> Iterator[str]:
        return iter(self._counts)

    def items(self) -> Iterator[tuple[str, int]]:
        return iter(self._key)

    @property
    def dom(self) -> frozenset[str]:
        return frozenset(self._counts)

    @property
    def size(self) -> int:
        return sum(self._counts.values())

    def __len__(self) -> int:
        return self.size

    def __bool__(self) -> bool:
        return bool(self._counts)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Multiset) and self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)

    def __add__(self, other: "Multiset") -> "Multiset":
        acc = dict(self._counts)
        for p, n in other._counts.items():
            acc[p] = acc.get(p, 0) + n
        return Multiset(acc)

    def __sub__(self, other: "Multiset") -> "Multiset":
        acc = {p: n - other[p] for p, n in self._counts.items()}
        return Multiset({p: n for p, n in acc.items() if n > 0})

    def __le__(self, other: "Multiset") -> bool:
        return all(n <= other[p] for p, n in self._counts.items())

    def times(self, j: int) -> "Multiset":
        if j < 0:
            raise NetError("scalar must be non-negative")
        return Multiset({p: j * n for p, n in self._counts.items()})

    def __repr__(self) -> str:
        if not self._counts:
            return "0"
        return " + ".join(
            p if n == 1 else f"{n}*{p}" for p, n in self._key
        )


EMPTY = Multiset()


@dataclass(frozen=True)
class Transition:
    tid: str
    label: str
    pre: Multiset
    post: Multiset

    def __post_init__(self):
        if not self.pre:
            raise NetError(f"transition {self.tid!r} has an empty preset")


@dataclass(frozen=True)
class PTNet:
    places: tuple[str, ...]
    labels: frozenset[str]
    transitions: tuple[Transition, ...]
    _by_id: dict = field(init=False, repr=False, compare=False, hash=False)
    # place -> positions, in declaration order, of the transitions whose
    # preset contains it; places no transition consumes from are absent.
    _consumers: dict = field(init=False, repr=False, compare=False, hash=False)

    def __post_init__(self):
        place_set = set(self.places)
        if len(place_set) != len(self.places):
            raise NetError("duplicate place ids")
        by_id: dict[str, Transition] = {}
        consumers: dict[str, list[int]] = {}
        for pos, t in enumerate(self.transitions):
            if t.tid in by_id:
                raise NetError(f"duplicate transition id {t.tid!r}")
            by_id[t.tid] = t
            if t.label not in self.labels:
                raise NetError(f"label {t.label!r} of {t.tid!r} not declared")
            for p in set(t.pre) | set(t.post):
                if p not in place_set:
                    raise NetError(f"place {p!r} of {t.tid!r} not declared")
            for p in t.pre:
                consumers.setdefault(p, []).append(pos)
        object.__setattr__(self, "_by_id", by_id)
        object.__setattr__(
            self, "_consumers", {p: tuple(ts) for p, ts in consumers.items()}
        )

    @classmethod
    def make(
        cls,
        places: Iterable[str],
        transitions: Iterable[Transition],
        labels: Iterable[str] = (),
    ) -> "PTNet":
        """Build a net, inferring the label set from the transitions."""
        transitions = tuple(transitions)
        all_labels = frozenset(labels) | frozenset(t.label for t in transitions)
        return cls(tuple(places), all_labels, transitions)

    def transition(self, tid: str) -> Transition:
        try:
            return self._by_id[tid]
        except KeyError:
            raise NetError(f"unknown transition {tid!r}") from None

    def check_marking(self, m: Multiset) -> None:
        extra = m.dom - set(self.places)
        if extra:
            raise NetError(f"marking mentions undeclared places {sorted(extra)}")


@dataclass(frozen=True)
class NetSystem:
    net: PTNet
    initial: Multiset

    def __post_init__(self):
        self.net.check_marking(self.initial)


def _enabled_transitions(net: PTNet, m: Multiset) -> list[Transition]:
    """The transitions enabled at m, in declaration order.

    Every transition has a non-empty preset (Transition.__post_init__), so
    an enabled transition consumes from some place marked in m: visiting
    the consumers of the marked places finds all of them.
    """
    consumers = net._consumers
    marked = [consumers[p] for p in m if p in consumers]
    if len(marked) == 1:
        positions = marked[0]
    else:
        positions = sorted(set().union(*marked))
    transitions = net.transitions
    return [transitions[i] for i in positions if transitions[i].pre <= m]


def enabled(net: PTNet, m: Multiset) -> list[str]:
    """Transition ids enabled at m, in declaration order.

    The cost is proportional to the number of transitions that consume from
    the places marked in m, not to the size of the net.
    """
    return [t.tid for t in _enabled_transitions(net, m)]


def fire(net: PTNet, m: Multiset, tid: str) -> Multiset:
    """Fire `tid` at m under the collective token game."""
    t = net.transition(tid)
    if not t.pre <= m:
        raise NotEnabledError(tid, m)
    return (m - t.pre) + t.post


@dataclass(frozen=True)
class ReachabilityResult:
    markings: frozenset[Multiset]
    least_bound: int


def _check_cap(m: Multiset, cap: int) -> None:
    for p, n in m.items():
        if n > cap:
            raise BoundExceededError(p, m, cap)


def _explore(start, successors, marking, cap: int) -> set:
    """Every state reachable from start, breadth first; successors(x) lists
    the states one step from x.  Raises BoundExceededError at the first
    state found whose marking(x) puts more than `cap` tokens on a place,
    and NetError if cap is not positive."""
    if cap < 1:
        raise NetError("cap must be positive")
    _check_cap(marking(start), cap)
    seen = {start}
    queue = deque(seen)
    while queue:
        for x in successors(queue.popleft()):
            if x not in seen:
                _check_cap(marking(x), cap)
                seen.add(x)
                queue.append(x)
    return seen


def reachable(sys: NetSystem, cap: int) -> ReachabilityResult:
    """All reachable markings, verifying the net is cap-bounded.

    Raises BoundExceededError as soon as a marking puts more than `cap`
    tokens on some place; the reported least_bound is the exact bound.
    """
    net = sys.net
    seen = _explore(sys.initial,
                    lambda m: [fire(net, m, tid) for tid in enabled(net, m)],
                    lambda m: m, cap)
    least = max((n for m in seen for _, n in m.items()), default=0)
    return ReachabilityResult(frozenset(seen), least)
