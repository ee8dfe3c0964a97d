"""Multisets, P/T nets, markings and the collective token game.

Each net is compiled, on first use (`PTNet.kernel`), into a `Kernel` over
ints, where a marking is the sorted tuple of its tokens' places.  One
enabledness test (`Kernel.enabled`) visits only the transitions that
consume from a marked place, and one breadth-first search
(`Kernel.explore`) lists every reachable marking with its successors.
So the cost of a state grows with its tokens and the transitions they
feed, not with the size of the net.  Every explorer, bound check and
decider runs on the kernel, with `Multiset` markings as its boundary
format, and so does the fc/cn game (`PTNet.oim_graph`).
"""

from __future__ import annotations

from collections import abc, deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping, Union

if TYPE_CHECKING:
    from .ordered import OIMGraph

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


class ResourceLimitReached(Exception):
    """The search hit a limit; `limit` names it: "max_triples" or
    "max_seconds"."""

    def __init__(self, limit: str):
        super().__init__(limit)
        self.limit = limit


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
    def _sorted(cls, counts: dict[str, int]) -> "Multiset":
        """The multiset of positive counts whose places are in sorted
        order, taken as they are: nothing is checked or copied."""
        m = cls.__new__(cls)
        m._counts = counts
        m._key = tuple(counts.items())
        return m

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

    def __post_init__(self):
        place_set = set(self.places)
        if len(place_set) != len(self.places):
            raise NetError("duplicate place ids")
        by_id: dict[str, Transition] = {}
        for t in self.transitions:
            if t.tid in by_id:
                raise NetError(f"duplicate transition id {t.tid!r}")
            by_id[t.tid] = t
            if t.label not in self.labels:
                raise NetError(f"label {t.label!r} of {t.tid!r} not declared")
            for p, _ in t.pre._key + t.post._key:
                if p not in place_set:
                    raise NetError(f"place {p!r} of {t.tid!r} not declared")
        object.__setattr__(self, "_by_id", by_id)

    @property
    def kernel(self) -> "Kernel":
        """The net compiled to ints, built on first use; like `oim_graph`,
        the first one stored."""
        kernel = self.__dict__.get("_kernel")
        if kernel is None:
            kernel = self.__dict__.setdefault("_kernel", Kernel(self))
        return kernel

    @property
    def oim_graph(self) -> "OIMGraph":
        """The ordered token game of the net on ints (`ordered.OIMGraph`),
        built on first use.  Threads first using the net together all get
        the first one stored, so each plays on the graph whose lock it
        holds; a `functools.cached_property` keeps the last one stored, as
        it takes no lock since Python 3.12."""
        graph = self.__dict__.get("_oim_graph")
        if graph is None:
            from .ordered import OIMGraph
            graph = self.__dict__.setdefault("_oim_graph", OIMGraph(self))
        return graph

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
        _check_declared(m, self.places)


def _check_declared(m: Multiset, places: Iterable[str]) -> None:
    extra = m.dom.difference(places)
    if extra:
        raise NetError(f"marking mentions undeclared places {sorted(extra)}")


@dataclass(frozen=True)
class NetSystem:
    net: PTNet
    initial: Multiset

    def __post_init__(self):
        self.net.check_marking(self.initial)


class Kernel:
    """A net over ints.  Places are numbered in name order, so a marking,
    the sorted tuple of the numbers of its tokens' places, lists its
    places in the order of `Multiset.items`.  Per transition position:
    `pre`, its preset as (place, weight) pairs in place order; `removed`
    and `added`, its preset and postset as sorted place tuples.
    `consumers[place]` holds, ascending, the positions of the transitions
    whose preset contains the place.  `last` keeps the last `explore`."""

    __slots__ = ("names", "index", "pre", "removed", "added", "consumers",
                 "last")

    def __init__(self, net: PTNet):
        self.names = sorted(net.places)
        self.index = index = {p: i for i, p in enumerate(self.names)}
        consumers: list[list[int]] = [[] for _ in self.names]
        self.pre, self.removed, self.added = pres, removed, added = [], [], []
        for pos, t in enumerate(net.transitions):
            pre, gone, made = [], [], []
            for p, n in t.pre._key:
                i = index[p]
                pre.append((i, n))
                gone += [i] * n
                consumers[i].append(pos)
            for p, n in t.post._key:
                made += [index[p]] * n
            pres.append(tuple(pre))
            removed.append(tuple(gone))
            added.append(tuple(made))
        self.consumers = [tuple(ts) for ts in consumers]
        self.last: tuple = (None, None)

    def encode(self, m: Multiset) -> tuple:
        """The sorted place tuple of m; NetError if m mentions a place
        the net does not declare."""
        index = self.index
        out: list[int] = []
        try:
            for p, n in m.items():
                out += [index[p]] * n
        except KeyError:
            _check_declared(m, index)
            raise
        return tuple(out)

    def decode(self, m: tuple) -> Multiset:
        names = self.names
        counts: dict[str, int] = {}
        for i in m:
            p = names[i]
            counts[p] = counts.get(p, 0) + 1
        return Multiset._sorted(counts)

    def enabled(self, counts: Mapping[int, int]) -> list[int]:
        """The positions, ascending, of the transitions enabled where place
        i holds counts[i] tokens (absent places hold none).

        Every transition has a non-empty preset (Transition.__post_init__),
        so an enabled transition consumes from some marked place: visiting
        the consumers of the marked places finds all of them."""
        consumers = self.consumers
        marked = [ts for ts in map(consumers.__getitem__, counts) if ts]
        if len(marked) == 1:
            positions = marked[0]
        else:
            positions = sorted(set().union(*marked))
        pre = self.pre
        out = []
        for t in positions:
            for i, n in pre[t]:
                if counts.get(i, 0) < n:
                    break
            else:
                out.append(t)
        return out

    def explore(self, seeds: Iterable[Multiset], cap: int) -> dict:
        """marking -> [(transition position, target marking)], in the
        order of `enabled`, for every marking reachable from a seed.  The
        seeds are explored breadth first one after the other, and a seed
        already reached is skipped.  Raises BoundExceededError at the first
        marking found that puts more than `cap` tokens on a place, and
        NetError if cap is not positive.  Callers only read the dict: a
        call with the seeds, in order, and cap of the last call that
        returned gets its dict, so fc, cn and il explore a pair once."""
        if cap < 1:
            raise NetError("cap must be positive")
        key, last = (tuple(seeds), cap), self.last
        if last[0] == key:
            return last[1]
        enabled, removed, added = self.enabled, self.removed, self.added
        succ: dict[tuple, list] = {}
        for seed in key[0]:
            _check_cap(seed, cap)  # before a huge seed is expanded
            start = self.encode(seed)
            if start in succ:
                continue
            succ[start] = []
            queue = deque((start,))
            while queue:
                m = queue.popleft()
                counts: dict[int, int] = {}
                for i in m:
                    counts[i] = counts.get(i, 0) + 1
                out = succ[m]
                for t in enabled(counts):
                    gone = removed[t]
                    if gone == m:
                        nxt = added[t]
                    else:
                        rest = list(m)
                        for i in gone:
                            rest.remove(i)
                        rest += added[t]
                        rest.sort()
                        nxt = tuple(rest)
                    out.append((t, nxt))
                    if nxt not in succ:
                        if len(nxt) > cap and _over(nxt, cap):
                            _check_cap(self.decode(nxt), cap)
                        succ[nxt] = []
                        queue.append(nxt)
        self.last = key, succ
        return succ


def _over(m: tuple, cap: int) -> bool:
    """Whether some place holds more than cap tokens in the sorted place
    tuple m: whether one place number repeats cap + 1 times in a row."""
    return any(m[j] == m[j + cap] for j in range(len(m) - cap))


def enabled(net: PTNet, m: Multiset) -> list[str]:
    """Transition ids enabled at m, in declaration order.

    The cost is proportional to the number of transitions that consume from
    the places marked in m, not to the size of the net.
    """
    kernel = net.kernel
    index = kernel.index
    transitions = net.transitions
    return [transitions[t].tid for t in kernel.enabled(
        {index[p]: n for p, n in m.items() if p in index})]


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
    """Raise BoundExceededError for the first place of m, in name order,
    that holds more than cap tokens."""
    for p, n in m.items():
        if n > cap:
            raise BoundExceededError(p, m, cap)


def reachable(sys: NetSystem, cap: int) -> ReachabilityResult:
    """All reachable markings, verifying the net is cap-bounded.

    Raises BoundExceededError as soon as a marking puts more than `cap`
    tokens on some place; the reported least_bound is the exact bound.
    """
    kernel = sys.net.kernel
    succ = kernel.explore((sys.initial,), cap)
    least = 0
    for m in succ:
        while len(m) > least and _over(m, least):
            least += 1
    return ReachabilityResult(frozenset(map(kernel.decode, succ)), least)
