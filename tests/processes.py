"""Causal nets, processes (foldings) and process sequences: the paper's
bridge between processes and ordered indexed markings, kept as a test-side
reference that `step_rows` and the token preorders are checked against.

A process is a causal net C plus a folding of its conditions/events onto
the places/transitions of a P/T net.  A process sequence additionally
carries a bijection delta between the maximal conditions of C and the
tokens of a concrete ordered indexed marking, so that each abstract run
pins down exactly one ordered indexed marking.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations, product

from netbisim.nets import Multiset, NetError, PTNet
from netbisim.indexed import IndexedMarking, Token, alpha, boxplus, is_closed
from netbisim.oracle import _preset_choices
from netbisim.ordered import OrderedIndexedMarking, init_oim


class InvalidDeltaError(NetError):
    """delta is not a place-respecting bijection onto the expected tokens."""


class Process:
    """A causal net folded onto a P/T net; treat instances as immutable.

    Condition and event ids are sequence numbers in creation order
    (b1, b2, ... / e1, e2, ...).
    """

    __slots__ = (
        "net", "cond_place", "event_trans", "cond_pre", "cond_post",
        "event_pre", "event_post", "event_seq", "_next_b", "_next_e",
    )

    def __init__(self, net: PTNet, m0: Multiset):
        self.net = net
        net.check_marking(m0)
        self.cond_place: dict[str, str] = {}
        self.event_trans: dict[str, str] = {}
        self.cond_pre: dict[str, str | None] = {}   # producing event
        self.cond_post: dict[str, str | None] = {}  # consuming event
        self.event_pre: dict[str, frozenset] = {}
        self.event_post: dict[str, frozenset] = {}
        self.event_seq: tuple[str, ...] = ()
        n = 0
        for place, count in m0.items():
            for _ in range(count):
                n += 1
                b = f"b{n}"
                self.cond_place[b] = place
                self.cond_pre[b] = None
                self.cond_post[b] = None
        self._next_b = n + 1
        self._next_e = 1

    def _clone(self) -> "Process":
        new = object.__new__(Process)
        new.net = self.net
        new.cond_place = dict(self.cond_place)
        new.event_trans = dict(self.event_trans)
        new.cond_pre = dict(self.cond_pre)
        new.cond_post = dict(self.cond_post)
        new.event_pre = dict(self.event_pre)
        new.event_post = dict(self.event_post)
        new.event_seq = self.event_seq
        new._next_b = self._next_b
        new._next_e = self._next_e
        return new

    @property
    def minimal(self) -> frozenset:
        return frozenset(b for b, e in self.cond_pre.items() if e is None)

    @property
    def maximal(self) -> frozenset:
        return frozenset(b for b, e in self.cond_post.items() if e is None)

    def fold(self, conditions) -> Multiset:
        return Multiset.of(*(self.cond_place[b] for b in conditions))


def _nat(ident: str) -> tuple[str, int]:
    return (ident[0], int(ident[1:]))


def empty_process(net: PTNet, m0: Multiset) -> Process:
    """The process with |m0| conditions and no events."""
    return Process(net, m0)


@dataclass(frozen=True)
class Extension:
    """One possible move of a process: a fresh event over preset conditions."""

    base: Process
    eid: str
    tid: str
    preset: frozenset  # frozenset[condition-id], subset of base.maximal
    new_conditions: tuple[str, ...]  # in creation order, folded onto tid's post
    process: Process


def process_extensions(net: PTNet, p: Process) -> list[Extension]:
    """All one-step moves of p: every transition, every preset choice.

    Preset choices equal as condition sets are enumerated once.
    """
    by_place: dict[str, list[str]] = {}
    for b in sorted(p.maximal, key=_nat):
        by_place.setdefault(p.cond_place[b], []).append(b)
    return [_extend(p, t.tid, preset) for t in net.transitions
            for preset in _preset_choices(by_place, t.pre)]


def _extend(p: Process, tid: str, preset: frozenset) -> Extension:
    t = p.net.transition(tid)
    new = p._clone()
    eid = f"e{new._next_e}"
    new._next_e += 1
    new.event_trans[eid] = tid
    new.event_pre[eid] = preset
    for b in preset:
        new.cond_post[b] = eid
    fresh = []
    for place, count in t.post.items():
        for _ in range(count):
            b = f"b{new._next_b}"
            new._next_b += 1
            new.cond_place[b] = place
            new.cond_pre[b] = eid
            new.cond_post[b] = None
            fresh.append(b)
    new.event_post[eid] = frozenset(fresh)
    new.event_seq = p.event_seq + (eid,)
    return Extension(p, eid, tid, preset, tuple(fresh), new)


def event_order(p: Process) -> frozenset:
    """The partial order of events: reflexive-transitive flow succession."""
    direct: dict[str, set[str]] = {e: set() for e in p.event_seq}
    for e, post in p.event_post.items():
        for b in post:
            consumer = p.cond_post[b]
            if consumer is not None:
                direct[e].add(consumer)
    pairs = set()
    for e in p.event_seq:
        stack = [e]
        seen = set()
        while stack:
            cur = stack.pop()
            if cur in seen:
                continue
            seen.add(cur)
            pairs.add((e, cur))
            stack.extend(direct[cur])
    return frozenset(pairs)


def event_leq(p: Process, e1: str, e2: str) -> bool:
    return (e1, e2) in event_order(p)


@dataclass(frozen=True)
class ProcessSequence:
    """A process run synchronized with a concrete OIM execution via delta."""

    process: Process
    trace: tuple[str, ...]
    delta: tuple  # sorted tuple[(condition-id, Token)], bijective onto oim.tokens
    oim: OrderedIndexedMarking
    k0: IndexedMarking

    @property
    def delta_map(self) -> dict[str, Token]:
        return dict(self.delta)


def _check_delta(p: Process, mapping: dict[str, Token], tokens: frozenset) -> None:
    if set(mapping) != set(p.maximal):
        raise InvalidDeltaError("delta domain is not Max(C)")
    if set(mapping.values()) != set(tokens) or len(set(mapping.values())) != len(mapping):
        raise InvalidDeltaError("delta is not a bijection onto the tokens")
    for b, (place, _) in mapping.items():
        if p.cond_place[b] != place:
            raise InvalidDeltaError(f"delta maps {b} ({p.cond_place[b]}) to {place}")


def trivial_delta0(p: Process, k0: IndexedMarking) -> dict[str, Token]:
    """Pair same-place conditions and tokens in creation/index order."""
    by_place: dict[str, list[str]] = {}
    for b in sorted(p.maximal, key=_nat):
        by_place.setdefault(p.cond_place[b], []).append(b)
    mapping = {}
    for place, conds in by_place.items():
        toks = sorted((pl, i) for pl, i in k0 if pl == place)
        for b, tok in zip(conds, toks):
            mapping[b] = tok
    return mapping


def ps_init(net: PTNet, k0: IndexedMarking,
            delta0: dict[str, Token] | None = None) -> ProcessSequence:
    """The empty process sequence; delta0 defaults to the trivial pairing."""
    if not is_closed(k0):
        raise NetError("initial indexed marking must be closed")
    p = empty_process(net, alpha(k0))
    if delta0 is None:
        delta0 = trivial_delta0(p, k0)
    _check_delta(p, delta0, k0)
    return ProcessSequence(p, (), tuple(sorted(delta0.items())), init_oim(k0), k0)


def _step_tokens(ps: ProcessSequence, ext: Extension) -> tuple:
    """The tokens of ps.oim that ext deletes and leaves untouched, and the
    tokens it creates by least-free-index creation."""
    delta = ps.delta_map
    deleted = frozenset(delta[b] for b in ext.preset)
    untouched = ps.oim.tokens - deleted
    post = ps.process.net.transition(ext.tid).post
    return deleted, untouched, boxplus(untouched, post) - untouched


def ps_step(ps: ProcessSequence, ext: Extension,
            assignment: dict[str, Token]) -> ProcessSequence:
    """Extend a process sequence by one event.

    `assignment` maps the event's fresh postset conditions onto the tokens
    that least-free-index creation produces at their folded places.
    """
    if ext.base is not ps.process:
        raise NetError("extension does not extend this process sequence")
    p2 = ext.process
    deleted, untouched, created = _step_tokens(ps, ext)

    if set(assignment) != set(ext.new_conditions):
        raise InvalidDeltaError("assignment domain must be the fresh conditions")
    if set(assignment.values()) != set(created) or len(created) != len(assignment):
        raise InvalidDeltaError("assignment is not onto the created tokens")
    for b, (place, _) in assignment.items():
        if p2.cond_place[b] != place:
            raise InvalidDeltaError(f"{b} folds to {p2.cond_place[b]}, not {place}")

    delta2 = {b: tok for b, tok in ps.delta if b not in ext.preset}
    delta2.update(assignment)
    # The order clauses on token pairs: (1) untouched pairs keep their
    # relation, (2) created tokens form a clique, (3) an untouched token
    # below a deleted one before the firing is below every created one.
    old = ps.oim.order
    below = {a for a, d in old if d in deleted and a in untouched}
    order = frozenset({(a, b) for a, b in old if a in untouched and b in untouched}
                      | {(a, b) for a in below | created for b in created})
    return ProcessSequence(
        p2, ps.trace + (ext.eid,), tuple(sorted(delta2.items())),
        OrderedIndexedMarking(untouched | created, order), ps.k0,
    )


def step_assignments(ps: ProcessSequence, ext: Extension) -> list[dict[str, Token]]:
    """All place-respecting bijections from the fresh conditions onto the
    tokens the step will create."""
    _, _, created = _step_tokens(ps, ext)

    conds_by_place: dict[str, list[str]] = {}
    for b in ext.new_conditions:
        conds_by_place.setdefault(ext.process.cond_place[b], []).append(b)
    toks_by_place: dict[str, list[Token]] = {}
    for tok in sorted(created):
        toks_by_place.setdefault(tok[0], []).append(tok)

    per_place = []
    for place, conds in conds_by_place.items():
        toks = toks_by_place.get(place, [])
        per_place.append([list(zip(conds, perm)) for perm in permutations(toks)])
    out = []
    for combo in product(*per_place):
        out.append({b: tok for group in combo for b, tok in group})
    return out


def ps_successors(ps: ProcessSequence):
    """All one-step extensions of ps, over every preset choice and every
    fresh-token assignment."""
    for ext in process_extensions(ps.process.net, ps.process):
        for assignment in step_assignments(ps, ext):
            yield ext, assignment, ps_step(ps, ext, assignment)
