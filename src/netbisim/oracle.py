"""Independent oracle: the literal process-based bisimulation games.

The fully-concurrent game is played on triples (pi1, f, pi2) where f is a
label-preserving order isomorphism between the events of the two
processes, extended one event at a time.  The causal-net game is played
on triples (rho1, C, rho2): a single causal net C carrying two foldings,
so the attacker fixes the preset inside C and the defender only chooses
the transition and the folding of the fresh conditions.

States are memoized up to isomorphism via a canonical key (the minimum
over all topological orderings of the paired-event encoding).  The
evaluation is three-valued and depth-bounded: a state is winning for the
defender when every branch closes (deadlocks or hits a winning state),
losing when the attacker forces a failure, unknown past the depth.  It
runs on an explicit stack, so the depth is bounded by the caller, not by
the interpreter's recursion limit.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product

from .nets import Multiset, NetError, PTNet
from .engine import BisimVerdict

# The value of a state is the outcome of the game played from it.
WIN, LOSE, UNKNOWN = "equivalent", "not-equivalent", "unknown"


def _preset_choices(groups: dict[str, list], need: Multiset):
    """Every way to pick need(p) of the conditions groups[p] for each place
    p, as one frozenset; none when some place has too few."""
    pools = []
    for place, n in need.items():
        avail = groups.get(place, [])
        if len(avail) < n:
            return
        pools.append(combinations(avail, n))
    for choice in product(*pools):
        yield frozenset(b for group in choice for b in group)


def _groups(conds: tuple, consumed: frozenset) -> dict[str, list[int]]:
    """The unconsumed conditions, by place."""
    groups: dict[str, list[int]] = {}
    for i, (_, place) in enumerate(conds):
        if i not in consumed:
            groups.setdefault(place, []).append(i)
    return groups


def _moves(transitions, groups: dict[str, list[int]]):
    """(transition, preset) pairs: each transition, every preset choice."""
    for t in transitions:
        for preset in _preset_choices(groups, t.pre):
            yield t, preset


def _places(m: Multiset) -> list[str]:
    """The places of m, each repeated by its count, in sorted order."""
    return [p for p, n in m.items() for _ in range(n)]


def _min_encoding(anc: tuple, encode) -> tuple:
    """The least encode(order, pos) over all linearizations of the events
    0..len(anc)-1 respecting the ancestor sets.  pos maps each event to its
    position in the order and -1 to -1, so an encoder writes each condition
    with its producer replaced by pos."""
    strict = [a - {e} for e, a in enumerate(anc)]
    pos = {-1: -1}
    least = None
    stack = [((), frozenset(range(len(anc))))]
    while stack:
        placed, remaining = stack.pop()
        if not remaining:
            pos.update(zip(placed, range(len(placed))))
            code = encode(placed, pos)
            if least is None or code < least:
                least = code
        for e in remaining:
            if strict[e].isdisjoint(remaining):
                stack.append((placed + (e,), remaining - {e}))
    return least


# ---------------------------------------------------------------------------
# game state: two processes with paired events
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GameState:
    """Two processes whose event i is paired with each other's event i.

    Conditions are (producer event index | -1, place).  Both processes
    have one causal order, `anc`: in fc the defender must answer with an
    event whose causes pair with the attacker's, and in cn the two
    processes are one causal net folded twice, so condition i of one side
    is condition i of the other and both sides consume the same indices.
    """

    conds1: tuple  # tuple[(int, str)]
    consumed1: frozenset  # condition indices
    conds2: tuple
    consumed2: frozenset
    # per event: (tid1, preset1 indices, tid2, preset2 indices)
    events: tuple
    anc: tuple  # per event: frozenset of ancestor event indices (incl. self)


def _cond_ancestors(conds: tuple, preset: frozenset, anc: tuple) -> frozenset:
    acc: set[int] = set()
    for i in preset:
        producer = conds[i][0]
        if producer >= 0:
            acc |= anc[producer]
    return frozenset(acc)


def _extend(s: GameState, side: int, attack: tuple, answer: tuple) -> GameState:
    """s plus one event pair, the attack on `side`; each move is (tid,
    preset, the places of its fresh conditions)."""
    moves = (attack, answer) if side == 1 else (answer, attack)
    (tid1, preset1, post1), (tid2, preset2, post2) = moves
    e = len(s.events)
    return GameState(
        s.conds1 + tuple((e, p) for p in post1), s.consumed1 | preset1,
        s.conds2 + tuple((e, p) for p in post2), s.consumed2 | preset2,
        s.events + ((tid1, preset1, tid2, preset2),),
        s.anc + (_cond_ancestors(s.conds1, preset1, s.anc) | {e},),
    )


def _attacks(net: PTNet, s: GameState):
    """(side, transition, preset) for every attacker option."""
    for side, conds, consumed in ((1, s.conds1, s.consumed1),
                                  (2, s.conds2, s.consumed2)):
        for t, preset in _moves(net.transitions, _groups(conds, consumed)):
            yield side, t, preset


# ---------------------------------------------------------------------------
# fully-concurrent game: the defender answers with any event whose causes
# match, so f stays a label-preserving order isomorphism
# ---------------------------------------------------------------------------


def _fc_inits(m1: Multiset, m2: Multiset) -> list[GameState]:
    c1 = tuple((-1, p) for p in _places(m1))
    c2 = tuple((-1, p) for p in _places(m2))
    return [GameState(c1, frozenset(), c2, frozenset(), (), ())]


def _fc_responses(net: PTNet, s: GameState, side, t, preset):
    """Successor states for every admissible defender answer."""
    sides = ((s.conds1, s.consumed1), (s.conds2, s.consumed2))
    (conds, _), (dconds, dconsumed) = sides if side == 1 else sides[::-1]
    anc_new = _cond_ancestors(conds, preset, s.anc)
    attack = (t.tid, preset, _places(t.post))
    same = (dt for dt in net.transitions if dt.label == t.label)
    for dt, dpreset in _moves(same, _groups(dconds, dconsumed)):
        if _cond_ancestors(dconds, dpreset, s.anc) != anc_new:
            continue  # f' would not be an order isomorphism
        yield _extend(s, side, attack, (dt.tid, dpreset, _places(dt.post)))


def _fc_key(s: GameState):
    c1, c2, events = s.conds1, s.conds2, s.events

    def encode(order, pos):
        return tuple(
            (tid1, tuple(sorted([(pos[c1[i][0]], c1[i][1]) for i in pre1])),
             tid2, tuple(sorted([(pos[c2[i][0]], c2[i][1]) for i in pre2])))
            for tid1, pre1, tid2, pre2 in map(events.__getitem__, order)
        )

    init1 = tuple(sorted(p for prod, p in c1 if prod == -1))
    init2 = tuple(sorted(p for prod, p in c2 if prod == -1))
    return ("fc", init1, init2, _min_encoding(s.anc, encode))


# ---------------------------------------------------------------------------
# causal-net game: the defender keeps the causal net, so it answers on the
# attacker's preset and only chooses the transition and the pairing of the
# fresh conditions
# ---------------------------------------------------------------------------


def _pairings(left: list[str], right: list[str]) -> list[tuple]:
    """Each distinct one-to-one pairing of the places left with the places
    right (both sorted), as a sorted tuple of (left place, right place)
    pairs, in sorted order.  Each is built once: a left place takes each
    distinct remaining right place, and equal left places take right places
    in non-decreasing order."""
    if len(left) != len(right):
        return []
    out = []
    stack = [((), tuple(right))]  # (pairs so far, right places left over)
    while stack:
        pairs, rest = stack.pop()
        i = len(pairs)
        if i == len(left):
            out.append(pairs)
            continue
        least = pairs[-1][1] if i and left[i - 1] == left[i] else ""
        for j, rp in enumerate(rest):
            if rp >= least and (not j or rest[j - 1] != rp):
                stack.append((pairs + ((left[i], rp),), rest[:j] + rest[j + 1:]))
    return sorted(out)


def _cn_inits(m1: Multiset, m2: Multiset) -> list[GameState]:
    """One state per distinct pairing multiset of the two initial markings."""
    return [
        GameState(tuple((-1, p1) for p1, _ in pairing), frozenset(),
                  tuple((-1, p2) for _, p2 in pairing), frozenset(), (), ())
        for pairing in _pairings(_places(m1), _places(m2))
    ]


def _cn_responses(net: PTNet, s: GameState, side, t, preset):
    """The defender keeps the causal net: same preset, a same-label
    transition consuming the other folding of the preset, and a choice of
    place pairing for the fresh conditions."""
    dconds = s.conds2 if side == 1 else s.conds1
    dpre = Multiset.of(*(dconds[i][1] for i in preset))
    att_post = _places(t.post)
    for dt in net.transitions:
        if dt.label != t.label or dt.pre != dpre:
            continue
        for pairing in _pairings(att_post, _places(dt.post)):
            yield _extend(s, side, (t.tid, preset, [pa for pa, _ in pairing]),
                          (dt.tid, preset, [pd for _, pd in pairing]))


def _cn_key(s: GameState):
    c = tuple((prod, p1, p2) for (prod, p1), (_, p2) in zip(s.conds1, s.conds2))
    events = s.events

    def encode(order, pos):
        return tuple(
            (tid1, tid2,
             tuple(sorted([(pos[c[i][0]], c[i][1], c[i][2]) for i in preset])))
            for tid1, preset, tid2, _ in map(events.__getitem__, order)
        )

    init = tuple(sorted((p1, p2) for prod, p1, p2 in c if prod == -1))
    return ("cn", init, _min_encoding(s.anc, encode))


# flavor -> (initial states, responses, canonical key)
_GAMES = {
    "fc": (_fc_inits, _fc_responses, _fc_key),
    "cn": (_cn_inits, _cn_responses, _cn_key),
}


# ---------------------------------------------------------------------------
# three-valued depth-bounded evaluation
# ---------------------------------------------------------------------------


class _Oracle:
    def __init__(self, net: PTNet, responses, key):
        self.net = net
        self.responses = responses
        self.key = key
        # key -> WIN | LOSE
        self.definitive: dict = {}
        # key -> the greatest depth at which it was found unknown
        self.unknown_at: dict = {}

    def _enter(self, s, depth: int, frames: list):
        """The value of s if it is memoized or immediate; otherwise push
        its frame and return None."""
        key = self.key(s)
        if key in self.definitive:
            return self.definitive[key]
        if key in self.unknown_at and depth <= self.unknown_at[key]:
            return UNKNOWN
        attacks = list(_attacks(self.net, s))
        if not attacks:
            self.definitive[key] = WIN
            return WIN
        if depth == 0:
            self.unknown_at[key] = 0  # not stored yet, or it returned above
            return UNKNOWN
        frames.append((key, depth, self._play(s, attacks)))
        return None

    def _play(self, s, attacks):
        """Play s: yield each successor state whose value is needed and
        receive that value.  Returns the value of s."""
        value = WIN
        for attack in attacks:
            move = LOSE
            for succ in self.responses(self.net, s, *attack):
                v = yield succ
                if v == WIN:
                    move = WIN
                    break
                if v == UNKNOWN:
                    move = UNKNOWN
            if move == LOSE:
                return LOSE
            if move == UNKNOWN:
                value = UNKNOWN
        return value

    def value(self, s, depth: int):
        """WIN | LOSE | UNKNOWN."""
        frames: list = []  # (key, depth, its play)
        answer = self._enter(s, depth, frames)
        while frames:
            key, depth, game = frames[-1]
            try:
                succ = game.send(answer)
            except StopIteration as done:
                frames.pop()
                answer = done.value
                if answer == UNKNOWN:
                    # Any entry for key was made by a deeper frame, at a
                    # smaller depth.
                    self.unknown_at[key] = depth
                else:
                    self.definitive[key] = answer
                continue
            answer = self._enter(succ, depth - 1, frames)
        return answer


def oracle_game(net: PTNet, m1: Multiset, m2: Multiset, flavor: str,
                depth: int) -> BisimVerdict:
    """Play the literal process game to `depth` alternations.

    equivalent  — the game tree closes (every branch deadlocks or repeats
                  up to process isomorphism) within depth;
    not-equivalent — the attacker wins within depth;
    unknown     — the depth ran out first; stats["limit"] is "depth".

    fc has one initial state; cn has one per pairing of the initial
    tokens, and is equivalent iff some pairing wins, not-equivalent iff
    every pairing loses (a size mismatch leaves no pairing at all).
    """
    if flavor not in _GAMES:
        raise NetError(f"unknown flavor {flavor!r}")
    if depth < 1:
        raise NetError("depth must be >= 1")
    net.check_marking(m1)
    net.check_marking(m2)
    inits, *game = _GAMES[flavor]
    oracle = _Oracle(net, *game)
    outcome = LOSE
    for s in inits(m1, m2):
        v = oracle.value(s, depth)
        if v == WIN:
            outcome = WIN
            break
        if v == UNKNOWN:
            outcome = UNKNOWN
    stats = {"states": len(oracle.definitive) + len(oracle.unknown_at)}
    if outcome == UNKNOWN:
        stats["limit"] = "depth"
    return BisimVerdict(outcome, stats=stats)
