"""Decision procedures for OIM- (= fully-concurrent) and OIMC-
(= causal-net) bisimilarity, plus an interleaving baseline.

The decision is an on-the-fly coinductive game over triples
(oim1, oim2, beta), searched depth first on an explicit stack.  Triples
on the stack are assumed winning.  A refuted triple is memoized
permanently as a refutation node, and every triple that was found winning
since it was pushed is withdrawn, since only those can rest on its
assumption; the search then resumes the frame below.  When the stack empties
the winning set is self-supporting (a bisimulation), and refutations share
the node of every triple they cite.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from itertools import product
from typing import Literal, Optional

from .nets import Multiset, NetSystem, PTNet, enabled, fire, reachable
from .indexed import Token, initial_indexed
from .ordered import OIMStep, OrderedIndexedMarking, init_oim, oim_successors

Beta = frozenset  # frozenset[tuple[Token, Token]]
Flavor = Literal["fc", "cn"]


@dataclass(frozen=True)
class GameTriple:
    left: OrderedIndexedMarking
    right: OrderedIndexedMarking
    beta: Beta


@dataclass
class Refutation:
    """Why a triple loses: an attacker move all of whose admissible
    defender responses lead to losing triples (possibly none exist)."""

    triple: GameTriple
    reason: str  # "size-gate" | "move"
    side: Optional[str] = None  # "left" | "right"
    attacker: Optional[OIMStep] = None
    responses: tuple = ()  # tuple[(OIMStep, Refutation)]

    def nodes(self) -> list[Refutation]:
        """The distinct nodes below this one, itself included, each after
        the nodes its responses lead to.  Raises ValueError on a cycle."""
        done: dict[int, Refutation] = {}  # id(node) -> node, children first
        open_ids = {id(self)}
        stack = [(self, iter(self.responses))]
        while stack:
            node, rest = stack[-1]
            for _, sub in rest:
                if id(sub) in open_ids:
                    raise ValueError("refutation leads back to itself")
                if id(sub) not in done:
                    open_ids.add(id(sub))
                    stack.append((sub, iter(sub.responses)))
                    break
            else:
                stack.pop()
                open_ids.discard(id(node))
                done[id(node)] = node
        return list(done.values())

    def principal_moves(self) -> list[tuple[str, str, frozenset]]:
        """The attacker moves along a deepest defender line; of equally deep
        lines, the first response's.  Each node's line length is computed
        once, so the cost is linear in the number of nodes."""
        length: dict[int, int] = {}  # id(node) -> moves on its deepest line
        for node in self.nodes():
            length[id(node)] = 0 if node.attacker is None else 1 + max(
                (length[id(sub)] for _, sub in node.responses), default=0
            )
        out = []
        node = self
        while node is not None and node.attacker is not None:
            out.append((node.side, node.attacker.tid, node.attacker.removed))
            node = max(
                (sub for _, sub in node.responses),
                key=lambda r: length[id(r)],
                default=None,
            )
        return out


@dataclass
class BisimVerdict:
    outcome: str  # "equivalent" | "not-equivalent" | "unknown"
    witness: Optional[frozenset] = None  # frozenset[GameTriple] when equivalent
    refutation: Optional[Refutation] = None
    stats: dict = field(default_factory=dict)


@dataclass
class Limits:
    max_triples: int = 2_000_000
    max_seconds: Optional[float] = None


class ResourceLimitReached(Exception):
    pass


def beta_update(untouched1, generated1, untouched2, generated2, beta: Beta) -> Beta:
    """beta' = beta restricted to untouched x untouched, plus all pairs of
    freshly generated tokens."""
    pairs = {(a, b) for a, b in beta if a in untouched1 and b in untouched2}
    pairs.update(product(generated1, generated2))
    return frozenset(pairs)


def deleted_condition_fc(removed1, removed2, leq1, leq2, beta: Beta) -> bool:
    """Every deleted token must be below some deleted token that is
    beta-related to a token deleted on the other side."""
    related1, related2 = set(), set()  # deleted tokens with a deleted partner
    for q1 in removed1:
        for q2 in removed2:
            if (q1, q2) in beta:
                related1.add(q1)
                related2.add(q2)
    for removed, leq, related in ((removed1, leq1, related1),
                                  (removed2, leq2, related2)):
        for p in removed:
            for q in related:
                if (p, q) in leq:
                    break
            else:
                return False
    return True


def deleted_condition_cn(removed1, removed2, beta: Beta) -> bool:
    """True iff the two removed sets are bijectively related by beta
    (perfect matching over beta-pairs, via augmenting paths)."""
    left = sorted(removed1)
    right = sorted(removed2)
    if len(left) != len(right):
        return False
    adj = {a: [b for b in right if (a, b) in beta] for a in left}
    match: dict[Token, Token] = {}  # right token -> left token

    def augment(a, seen) -> bool:
        for b in adj[a]:
            if b in seen:
                continue
            seen.add(b)
            if b not in match or augment(match[b], seen):
                match[b] = a
                return True
        return False

    return all(augment(a, set()) for a in left)


class _Search:
    def __init__(self, net: PTNet, flavor: Flavor, limits: Limits):
        self.net = net
        self.flavor = flavor
        self.limits = limits
        self.moves: dict[OrderedIndexedMarking, list[OIMStep]] = {}
        self.shared: dict[OrderedIndexedMarking, OrderedIndexedMarking] = {}
        self.false_memo: dict[GameTriple, Refutation] = {}
        self.explored = 0
        self.t0 = time.monotonic()

    def successors(self, o: OrderedIndexedMarking) -> list[OIMStep]:
        """The steps from o.  Equal targets are one object, so that equal
        triples over them compare their markings by identity."""
        moves = self.moves.get(o)
        if moves is None:
            moves = self.moves[o] = [
                OIMStep(s.tid, s.removed, self.shared.setdefault(s.target, s.target))
                for s in oim_successors(self.net, o)
            ]
        return moves

    def _tick(self):
        self.explored += 1
        if self.explored > self.limits.max_triples:
            raise ResourceLimitReached
        if (
            self.limits.max_seconds is not None
            and time.monotonic() - self.t0 > self.limits.max_seconds
        ):
            raise ResourceLimitReached

    def successor_triple(self, triple: GameTriple, left_step: OIMStep,
                         right_step: OIMStep) -> GameTriple:
        u1 = triple.left.tokens - left_step.removed
        g1 = left_step.target.tokens - u1
        u2 = triple.right.tokens - right_step.removed
        g2 = right_step.target.tokens - u2
        beta2 = beta_update(u1, g1, u2, g2, triple.beta)
        return GameTriple(left_step.target, right_step.target, beta2)

    def admissible(self, triple: GameTriple, attack: OIMStep,
                   attacker_left: bool, responses: list[OIMStep]):
        """Yield (response, successor triple) for each defender response
        with the attack's label that meets the deleted-token condition,
        in the order of `responses`."""
        transition = self.net.transition
        label = transition(attack.tid).label
        beta = triple.beta
        for resp in responses:
            if transition(resp.tid).label != label:
                continue
            left, right = (attack, resp) if attacker_left else (resp, attack)
            if self.flavor == "cn":
                ok = deleted_condition_cn(left.removed, right.removed, beta)
            else:
                ok = deleted_condition_fc(left.removed, right.removed,
                                          triple.left.order, triple.right.order,
                                          beta)
            if ok:
                yield resp, self.successor_triple(triple, left, right)

    def evaluate(self, triple: GameTriple):
        """Play one triple: yield each successor triple whose value is
        needed and receive True if it wins, otherwise its refutation node
        (a caller that needs no refutation may send False).  Returns None
        if the triple survives, otherwise its refutation node."""
        if self.flavor == "cn" and len(triple.left.tokens) != len(triple.right.tokens):
            return Refutation(triple, "size-gate")
        left_moves = self.successors(triple.left)
        right_moves = self.successors(triple.right)
        for attacker_left, attacks, responses in (
            (True, left_moves, right_moves),
            (False, right_moves, left_moves),
        ):
            for attack in attacks:
                refuted = []
                for resp, nxt in self.admissible(
                        triple, attack, attacker_left, responses):
                    node = yield nxt
                    if node is True:
                        break
                    refuted.append((resp, node))
                else:
                    return Refutation(
                        triple, "move", "left" if attacker_left else "right",
                        attack, tuple(refuted),
                    )
        return None

    def run(self, root: GameTriple):
        """(True, winning set) or (False, refutation of the root)."""
        # The triples on the stack and those found winning, in the order
        # they were pushed.  A triple found winning rests only on triples
        # pushed before it, so refuting a triple withdraws exactly the
        # entries from its own onwards.
        assumed: dict[GameTriple, None] = {root: None}
        self._tick()
        # (triple, len(assumed) before its push, its evaluation)
        frames = [(root, 0, self.evaluate(root))]
        answer = None
        while frames:
            triple, mark, game = frames[-1]
            try:
                nxt = game.send(answer)
            except StopIteration as done:
                frames.pop()
                answer = done.value
                if answer is None:
                    answer = True
                else:
                    self.false_memo[triple] = answer
                    while len(assumed) > mark:
                        assumed.popitem()
                continue
            if nxt in assumed:
                answer = True
            elif nxt in self.false_memo:
                answer = self.false_memo[nxt]
            else:
                self._tick()
                frames.append((nxt, len(assumed), self.evaluate(nxt)))
                assumed[nxt] = None
                answer = None
        if answer is True:
            return True, frozenset(assumed)
        return False, self.false_memo[root]


def _initial_triple(m1: Multiset, m2: Multiset) -> GameTriple:
    k1 = initial_indexed(m1)
    k2 = initial_indexed(m2)
    return GameTriple(
        init_oim(k1), init_oim(k2), frozenset((a, b) for a in k1 for b in k2)
    )


def _decide_game(net: PTNet, m1: Multiset, m2: Multiset, cap: int,
                 flavor: Flavor, limits: Optional[Limits]) -> BisimVerdict:
    reachable(NetSystem(net, m1), cap)
    reachable(NetSystem(net, m2), cap)
    search = _Search(net, flavor, limits or Limits())
    try:
        won, payload = search.run(_initial_triple(m1, m2))
        outcome = "equivalent" if won else "not-equivalent"
    except ResourceLimitReached:
        won, payload, outcome = False, None, "unknown"
    stats = {"triples": search.explored, "seconds": time.monotonic() - search.t0}
    if won:
        return BisimVerdict(outcome, witness=payload, stats=stats)
    return BisimVerdict(outcome, refutation=payload, stats=stats)


def decide_oim(net: PTNet, m1: Multiset, m2: Multiset, cap: int,
               limits: Optional[Limits] = None) -> BisimVerdict:
    """Decide fully-concurrent bisimilarity of m1 and m2 (via the OIM game)."""
    return _decide_game(net, m1, m2, cap, "fc", limits)


def decide_oimc(net: PTNet, m1: Multiset, m2: Multiset, cap: int,
                limits: Optional[Limits] = None) -> BisimVerdict:
    """Decide causal-net bisimilarity of m1 and m2 (via the OIMC game)."""
    return _decide_game(net, m1, m2, cap, "cn", limits)


def decide_interleaving(net: PTNet, m1: Multiset, m2: Multiset,
                        cap: int) -> BisimVerdict:
    """Label-based strong bisimilarity on the collective reachability
    graphs, via partition refinement."""
    t0 = time.monotonic()
    states = set(reachable(NetSystem(net, m1), cap).markings)
    states |= reachable(NetSystem(net, m2), cap).markings
    succ = {
        m: [(net.transition(tid).label, fire(net, m, tid)) for tid in enabled(net, m)]
        for m in states
    }
    block = {m: 0 for m in states}
    blocks = 1
    # Each signature includes the old block, so refinement only splits
    # blocks: the partition is stable once their number stops growing.
    while True:
        sigs = {
            m: (block[m], frozenset((lbl, block[m2]) for lbl, m2 in succ[m]))
            for m in states
        }
        renum: dict = {}
        block = {m: renum.setdefault(sigs[m], len(renum)) for m in states}
        if len(renum) == blocks:
            break
        blocks = len(renum)
    outcome = "equivalent" if block[m1] == block[m2] else "not-equivalent"
    return BisimVerdict(outcome, stats={"states": len(states),
                                        "seconds": time.monotonic() - t0})


def validate_witness(net: PTNet, witness: frozenset, root: GameTriple,
                     flavor: Flavor) -> bool:
    """Independent closure check: every triple in the witness satisfies both
    transfer directions with successors inside the witness."""
    if root not in witness:
        return False
    helper = _Search(net, flavor, Limits())
    # Successor markings are shared with the witness's, so membership
    # tests compare markings by identity.
    for triple in witness:
        helper.shared.setdefault(triple.left, triple.left)
        helper.shared.setdefault(triple.right, triple.right)
    for triple in witness:
        game = helper.evaluate(triple)
        wins = None
        try:
            while True:
                wins = game.send(wins) in witness
        except StopIteration as done:
            if done.value is not None:
                return False
    return True


def validate_refutation(net: PTNet, ref: Refutation, flavor: Flavor) -> bool:
    """Replay a refutation: at every node the attacker move must exist and
    every admissible defender response must itself be refuted.  Each
    distinct node is replayed once; a refutation that leads back to one of
    its own nodes proves nothing and is rejected."""
    try:
        nodes = ref.nodes()
    except ValueError:
        return False
    helper = _Search(net, flavor, Limits())

    def replays(node: Refutation) -> bool:
        triple = node.triple
        if node.reason == "size-gate":
            return flavor == "cn" and len(triple.left.tokens) != len(triple.right.tokens)
        attacker_left = node.side == "left"
        attacks = helper.successors(triple.left if attacker_left else triple.right)
        if node.attacker not in attacks:
            return False
        responses = helper.successors(triple.right if attacker_left else triple.left)
        admissible = dict(
            helper.admissible(triple, node.attacker, attacker_left, responses)
        )
        if {resp for resp, _ in node.responses} != set(admissible):
            return False
        return all(sub.triple == admissible[resp] for resp, sub in node.responses)

    return all(replays(node) for node in nodes)


def _fmt_token(tok: Token) -> str:
    return f"({tok[0]},{tok[1]})"


def _fmt_oim(o: OrderedIndexedMarking) -> str:
    toks = " ".join(_fmt_token(t) for t in sorted(o.tokens))
    pairs = " ".join(
        f"{_fmt_token(a)}<={_fmt_token(b)}" for a, b in sorted(o.order)
    )
    return f"tokens {{{toks}}} order {{{pairs}}}"


def format_triple(t: GameTriple) -> str:
    beta = " ".join(
        f"{_fmt_token(a)}~{_fmt_token(b)}" for a, b in sorted(t.beta)
    )
    return (
        f"left  {_fmt_oim(t.left)}\n"
        f"right {_fmt_oim(t.right)}\n"
        f"beta  {{{beta}}}"
    )


def format_witness(witness: frozenset) -> str:
    """Deterministic text listing of a witness relation."""
    blocks = sorted(format_triple(t) for t in witness)
    out = [f"triples {len(blocks)}"]
    for i, b in enumerate(blocks):
        out.append(f"-- triple {i} --")
        out.append(b)
    return "\n".join(out) + "\n"


def format_refutation(ref: Refutation) -> str:
    lines = [f"refuted: {ref.reason}"]
    for side, tid, removed in ref.principal_moves():
        rem = " ".join(_fmt_token(t) for t in sorted(removed))
        lines.append(f"{side} fires {tid} removing {{{rem}}}")
    return "\n".join(lines) + "\n"
