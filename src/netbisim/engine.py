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

The game runs on ints (`_Search`), over the markings of the net's
`ordered.OIMGraph` (`PTNet.oim_graph`): a marking is its sorted token
tuple, each token is its position there, a token set is a mask of
positions, and the preorder of a marking and beta are rows of masks, one
per token.  The graph interns each distinct ordered indexed marking to an
id, so a triple is (left id, right id, beta rows, over the right
marking's positions), and builds each marking's moves once, bucketed by
label.  It is built once per net object and kept with it: the fc and cn
deciders and both validators, called on one net in any order, play on
the same ints and moves, each holding the graph's lock, so that calls
from several threads take turns.  It keeps ints and moves only.  What
one call makes lives in its `_Search` and goes with it: the `OIMCodec`
with the decoded certificate objects, the canonical memo, the refutation
memo and the limits.  `(place, index)` tokens, `GameTriple` and
frozenset beta are the boundary format: a decided witness or refutation
is decoded to them through the codec, and the validators encode them
back and replay the same int game.  The frozenset functions
`beta_update` and `deleted_condition_fc/cn` are wrappers over the mask
forms.

The game is invariant under place-preserving renaming of each side's
token indices, so the search works on canonical triples
(`_Search.canonical`, from `symmetry`): every successor is renamed
before it is looked up, pushed or stored, and the root is canonical as
it is.  `stats["triples"]` counts canonical triples, a witness is a set
of canonical triples closed up to renaming, and each refutation node
holds a canonical triple, whose attacker move and responses name tokens
in that node's frame.  The moves of a marking (`OIMGraph.successors`)
stay literal.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import cache
from typing import Literal, Optional

from .nets import Multiset, NetError, PTNet
from .indexed import Token
from .ordered import (
    OIMCodec, OIMStep, OrderedIndexedMarking, decode_rows, encode_rows,
    holding_graph, step_rows,
)
from .symmetry import Canonicaliser

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
    """The search hit a limit; `limit` names it: "max_triples" or
    "max_seconds"."""

    def __init__(self, limit: str):
        super().__init__(limit)
        self.limit = limit


def _next_beta(beta: tuple, plan: tuple, remap: dict, created: int) -> tuple:
    """beta on masks: the row of each left target token is its source row
    sent through the right move's remap, which drops the deleted right
    tokens, or, if the left firing created it, all tokens the right firing
    created.  The images are stored in the remap (`ordered.Remap`)."""
    return tuple([remap[beta[i]] if i >= 0 else created for i in plan])


def _fc_holds(beta: tuple, left: tuple, right_removed: int, right: tuple) -> bool:
    """The fc deleted-token condition on masks.  `left` and `right` hold a
    (position, bit, up-set) entry per deleted token, `beta` a right mask per
    left position."""
    related = 0  # deleted left tokens beta-related to a deleted right token
    reached = 0  # the deleted right tokens they are related to
    for i, b, _ in left:
        row = beta[i] & right_removed
        if row:
            related |= b
            reached |= row
    for _, _, up in left:
        if not up & related:
            return False
    for _, _, up in right:
        if not up & reached:
            return False
    return True


def _cn_holds(beta: tuple, left: tuple, right_removed: int, right: tuple) -> bool:
    """The cn deleted-token condition on masks: a perfect matching between
    the deleted tokens over beta.  With at most two tokens a side, Hall's
    condition is that every row is non-empty and the rows cover the right
    side; beyond that, augmenting paths."""
    if len(left) != len(right):
        return False
    adj = []
    covered = 0
    for i, _, _ in left:
        row = beta[i] & right_removed
        if not row:
            return False
        adj.append(row)
        covered |= row
    if covered != right_removed:
        return False
    if len(adj) <= 2:
        return True
    owner: dict[int, int] = {}  # right bit -> the left entry matched to it
    return all(_augment(adj, owner, a, [0]) for a in range(len(adj)))


def _augment(adj: list, owner: dict, a: int, seen: list) -> bool:
    """Kuhn's step: match left entry a, re-matching along an augmenting
    path; seen[0] is the mask of right bits visited.  Recurses at most
    once per left entry."""
    rest = adj[a]
    while rest:
        b = rest & -rest
        rest ^= b
        if seen[0] & b:
            continue
        seen[0] |= b
        if b not in owner or _augment(adj, owner, owner[b], seen):
            owner[b] = a
            return True
    return False


def _deleted_masks(removed1, removed2, leq1, leq2, beta) -> tuple:
    """The arguments of _fc_holds / _cn_holds for token sets and relations:
    each deleted token's bit is its rank in its sorted set."""
    left, right = sorted(removed1), sorted(removed2)

    def rows(xs, ys, rel):
        return [sum(1 << j for j, y in enumerate(ys) if (x, y) in rel)
                for x in xs]

    def entries(xs, leq):
        return tuple((i, 1 << i, up) for i, up in enumerate(rows(xs, xs, leq)))

    return (tuple(rows(left, right, beta)), entries(left, leq1),
            (1 << len(right)) - 1, entries(right, leq2))


def beta_update(untouched1, generated1, untouched2, generated2, beta: Beta) -> Beta:
    """beta' = beta restricted to untouched x untouched, plus all pairs of
    freshly generated tokens."""
    left, right = tuple(sorted(untouched1)), tuple(sorted(untouched2))
    kept = [(a, b) for a, b in beta if a in untouched1 and b in untouched2]
    target1, _, plan, _, _ = step_rows(left, (0,) * len(left), 0,
                                       tuple(sorted(generated1)))
    target2, _, _, remap, made = step_rows(right, (0,) * len(right), 0,
                                           tuple(sorted(generated2)))
    rows = _next_beta(encode_rows(left, kept, right), plan, remap, made)
    return decode_rows(target1, rows, target2, {})


def deleted_condition_fc(removed1, removed2, leq1, leq2, beta: Beta) -> bool:
    """Every deleted token must be below some deleted token that is
    beta-related to a token deleted on the other side."""
    return _fc_holds(*_deleted_masks(removed1, removed2, leq1, leq2, beta))


def deleted_condition_cn(removed1, removed2, beta: Beta) -> bool:
    """True iff the two removed sets are bijectively related by beta
    (perfect matching over beta-pairs, via augmenting paths)."""
    return _cn_holds(*_deleted_masks(removed1, removed2, (), (), beta))


class _Search(Canonicaliser):
    """One call's game on the ints of the net's `OIMGraph`.  A triple is
    (left id, right id, beta), beta holding the mask of right tokens
    related to each left token; moves are the graph's.  Refutation nodes
    hold int triples and moves until `refutation` decodes them through
    the call's codec."""

    def __init__(self, net: PTNet, flavor: Flavor, limits: Limits):
        super().__init__(net.oim_graph)
        self.codec = OIMCodec(self.graph)
        self.holds = {"fc": _fc_holds, "cn": _cn_holds}.get(flavor)
        if self.holds is None:
            raise NetError(f"unknown flavor {flavor!r}")
        self.flavor = flavor
        self.limits = limits
        self.false_memo: dict[tuple, Refutation] = {}
        self.explored = 0
        self.t0 = time.monotonic()

    def root(self, m1: Multiset, m2: Multiset) -> tuple:
        """The initial triple: every token precedes every token of its side,
        and beta relates every left token to every right token.  Nothing
        tells the tokens of a place apart, so it is its own canonical
        triple."""
        left, right = self.graph.initial(m1), self.graph.initial(m2)
        return left, right, ((1 << m2.size) - 1,) * m1.size

    def _tick(self):
        self.explored += 1
        if self.explored > self.limits.max_triples:
            raise ResourceLimitReached("max_triples")
        if (
            self.limits.max_seconds is not None
            and time.monotonic() - self.t0 > self.limits.max_seconds
        ):
            raise ResourceLimitReached("max_seconds")

    def admissible(self, triple: tuple, attack: tuple, attacker_left: bool,
                   by_label: dict):
        """Yield (response, canonical successor triple) for each defender
        response with the attack's label that meets the deleted-token
        condition, in the defender's move order."""
        beta = triple[2]
        holds = self.holds
        canonical = self.canonical
        for resp in by_label.get(attack[0], ()):
            left, right = (attack, resp) if attacker_left else (resp, attack)
            if holds(beta, left[3], right[2], right[3]):
                yield resp, canonical((left[4], right[4], _next_beta(
                    beta, left[6], right[7], right[5])))

    def evaluate(self, triple: tuple):
        """Play one triple: yield each successor triple whose value is
        needed and receive True if it wins, otherwise its refutation node
        (a caller that needs no refutation may send False).  Returns None
        if the triple survives, otherwise its refutation node."""
        left, right, _ = triple
        graph = self.graph
        if (self.flavor == "cn" and len(graph.oims[left][0])
                != len(graph.oims[right][0])):
            return Refutation(triple, "size-gate")
        left_moves, left_labels = graph.successors(left)
        right_moves, right_labels = graph.successors(right)
        for attacker_left, attacks, responses in (
            (True, left_moves, right_labels),
            (False, right_moves, left_labels),
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

    def run(self, root: tuple):
        """(True, winning triples) or (False, refutation of the root)."""
        # The triples on the stack and those found winning, in the order
        # they were pushed.  A triple found winning rests only on triples
        # pushed before it, so refuting a triple withdraws exactly the
        # entries from its own onwards.
        assumed: dict[tuple, None] = {root: None}
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
            return True, list(assumed)
        return False, self.false_memo[root]

    def triple(self, t: tuple) -> GameTriple:
        left, right, beta = t
        codec = self.codec
        return GameTriple(codec.oim(left), codec.oim(right),
                          codec.relation(left, beta, right))

    def refutation(self, root: Refutation) -> Refutation:
        """The refutation DAG below root, its triples and moves decoded."""
        step = self.codec.step
        new: dict[int, Refutation] = {}
        for node in root.nodes():
            left, right, _ = node.triple
            attacker, defender = ((left, right) if node.side == "left"
                                  else (right, left))
            new[id(node)] = Refutation(
                self.triple(node.triple), node.reason, node.side,
                None if node.attacker is None
                else step(attacker, node.attacker),
                tuple((step(defender, resp), new[id(sub)])
                      for resp, sub in node.responses))
        return new[id(root)]

    def encode(self, t: GameTriple) -> Optional[tuple]:
        """The int triple of t, or None if it mentions a foreign token or
        a relation holds an element that is not a pair of its tokens."""
        codec = self.codec
        left, right = codec.encode(t.left), codec.encode(t.right)
        if left is None or right is None:
            return None
        oims = self.graph.oims
        beta = encode_rows(oims[left][0], t.beta, oims[right][0])
        return None if beta is None else (left, right, beta)


@holding_graph
def _decide_game(net: PTNet, m1: Multiset, m2: Multiset, cap: int,
                 flavor: Flavor, limits: Optional[Limits]) -> BisimVerdict:
    # The bound check: m2 is explored only if m1's search did not reach it.
    net.kernel.explore((m1, m2), cap)
    search = _Search(net, flavor, limits or Limits())
    try:
        won, payload = search.run(search.root(m1, m2))
    except ResourceLimitReached as exc:
        return BisimVerdict("unknown",
                            stats={**_stats(search), "limit": exc.limit})
    if won:
        witness = frozenset(map(search.triple, payload))
        return BisimVerdict("equivalent", witness=witness, stats=_stats(search))
    return BisimVerdict("not-equivalent", refutation=search.refutation(payload),
                        stats=_stats(search))


def _stats(search: _Search) -> dict:
    return {"triples": search.explored, "seconds": time.monotonic() - search.t0}


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
    graphs, via partition refinement on the kernel's successor lists."""
    t0 = time.monotonic()
    kernel = net.kernel
    succ = kernel.explore((m1, m2), cap)
    ids = {m: i for i, m in enumerate(succ)}
    labels = [t.label for t in net.transitions]
    edges = [[(labels[t], ids[m]) for t, m in out] for out in succ.values()]
    block = [0] * len(edges)
    blocks = 1
    # Each signature includes the old block, so refinement only splits
    # blocks: the partition is stable once their number stops growing.
    while True:
        renum: dict = {}
        block = [renum.setdefault(
            (block[i], frozenset([(lbl, block[j]) for lbl, j in out])),
            len(renum)) for i, out in enumerate(edges)]
        if len(renum) == blocks:
            break
        blocks = len(renum)
    # m1 is the first marking explored.
    same = block[0] == block[ids[kernel.encode(m2)]]
    return BisimVerdict("equivalent" if same else "not-equivalent",
                        stats={"states": len(edges),
                               "seconds": time.monotonic() - t0})


@holding_graph
def validate_witness(net: PTNet, witness: frozenset, root: GameTriple,
                     flavor: Flavor) -> bool:
    """Independent closure check, up to place-preserving renaming of token
    indices: every triple of the witness satisfies both transfer directions
    with canonical successors (`_Search.canonical`) that are triples of the
    witness or canonical triples of its triples, and the root's canonical
    triple is one of those.  So a witness closed without renaming (one
    listing every renamed copy it reaches) passes too.  The triples are
    canonicalised only once a successor is not found among them as they
    are.  For a witness of canonical triples that happens when a
    defender response leads out of the witness, as when a defender's
    first admissible response is refuted and a later one wins."""
    helper = _Search(net, flavor, Limits())
    encoded = set(map(helper.encode, witness))
    if None in encoded:
        return False
    canonical: set = set()

    def member(t: tuple) -> bool:
        if not canonical:
            canonical.update(map(helper.canonical, encoded))
        return t in canonical

    if root not in witness:
        start = helper.encode(root)
        if start is None:
            return False
        start = helper.canonical(start)
        if not (start in encoded or member(start)):
            return False
    for triple in encoded:
        game = helper.evaluate(triple)
        wins = None
        try:
            while True:
                nxt = game.send(wins)
                wins = nxt in encoded or member(nxt)
        except StopIteration as done:
            if done.value is not None:
                return False
    return True


@holding_graph
def validate_refutation(net: PTNet, ref: Refutation, flavor: Flavor) -> bool:
    """Replay a refutation: at every node the attacker move must exist and
    every admissible defender response must itself be refuted, by a node
    whose triple has the response's canonical successor as its canonical
    triple (`_Search.canonical`).  Each distinct node is replayed once; a
    refutation that leads back to one of its own nodes proves nothing and
    is rejected.  It proves only that `ref.triple` loses: a caller checks
    that this is the root it asked about."""
    helper = _Search(net, flavor, Limits())
    try:
        nodes = ref.nodes()
    except ValueError:
        return False
    graph, step = helper.graph, helper.codec.step
    # Each node's int triple, encoded once; a size-gate root needs none.
    encoded = {id(node): helper.encode(node.triple) for node in nodes
               if node is not ref or node.reason != "size-gate"}

    def replays(node: Refutation) -> bool:
        triple = node.triple
        if node.reason == "size-gate":
            return flavor == "cn" and len(triple.left.tokens) != len(triple.right.tokens)
        if node.reason != "move" or node.side not in ("left", "right"):
            return False
        t = encoded[id(node)]
        if t is None:
            return False
        attacker_left = node.side == "left"
        attacker, defender = t[:2] if attacker_left else t[1::-1]
        attack = next((m for m in graph.successors(attacker)[0]
                       if step(attacker, m) == node.attacker), None)
        if attack is None:
            return False
        admissible = {
            step(defender, resp): nxt
            for resp, nxt in helper.admissible(
                t, attack, attacker_left, graph.successors(defender)[1])
        }
        if {resp for resp, _ in node.responses} != set(admissible):
            return False
        for resp, sub in node.responses:
            t = encoded[id(sub)]
            if t is None or (t != admissible[resp]
                             and helper.canonical(t) != admissible[resp]):
                return False
        return True

    return all(replays(node) for node in nodes)


def _fmt_token(tok: Token) -> str:
    return f"({tok[0]},{tok[1]})"


def _fmt_oim(o: OrderedIndexedMarking) -> str:
    toks = " ".join(_fmt_token(t) for t in sorted(o.tokens))
    pairs = " ".join(
        f"{_fmt_token(a)}<={_fmt_token(b)}" for a, b in sorted(o.order)
    )
    return f"tokens {{{toks}}} order {{{pairs}}}"


def _fmt_beta(beta: Beta) -> str:
    return " ".join(f"{_fmt_token(a)}~{_fmt_token(b)}" for a, b in sorted(beta))


def format_triple(t: GameTriple, oim_text=_fmt_oim, beta_text=_fmt_beta) -> str:
    return (
        f"left  {oim_text(t.left)}\n"
        f"right {oim_text(t.right)}\n"
        f"beta  {{{beta_text(t.beta)}}}"
    )


def format_witness(witness: frozenset) -> str:
    """Deterministic text listing of a witness relation.  Each distinct
    marking and beta is formatted once."""
    oim_text, beta_text = cache(_fmt_oim), cache(_fmt_beta)
    blocks = sorted(format_triple(t, oim_text, beta_text) for t in witness)
    out = [f"triples {len(blocks)}"]
    for i, b in enumerate(blocks):
        out.append(f"-- triple {i} --")
        out.append(b)
    return "\n".join(out) + "\n"


def format_refutation(ref: Refutation) -> str:
    """The refutation's reason and the attacker moves along its principal
    line, one per line.  Each line names the removed tokens in the
    canonical frame of its own node, the triple that move is played
    from."""
    lines = [f"refuted: {ref.reason}"]
    for side, tid, removed in ref.principal_moves():
        rem = " ".join(_fmt_token(t) for t in sorted(removed))
        lines.append(f"{side} fires {tid} removing {{{rem}}}")
    return "\n".join(lines) + "\n"
