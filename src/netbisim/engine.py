"""Decision procedures for OIM- (= fully-concurrent) and OIMC-
(= causal-net) bisimilarity, plus an interleaving baseline.

The decision is an on-the-fly coinductive game over triples
(oim1, oim2, beta), searched depth first on an explicit stack of frames
(`_Search.run`).  Triples on the stack are assumed winning.  A refuted
triple is memoized permanently as a refutation node, which every
refutation citing it shares, and the triples found winning since it was
pushed are withdrawn.  When the stack empties the winning set is
self-supporting (a bisimulation).

The game runs on ints (`_Search`), over the markings of the net's
`ordered.OIMGraph`, where a token is its position in its marking and a
token set a mask of positions.  The validators encode a certificate
(`certificates`) back to ints and replay the same game.  The frozenset
functions `beta_update` and `deleted_condition_fc/cn` are wrappers over
the mask forms.

The game is invariant under place-preserving renaming of each side's
token indices, and under exchanging its two sides with beta transposed
(both play on one net, and the inverse of an fc or cn bisimulation is
one), so every successor is renamed, and its sides exchanged if need
be, before it is looked up, pushed or stored (`_Search.canonical`).  The
root is played as given; `stats["triples"]` counts canonical triples,
and the certificates hold them.  A pair of moves carries beta with
`ordered.step_rows`, as a move carries its order: the left move's plan
places the rows, and the right move's map and memo send them to the right
target's positions, as a renaming carries them to the canonical frame.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Collection, Iterable, Literal, Optional

from .nets import Multiset, NetError, PTNet, ResourceLimitReached
from .ordered import (
    decode_rows, encode_rows, holding_graph, step_plan, step_rows, transpose,
)
# format_* only so that perfbench can call and trace `engine.format_*`.
from .certificates import (
    Beta, BisimVerdict, GameTriple, Refutation, _well_typed, _well_typed_step,
    encode_triple, format_refutation, format_witness,
)
from .symmetry import least_relabel

Flavor = Literal["fc", "cn"]


@dataclass
class Limits:
    max_triples: int = 2_000_000
    max_seconds: Optional[float] = None


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
    at1, at2 = ({t: i for i, t in enumerate(xs)} for xs in (left, right))
    target1, plan, _, _ = step_plan(left, 0, tuple(sorted(generated1)))
    target2, _, to, made = step_plan(right, 0, tuple(sorted(generated2)))
    rows = step_rows(encode_rows(at1, kept, at2), 0, plan, {}, to, made)
    return decode_rows(target1, rows, target2, {})


def deleted_condition_fc(removed1, removed2, leq1, leq2, beta: Beta) -> bool:
    """Every deleted token must be below some deleted token that is
    beta-related to a token deleted on the other side."""
    return _fc_holds(*_deleted_masks(removed1, removed2, leq1, leq2, beta))


def deleted_condition_cn(removed1, removed2, beta: Beta) -> bool:
    """True iff the two removed sets are bijectively related by beta
    (perfect matching over beta-pairs, via augmenting paths)."""
    return _cn_holds(*_deleted_masks(removed1, removed2, (), (), beta))


class _Search:
    """One call's game on the ints of the net's `OIMGraph`.  A triple is
    (left id, right id, beta), beta holding the mask of right tokens
    related to each left token; moves are the graph's, and refutation
    nodes hold int triples and moves.  `canon`, int triple -> canonical
    triple, is the memo its caller hands it: a decider the graph's
    (`OIMGraph.canon`), so that cn after fc on one net renames no triple
    twice; a validator a new one, so that a certificate check reads
    nothing a decider computed.  `deadline` is the `time.monotonic()`
    value past which `max_seconds` stops the search, or None."""

    def __init__(self, net: PTNet, flavor: Flavor, limits: Limits,
                 canon: dict):
        self.graph = net.oim_graph
        self.canon = canon  # triple -> canonical triple
        self.transposes: dict[tuple, tuple] = {}  # (beta, width) -> converse
        self.holds = {"fc": _fc_holds, "cn": _cn_holds}.get(flavor)
        if self.holds is None:
            raise NetError(f"unknown flavor {flavor!r}")
        self.flavor = flavor
        self.limits = limits
        self.false_memo: dict[tuple, Refutation] = {}
        self.explored = 0
        self.t0 = time.monotonic()
        self.deadline = (None if limits.max_seconds is None
                         else self.t0 + limits.max_seconds)

    def root(self, m1: Multiset, m2: Multiset) -> tuple:
        """The initial triple: every token precedes every token of its side,
        and beta relates every left token to every right token.  The search
        plays it as given, so m1 stays on the left of the root's refutation
        node."""
        left, right = self.graph.initial(m1), self.graph.initial(m2)
        return left, right, ((1 << m2.size) - 1,) * m1.size

    def canonical(self, triple: tuple) -> tuple:
        """The image of an int triple, or of its exchange (right, left,
        beta transposed), under a place-preserving renaming of each side's
        tokens to (place, 1..n) (`symmetry.least_relabel`).  The side whose
        place tuple (the places of its sorted tokens, which no renaming
        changes) is smaller goes left.  On equal tuples with at most one
        token per place, `orient` keeps the smaller of the renamed triple
        and its exchange; where a place holds two tokens the sides stay,
        so only renamings share the image.  A triple whose tokens all have
        index 1 needs no renaming; any other is renamed once per `canon`,
        and its renaming stops at the search's time limit, which then
        stores nothing, so every entry is a complete renaming."""
        graph = self.graph
        plain = graph.plain
        if plain[triple[0]] and plain[triple[1]]:
            return self.orient(triple)
        c = self.canon.get(triple)
        if c is None:
            places = graph.places
            c = least_relabel(graph, *(
                self.exchanged(triple) if places[triple[0]] > places[triple[1]]
                else triple), self.deadline)
            if plain[c[0]] and plain[c[1]]:
                c = self.orient(c)
            self.canon[triple] = c
        return c

    def orient(self, triple: tuple) -> tuple:
        """Of a triple whose tokens all have index 1 and its exchange, the
        one whose left place tuple is smaller, and on equal place tuples
        the one smaller by content: both sides' tokens and rows, then beta
        rows.  Never by interned id, which differs between graphs."""
        left, right, beta = triple
        graph = self.graph
        lp, rp = graph.places[left], graph.places[right]
        if lp < rp:
            return triple
        if lp == rp:
            a, b = graph.oims[left], graph.oims[right]
            if a < b:
                return triple
            if a == b:
                other = self.exchanged(triple)
                return triple if beta <= other[2] else other
        return self.exchanged(triple)

    def exchanged(self, triple: tuple) -> tuple:
        """(right, left, beta transposed): one row per right token, the
        mask of the left tokens beta relates it to.  Betas repeat across
        triples (1,843 distinct ones among par(6)'s 62,212 canonical
        triples), so a search keeps each transpose it makes
        (`transposes`)."""
        left, right, beta = triple
        key = (beta, len(self.graph.places[right]))
        converse = self.transposes.get(key)
        if converse is None:
            converse = self.transposes[key] = transpose(*key)
        return right, left, converse

    def _tick(self):
        self.explored += 1
        if self.explored > self.limits.max_triples:
            raise ResourceLimitReached("max_triples")
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise ResourceLimitReached("max_seconds")

    def gate(self, triple: tuple) -> Optional[Refutation]:
        """The triple's size-gate node if cn's size gate refutes it."""
        oims = self.graph.oims
        if self.flavor == "cn" and len(oims[triple[0]][0]) != len(oims[triple[1]][0]):
            return Refutation(triple, "size-gate")
        return None

    def successor(self, beta: tuple, attack: tuple, resp: tuple,
                  attacker_left: bool) -> Optional[tuple]:
        """The canonical successor triple when the defender answers the
        attack with resp, a move of the attack's label, or None if the
        two moves break the deleted-token condition."""
        left, right = (attack, resp) if attacker_left else (resp, attack)
        if not self.holds(beta, left[3], right[2], right[3]):
            return None
        return self.canonical((left[4], right[4], step_rows(
            beta, 0, left[6], right[7], right[8], right[5])))

    def run(self, root: tuple) -> tuple:
        """(True, winning triples) or (False, refutation of the root).  A
        frame plays one triple: its attacks are the left marking's moves,
        then the right's, each answered by the first response, in the
        defender's move order, that has a `successor` that wins."""
        # The triples on the stack and those found winning, in the order
        # they were pushed.  A triple found winning rests only on triples
        # pushed before it, so refuting a triple withdraws exactly the
        # entries from its own onwards.
        assumed: dict[tuple, None] = {root: None}
        false_memo = self.false_memo
        successors, successor = self.graph.successors, self.successor
        self._tick()
        answer = self.gate(root)
        if answer is not None:
            return False, answer
        # The root as its canonical successors meet it, renamed by nothing
        # (no token of a place differs from another) but exchanged where
        # m2's places come first.  A successor equal to it is assumed like
        # the root, and is not added to the witness.
        places = self.graph.places
        start = (self.canonical(root) if places[root[0]] > places[root[1]]
                 else root)
        # (triple, len(assumed) before its push, attack index, response
        # index, the refuted responses to that attack so far).  `answer`
        # is the value of the top frame's response: True if it wins, else
        # its refutation node; None when the frame is new.
        frames = [(root, 0, 0, 0, ())]
        while frames:
            triple, mark, k, r, refuted = frames.pop()
            (left_moves, left_labels), (right_moves, right_labels) = (
                successors(triple[0]), successors(triple[1]))
            n = len(left_moves)
            while k < n + len(right_moves):
                attacker_left = k < n
                attack = left_moves[k] if attacker_left else right_moves[k - n]
                responses = (right_labels if attacker_left
                             else left_labels).get(attack[0], ())
                if answer is True:
                    k, r, refuted, answer = k + 1, 0, (), None
                    continue
                if answer is not None:
                    refuted += ((responses[r], answer),)
                    r += 1
                while r < len(responses):
                    nxt = successor(triple[2], attack, responses[r],
                                    attacker_left)
                    if nxt is not None:
                        break
                    r += 1
                else:
                    answer = false_memo[triple] = Refutation(
                        triple, "move", "left" if attacker_left else "right",
                        attack, refuted)
                    while len(assumed) > mark:
                        assumed.popitem()
                    break
                answer = (True if nxt in assumed or nxt == start
                          else false_memo.get(nxt))
                if answer is None:
                    self._tick()
                    answer = self.gate(nxt)
                    if answer is not None:
                        false_memo[nxt] = answer
                        continue
                    frames += ((triple, mark, k, r, refuted),
                               (nxt, len(assumed), 0, 0, ()))
                    assumed[nxt] = None
                    break
            else:
                answer = True
        if answer is True:
            return True, list(assumed)
        return False, false_memo[root]


@holding_graph
def _decide_game(net: PTNet, m1: Multiset, m2: Multiset, cap: int,
                 flavor: Flavor, limits: Optional[Limits]) -> BisimVerdict:
    # The bound check: m2 is explored only if m1's search did not reach it.
    net.kernel.explore((m1, m2), cap)
    search = _Search(net, flavor, limits or Limits(), net.oim_graph.canon)
    try:
        won, payload = search.run(search.root(m1, m2))
    except ResourceLimitReached as exc:
        return BisimVerdict("unknown",
                            stats={**_stats(search), "limit": exc.limit})
    return BisimVerdict.from_game("equivalent" if won else "not-equivalent",
                                  search.graph, payload, _stats(search))


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
    indices and exchange of the two sides: every triple of the witness
    satisfies both transfer directions with canonical successors
    (`_Search.canonical`) that are triples of the witness or canonical
    triples of its triples, and the root's canonical triple is one of
    those, so a witness listing every renamed or exchanged copy it reaches
    passes too.  The triples are canonicalised only once a successor is
    not found among them as they are, as when a defender's first
    admissible response is refuted and a later one wins.  A triple whose
    token sets or relations are not frozensets fails it, as does a
    witness that is not iterable; a one-shot iterable is read once."""
    if isinstance(witness, Iterable) and not isinstance(witness, Collection):
        witness = tuple(witness)
    if not (isinstance(witness, Collection) and _well_typed(root)
            and all(map(_well_typed, witness))):
        return False
    helper = _Search(net, flavor, Limits(), {})
    graph = helper.graph
    encoded = set()
    for triple in (encode_triple(graph, t) for t in witness):
        if triple is None:
            return False
        encoded.add(triple)
    canonical: set = set()

    def member(t: tuple) -> bool:
        if not canonical:
            canonical.update(map(helper.canonical, encoded))
        return t in canonical

    if root not in witness:
        start = encode_triple(graph, root)
        if start is None:
            return False
        start = helper.canonical(start)
        if not (start in encoded or member(start)):
            return False
    successors, successor = graph.successors, helper.successor
    for triple in encoded:
        if helper.gate(triple) is not None:
            return False
        (moves1, labels1), (moves2, labels2) = map(successors, triple[:2])
        for attacker_left, attacks, labels in ((True, moves1, labels2),
                                               (False, moves2, labels1)):
            for attack in attacks:
                if not any(
                        (nxt := successor(triple[2], attack, resp, attacker_left))
                        is not None and (nxt in encoded or member(nxt))
                        for resp in labels.get(attack[0], ())):
                    return False
    return True


@holding_graph
def validate_refutation(net: PTNet, ref: Refutation, flavor: Flavor) -> bool:
    """Replay a refutation: at every node the attacker move must exist and
    every admissible defender response must itself be refuted, by a node
    whose triple has the response's canonical successor as its canonical
    triple (`_Search.canonical`), so it may hold the successor renamed,
    or exchanged where the canonical form merges the two sides.  A node's
    side names a side of its own triple.  Each distinct node is replayed
    once.  A refutation that leads back to one of its nodes is rejected,
    as is a node whose triple or steps are not well typed or whose
    responses are not (step, node) pairs.  It proves only that
    `ref.triple` loses; a caller checks it is the root it asked about."""
    helper = _Search(net, flavor, Limits(), {})
    if not isinstance(ref, Refutation):
        return False
    try:
        nodes = ref.nodes()
    except (TypeError, ValueError):
        return False
    if not all(_well_typed(node.triple) for node in nodes):
        return False
    graph, step = helper.graph, helper.graph.step
    # Each node's int triple, encoded once; a size-gate root needs none.
    encoded = {id(node): encode_triple(graph, node.triple) for node in nodes
               if node is not ref or node.reason != "size-gate"}

    def replays(node: Refutation) -> bool:
        triple = node.triple
        if node.reason == "size-gate":
            return flavor == "cn" and len(triple.left.tokens) != len(triple.right.tokens)
        if not (node.reason == "move" and node.side in ("left", "right")
                and _well_typed_step(node.attacker)
                and all(_well_typed_step(resp) for resp, _ in node.responses)):
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
        answers = {
            step(defender, resp): nxt
            for resp in graph.successors(defender)[1].get(attack[0], ())
            if (nxt := helper.successor(t[2], attack, resp, attacker_left))
            is not None
        }
        if {resp for resp, _ in node.responses} != set(answers):
            return False
        for resp, sub in node.responses:
            t = encoded[id(sub)]
            if t is None or (t != answers[resp]
                             and helper.canonical(t) != answers[resp]):
                return False
        return True

    return all(replays(node) for node in nodes)
