"""Certificates of the fc/cn game: their types, codec and text.

An `equivalent` fc/cn verdict ships a witness, a frozenset of
`GameTriple`s closed up to renaming and exchange of the sides, and a
`not-equivalent` one a `Refutation`, a DAG with one shared node per
refuted triple, both in `(place, index)` tokens, `OrderedIndexedMarking`s
and frozenset relations.  The validators replay the game, so they stay
in `engine`.  The functions here translate triples and refutations
through the net's `ordered.OIMGraph`, its codec of markings and steps,
which trusts only the marking objects it decoded (`OIMGraph.encode`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import Optional

from .indexed import token_text, tokens_text
from .ordered import OIMGraph, OIMStep, OrderedIndexedMarking, encode_rows

Beta = frozenset  # frozenset[tuple[Token, Token]]


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
        the nodes its responses lead to.  Raises ValueError on a cycle,
        and TypeError on a response that is not a (step, node) pair."""
        done: dict[int, Refutation] = {}  # id(node) -> node, children first
        open_ids = {id(self)}
        stack = [(self, iter(self.responses))]
        while stack:
            node, rest = stack[-1]
            for _, sub in rest:
                if not isinstance(sub, Refutation):
                    raise TypeError(f"a response leads to {sub!r}")
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


class BisimVerdict:
    """A decider's answer: `outcome` ("equivalent" | "not-equivalent" |
    "unknown"), `stats`, and at most one certificate, `witness`
    (frozenset[GameTriple]) or `refutation`; the oracle and `il` ship
    none.  Only a verdict `from_game` has one: it keeps the search's
    payload, its winning int triples or its int refutation node, and the
    graph, until the first read of either certificate."""

    def __init__(self, outcome: str, stats: Optional[dict] = None):
        self.outcome = outcome
        self.stats = {} if stats is None else stats

    @classmethod
    def from_game(cls, outcome: str, graph: OIMGraph, payload,
                  stats: dict) -> BisimVerdict:
        verdict = cls(outcome, stats=stats)
        verdict._pending = graph, payload
        return verdict

    @property
    def witness(self) -> Optional[frozenset]:
        return self._certificate()[0]

    @property
    def refutation(self) -> Optional[Refutation]:
        return self._certificate()[1]

    def _certificate(self) -> tuple:
        """(witness, refutation), decoded holding the graph's lock into a
        slot where the first value stored wins; then the graph and payload
        are dropped.  Graph ids are stable, so later calls on the net change
        nothing decoded, nor does reassigning `outcome`."""
        pending = self.__dict__.get("_pending")
        if pending is not None:
            graph, payload = pending
            with graph.lock:
                if "_decoded" not in self.__dict__:
                    self.__dict__.setdefault("_decoded", (
                        (None, decode_refutation(graph, payload))
                        if isinstance(payload, Refutation) else
                        (frozenset([decode_triple(graph, t) for t in payload]),
                         None)))
            self.__dict__.pop("_pending", None)
        return self.__dict__.get("_decoded", (None, None))


def decode_triple(graph: OIMGraph, t: tuple) -> GameTriple:
    left, right, beta = t
    return GameTriple(graph.oim(left), graph.oim(right),
                      graph.relation(left, beta, right))


def decode_refutation(graph: OIMGraph, root: Refutation) -> Refutation:
    """The refutation DAG below an int node, its triples and moves
    decoded."""
    new: dict[int, Refutation] = {}
    for node in root.nodes():
        t = node.triple
        attacker, defender = t[:2] if node.side == "left" else t[1::-1]
        new[id(node)] = Refutation(
            decode_triple(graph, t), node.reason, node.side,
            None if node.attacker is None
            else graph.step(attacker, node.attacker),
            tuple((graph.step(defender, resp), new[id(sub)])
                  for resp, sub in node.responses))
    return new[id(root)]


def encode_triple(graph: OIMGraph, t: GameTriple) -> Optional[tuple]:
    """The int triple of t, or None if it mentions a foreign token or a
    relation holds an element that is not a pair of its tokens."""
    left = graph.encode(t.left)
    right = None if left is None else graph.encode(t.right)
    if right is None:
        return None
    beta = encode_rows(graph.at_of(left), t.beta, graph.at_of(right))
    return None if beta is None else (left, right, beta)


def _well_typed_oim(o) -> bool:
    return (isinstance(o, OrderedIndexedMarking)
            and isinstance(o.tokens, frozenset) and isinstance(o.order, frozenset))


def _well_typed(t) -> bool:
    """Whether t is a GameTriple of OrderedIndexedMarkings whose token sets
    and relations are frozensets, so that it can be hashed and encoded."""
    return (isinstance(t, GameTriple) and isinstance(t.beta, frozenset)
            and _well_typed_oim(t.left) and _well_typed_oim(t.right))


def _well_typed_step(s) -> bool:
    """Whether s is an OIMStep with a str tid, a frozenset of removed
    tokens and a well-typed target, so that it can be hashed."""
    return (isinstance(s, OIMStep) and isinstance(s.tid, str)
            and isinstance(s.removed, frozenset) and _well_typed_oim(s.target))


def _fmt_oim(o: OrderedIndexedMarking) -> str:
    pairs = " ".join(f"{token_text(a)}<={token_text(b)}"
                     for a, b in sorted(o.order))
    return f"tokens {{{tokens_text(o.tokens)}}} order {{{pairs}}}"


def _fmt_beta(beta: Beta) -> str:
    return " ".join(f"{token_text(a)}~{token_text(b)}" for a, b in sorted(beta))


def format_witness(witness: frozenset) -> str:
    """Deterministic text listing of a witness relation.  Each distinct
    marking and beta is formatted once."""
    oim_text, beta_text = cache(_fmt_oim), cache(_fmt_beta)
    blocks = sorted(f"left  {oim_text(t.left)}\nright {oim_text(t.right)}\n"
                    f"beta  {{{beta_text(t.beta)}}}" for t in witness)
    out = [f"triples {len(blocks)}"]
    for i, b in enumerate(blocks):
        out.append(f"-- triple {i} --")
        out.append(b)
    return "\n".join(out) + "\n"


def format_refutation(ref: Refutation) -> str:
    """The refutation's reason and the attacker moves along its principal
    line, one per line.  Each line names the removed tokens in the
    canonical frame of its own node, the triple that move is played
    from, and its "left" or "right" is a side of that triple: the
    canonical form may have exchanged the sides since the root."""
    lines = [f"refuted: {ref.reason}"]
    for side, tid, removed in ref.principal_moves():
        lines.append(f"{side} fires {tid} removing {{{tokens_text(removed)}}}")
    return "\n".join(lines) + "\n"
