"""Ordered indexed markings: token sets with a generation preorder.

The preorder records precedence in token generation.  After a firing:

  1. untouched tokens keep their old relation;
  2. the tokens generated together form a clique (related both ways);
  3. an untouched token precedes every generated token iff it preceded,
     in the pre-firing order, some token the firing deleted.

The update is computed on positions (`step_plan` places the tokens, which
the order does not change, and `step_rows` carries their rows, the order's
and the game's beta alike): a marking is the sorted tuple of its tokens, a
token is its position there, a token set is an int mask of positions, and
the preorder is one up-set mask per token.  No numbering reaches past one
marking: a move maps the positions of its source to those of its target by
one position map (`invert`), and a mask reaches the target only through
`image`; a canonical renaming in `symmetry` is a position map of the same
kind.  `OIMGraph` is the ordered token game of one net object on ints
(`PTNet.oim_graph`), on which every fc/cn search, validator and explorer
called on it plays, so a marking's moves are built once however many calls
reach it.  It holds the net's kernel and transitions, not the net, so it is
freed with the net by reference counting.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from dataclasses import dataclass
from functools import wraps
from typing import Optional

from .nets import Multiset, NetError, PTNet
from .indexed import IndexedMarking, closed_alpha, firings, pick


@dataclass(frozen=True)
class OrderedIndexedMarking:
    tokens: frozenset  # frozenset[Token]
    order: frozenset  # frozenset[tuple[Token, Token]], a preorder on tokens


def oim_check(o: OrderedIndexedMarking) -> None:
    """Assert the preorder invariants; used by the property tests."""
    for a, b in o.order:
        if a not in o.tokens or b not in o.tokens:
            raise NetError(f"order mentions foreign token in {o}")
    for a in o.tokens:
        if (a, a) not in o.order:
            raise NetError(f"order not reflexive at {a}")
    for a, b in o.order:
        for c, d in o.order:
            if b == c and (a, d) not in o.order:
                raise NetError(f"order not transitive: {a} {b} {d}")


def init_oim(k0: IndexedMarking) -> OrderedIndexedMarking:
    """The initial ordered indexed marking (k0, k0 x k0)."""
    closed_alpha(k0)
    return OrderedIndexedMarking(k0, frozenset((a, b) for a in k0 for b in k0))


@dataclass(frozen=True)
class OIMStep:
    tid: str
    removed: frozenset  # frozenset[Token]
    target: OrderedIndexedMarking


def invert(plan: tuple, n: int) -> tuple:
    """The position map of a plan (for each target position, its source
    position, or -1 if new) from n source positions: for each source
    position, the bit of its target position, or 0 if it is dropped."""
    to = [0] * n
    for j, i in enumerate(plan):
        if i >= 0:
            to[i] = 1 << j
    return tuple(to)


def image(x: int, to: tuple) -> int:
    """The mask x of source positions sent through the position map `to`
    of `invert`, one set bit at a time."""
    out = 0
    while x:
        b = x & -x
        x ^= b
        out |= to[b.bit_length() - 1]
    return out


def transpose(rows: tuple, width: int) -> tuple:
    """The rows of the converse relation: for each of the `width` positions
    the rows range over, the mask of the rows that hold it."""
    out = [0] * width
    for i, row in enumerate(rows):
        b = 1 << i
        while row:
            c = row & -row
            row ^= c
            out[c.bit_length() - 1] |= b
    return tuple(out)


def step_plan(tokens: tuple, removed: int,
              created: tuple) -> tuple[tuple, tuple, tuple, int]:
    """Where a firing puts the tokens: `removed` is the mask of the
    deleted positions, `created` the sorted tokens the firing makes.
    Returns the target tokens, the plan (for each target position, its
    source position, or -1 if the firing created it), its position map
    `to` (`invert`) and the mask of the created target positions."""
    target, plan = [], []
    for i, tok in enumerate(tokens):
        if not removed >> i & 1:
            target.append(tok)
            plan.append(i)
    made = 0
    for tok in created:
        j = bisect_left(target, tok)
        target.insert(j, tok)
        plan.insert(j, -1)
        made |= 1 << j
    return tuple(target), tuple(plan), invert(plan, len(tokens)), made


def step_rows(rows: tuple, removed: int, plan: tuple, images: dict,
              to: tuple, made: int) -> tuple:
    """The rows of a move's target, given the plan, map `to` and created
    mask `made` of `step_plan`: a kept row is sent through `to`, memoized
    in `images` (x -> `image(x, to)`), and a created position gets `made`.
    For the order, `rows` are the up-sets, and a kept row that meets the
    deleted mask `removed` also gains `made` (clause 3, evaluated against
    the pre-firing order); for beta, `removed` is 0."""
    out = []
    for i in plan:
        if i < 0:
            out.append(made)
            continue
        x = rows[i]
        y = images.get(x)
        if y is None:
            y = images[x] = image(x, to)
        out.append(y | made if x & removed else y)
    return tuple(out)


def encode_rows(at: dict, pairs, to: dict) -> Optional[tuple]:
    """The rows of a relation between two markings, each given by its
    table token -> position: rows[i] is the mask of the positions of `to`
    that the token at position i of `at` is related to.  None if an
    element of pairs is not a 2-tuple or names another token."""
    rows = [0] * len(at)
    for pair in pairs:
        if type(pair) is not tuple or len(pair) != 2:
            return None
        i, j = at.get(pair[0]), to.get(pair[1])
        if i is None or j is None:
            return None
        rows[i] |= 1 << j
    return tuple(rows)


def decode_rows(tokens: tuple, rows: tuple, within: tuple,
                pairs: dict) -> frozenset:
    """The relation of `encode_rows` rows as token pairs.  Equal pairs are
    one object, shared through `pairs`: token a -> token b -> (a, b)."""
    out = []
    for a, up in zip(tokens, rows):
        known = pairs.get(a)
        if known is None:
            known = pairs[a] = {}
        while up:
            b = up & -up
            up ^= b
            tb = within[b.bit_length() - 1]
            pair = known.get(tb)
            if pair is None:
                pair = known[tb] = (a, tb)
            out.append(pair)
    return frozenset(out)


def _is_token(tok) -> bool:
    return (type(tok) is tuple and len(tok) == 2 and type(tok[0]) is str
            and type(tok[1]) is int and tok[1] >= 1)


class OIMGraph:
    """The ordered token game of a net on ints.  Each distinct marking
    (tokens, rows), its sorted token tuple and the up-set mask of each of
    its positions, is interned to an id in the order it is found, with
    whether its tokens all have index 1 (`plain`) and its place tuple, the
    places of its tokens (`places`), which the canonical form reads.  A move
    is the tuple

        (label, tid, removed mask, deleted entries, target id,
         created mask, plan, images, to)

    built once per marking, with a (position, bit, up-set) entry per
    deleted token and the created mask, plan and position map `to` of
    `step_plan`; masks before the target id are over the source's
    positions, the created mask over the target's.  The firings depend on
    the tokens alone, so they are run once per token tuple and kept as its
    shapes (`shapes`), each (label, tid, removed mask, target tokens, plan,
    to, created mask); a marking's moves add the deleted entries and the
    target id from its order (`step_rows`).  `images` is the memo of
    `image(x, to)`, a plain dict of ints, one per distinct `to` (`images`),
    held by every move with that map; it holds the order rows and the
    searches' beta rows that `step_rows` sent through it.  A marking's
    moves and each label's bucket of them are tuples; as each move holds a
    dict, the cyclic collector keeps tracking them, but not the shapes,
    which hold no container.  The graph is also the net's codec of markings
    and steps (`certificates`): `known` maps the `id()` of each object in
    `decoded`, which keeps it alive, to its id.  `canon` is the fc/cn
    searches' memo of canonical triples (`engine._Search.canonical`),
    keyed by the forms of the two sides and beta.  A marking's form is its
    place tuple and rows, interned to an id on first read (`form_of`):
    markings whose tokens differ only by an order-preserving change of
    indices within each place share it, and the renaming reads nothing
    else of them, so one entry serves every triple of a form triple.  A
    call holds `lock` while it plays (`holding_graph`), which also guards
    these tables and the images a move stores."""

    def __init__(self, net: PTNet):
        self.kernel = net.kernel
        self.transitions = net.transitions
        self.lock = threading.RLock()
        self.ids: dict[tuple, int] = {}  # (tokens, rows) -> id
        self.oims: list[tuple] = []  # id -> (tokens, rows)
        self.plain: list[bool] = []  # id -> every token has index 1
        self.places: list[tuple] = []  # id -> the places of its tokens
        self.moves: list = []  # id -> (moves, moves by label), or None
        self.shapes: dict[tuple, tuple] = {}  # tokens -> firing shapes
        self.images: dict[tuple, dict] = {}  # to -> x -> image(x, to)
        self.pairs: dict = {}  # token a -> token b -> (a, b)
        self.decoded: dict[int, OrderedIndexedMarking] = {}
        self.at: dict[int, dict] = {}  # id -> token -> position
        self.known: dict[int, int] = {}  # id(decoded[o]) -> o
        self.forms: dict[tuple, int] = {}  # (places, rows) -> form id
        self.form: list = []  # id -> form id, or None until `form_of` ran
        self.canon: dict[tuple, tuple] = {}  # form triple -> canonical triple

    def intern(self, tokens: tuple, rows: tuple) -> int:
        key = (tokens, rows)
        o = self.ids.get(key)
        if o is None:
            o = self.ids[key] = len(self.oims)
            self.oims.append(key)
            places, indices = tuple(zip(*tokens)) or ((), ())
            self.plain.append(indices.count(1) == len(indices))
            self.places.append(places)
            self.moves.append(None)
            self.form.append(None)
        return o

    def form_of(self, o: int) -> int:
        """The id of marking o's form, its place tuple and rows, interned
        on first read and kept in `form`."""
        f = self.form[o] = self.forms.setdefault(
            (self.places[o], self.oims[o][1]), len(self.forms))
        return f

    def initial(self, m: Multiset) -> int:
        """The id of init_oim of the closed indexed marking of m: every
        token precedes every token."""
        tokens = tuple((p, i) for p, n in m.items() for i in range(1, n + 1))
        return self.intern(tokens, ((1 << len(tokens)) - 1,) * len(tokens))

    def successors(self, o: int) -> tuple:
        """(moves, moves by label) from marking o: transitions in
        declaration order, victim choices ordered by their sorted
        tokens."""
        entry = self.moves[o]
        if entry is None:
            tokens, rows = self.oims[o]
            shapes = self.shapes.get(tokens)
            if shapes is None:
                shapes = self.shapes[tokens] = tuple([
                    (t.label, t.tid, removed,
                     *step_plan(tokens, removed, created))
                    for t, removed, created in firings(
                        self.kernel, self.transitions, tokens)])
            moves, by_label = [], {}
            for label, tid, removed, target, plan, to, made in shapes:
                memo = self.images.setdefault(to, {})
                move = (label, tid, removed,
                        tuple([(i, 1 << i, rows[i]) for i, b in enumerate(to)
                               if not b]),
                        self.intern(target, step_rows(rows, removed, plan,
                                                      memo, to, made)),
                        made, plan, memo, to)
                moves.append(move)
                by_label[label] = by_label.get(label, ()) + (move,)
            entry = self.moves[o] = (tuple(moves), by_label)
        return entry

    def at_of(self, o: int) -> dict:
        """Each token of marking o -> its position."""
        at = self.at.get(o)
        if at is None:
            at = self.at[o] = {tok: i for i, tok in enumerate(self.oims[o][0])}
        return at

    def relation(self, a: int, rows: tuple, b: int) -> frozenset:
        """The token pairs of rows from the tokens of marking a to those
        of marking b."""
        return decode_rows(self.oims[a][0], rows, self.oims[b][0], self.pairs)

    def oim(self, o: int) -> OrderedIndexedMarking:
        x = self.decoded.get(o)
        if x is None:
            tokens, rows = self.oims[o]
            x = self.decoded[o] = OrderedIndexedMarking(
                frozenset(tokens), self.relation(o, rows, o))
            self.known[id(x)] = o
        return x

    def step(self, o: int, move: tuple) -> OIMStep:
        """The move of marking o as an `OIMStep`."""
        return OIMStep(move[1], frozenset(pick(self.oims[o][0], move[2])),
                       self.oim(move[4]))

    def encode(self, o: OrderedIndexedMarking) -> Optional[int]:
        """The id of o, or None if a token is not a (str place, int index
        >= 1) pair or an element of its order is not a pair of its
        tokens.  The tokens are checked before they are sorted, so that no
        mix of types is compared.  A marking this graph decoded is
        trusted and answered from `known`; any other object, even an
        equal one, is checked, as a token (place, True) equals
        (place, 1)."""
        x = self.known.get(id(o))
        if x is not None:
            return x
        if not all(map(_is_token, o.tokens)):
            return None
        tokens = tuple(sorted(o.tokens))
        at = {tok: i for i, tok in enumerate(tokens)}
        rows = encode_rows(at, o.order, at)
        if rows is None:
            return None
        x = self.intern(tokens, rows)
        self.at.setdefault(x, at)  # for `at_of`
        return x


def holding_graph(fn):
    """fn(net, ...) run holding the lock of the net's `OIMGraph`.
    Interning a marking or storing an image in a move's memo is a
    read-modify-write, so calls from several threads take turns."""
    @wraps(fn)
    def call(net: PTNet, *args, **kwargs):
        with net.oim_graph.lock:
            return fn(net, *args, **kwargs)
    return call


@holding_graph
def oim_successors(net: PTNet, o: OrderedIndexedMarking) -> list[OIMStep]:
    """All firings of the ordered token game from o, all victim choices."""
    graph = net.oim_graph
    start = graph.encode(o)
    if start is None:
        raise NetError(f"token not a (place, index >= 1) pair, or order "
                       f"mentions foreign token, in {o}")
    return [graph.step(start, move) for move in graph.successors(start)[0]]


def _oim_walk(net: PTNet, k0: IndexedMarking, cap: int) -> list[int]:
    """The ids of the ordered indexed markings reachable from
    init_oim(k0), breadth first."""
    m = closed_alpha(k0)
    net.kernel.explore((m,), cap)
    graph = net.oim_graph
    found = [graph.initial(m)]
    seen = set(found)
    for o in found:
        for move in graph.successors(o)[0]:
            if move[4] not in seen:
                seen.add(move[4])
                found.append(move[4])
    return found


@holding_graph
def reachable_oim(net: PTNet, k0: IndexedMarking, cap: int) -> frozenset:
    """All ordered indexed markings reachable from init_oim(k0).  Raises
    what exploring the marking of k0 under `cap` raises."""
    return frozenset(map(net.oim_graph.oim, _oim_walk(net, k0, cap)))


@holding_graph
def oim_space(net: PTNet, k0: IndexedMarking, cap: int) -> dict:
    """Each ordered indexed marking reachable from init_oim(k0) -> its
    `oim_successors`, decoded from the moves of the walk that found it."""
    graph = net.oim_graph
    return {graph.oim(o): [graph.step(o, move)
                           for move in graph.successors(o)[0]]
            for o in _oim_walk(net, k0, cap)}
