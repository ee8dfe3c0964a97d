"""Symmetry reduction of the fc/cn game: canonical triples are renamings of
their triples or of their exchanges that do not depend on token indices,
interning order or which side is left, and the reduced game decides as the
unreduced one, with valid certificates."""

import itertools
import random
from functools import partial

import pytest
from hypothesis import given, settings, strategies as st

from netbisim import (
    CorpusConfig, GameTriple, Limits, Multiset, OrderedIndexedMarking,
    PTNet, Transition, decide_interleaving, decide_oim, decide_oimc,
    validate_witness,
)
from netbisim import symmetry
from netbisim.certificates import decode_triple, encode_triple
from netbisim.engine import ResourceLimitReached, _Search
from netbisim.indexed import is_closed
from netbisim.ordered import transpose
from netbisim.randnets import mutation_corpus, mutation_instance

import reference_symmetry
from test_engine import buffer, initial_triple, validated

DECIDERS = {"fc": decide_oim, "cn": decide_oimc}


def play(seed):
    """(net, search, raw triples) along a random play of the fc game on a
    mutation instance: the triples as the moves produce them, unrenamed."""
    rng = random.Random(seed)
    _, net, m1, m2 = mutation_instance(rng, CorpusConfig(bound=3))
    search = _Search(net, "fc", Limits(), {})
    search.canonical = lambda triple: triple  # successor stays literal
    triple = search.root(m1, m2)
    triples = [triple]
    for _ in range(8):
        attacker_left = rng.random() < 0.5
        attacker = triple[0] if attacker_left else triple[1]
        defender = triple[1] if attacker_left else triple[0]
        attacks = search.graph.successors(attacker)[0]
        if not attacks:
            break
        attack = rng.choice(attacks)
        responses = search.graph.successors(defender)[1].get(attack[0], ())
        nexts = [nxt for resp in responses if (nxt := search.successor(
            triple[2], attack, resp, attacker_left)) is not None]
        if not nexts:
            break
        triple = rng.choice(nexts)
        triples.append(triple)
    del search.canonical
    root = triples[0]
    assert search.canonical(root) in (root, exchanged(search, root))
    return net, search, triples


def exchanged(search, t: tuple) -> tuple:
    """The int triple t with its sides exchanged and beta transposed."""
    left, right, beta = t
    n = len(search.graph.oims[right][0])
    return right, left, tuple(sum(1 << i for i, row in enumerate(beta)
                                  if row >> j & 1) for j in range(n))


def exchanged_triple(t: GameTriple) -> GameTriple:
    return GameTriple(t.right, t.left, frozenset((b, a) for a, b in t.beta))


def merged_with_exchange(t: GameTriple) -> bool:
    """Whether the canonical form is also that of t's exchange: the sides'
    place tuples differ, or each place holds at most one token a side."""
    def places(o):
        return sorted(p for p, _ in o.tokens)

    lp, rp = places(t.left), places(t.right)
    return lp != rp or len(set(lp)) == len(lp)


def renamed(t: GameTriple, rng, ordered: bool = False) -> GameTriple:
    """t with each side's tokens renamed to random distinct indices of
    their places, in the order of the old ones if `ordered`."""
    def renaming(tokens):
        by_place = {}
        for p, i in sorted(tokens):
            by_place.setdefault(p, []).append((p, i))
        out = {}
        for p, toks in by_place.items():
            new = rng.sample(range(1, len(toks) + 4), len(toks))
            if ordered:
                new.sort()
            out.update({tok: (p, i) for tok, i in zip(toks, new)})
        return out

    left, right = renaming(t.left.tokens), renaming(t.right.tokens)

    def oim(o, f):
        return OrderedIndexedMarking(frozenset(map(f.get, o.tokens)), frozenset(
            (f[a], f[b]) for a, b in o.order))

    return GameTriple(oim(t.left, left), oim(t.right, right), frozenset(
        (left[a], right[b]) for a, b in t.beta))


def isomorphic(g: GameTriple, h: GameTriple) -> bool:
    """Whether place-preserving bijections of each side's tokens map g onto
    h, by trying every pair of them."""
    def bijections(src, dst):
        places = sorted({p for p, _ in src})
        per_place = []
        for p in places:
            xs = sorted(t for t in src if t[0] == p)
            ys = sorted(t for t in dst if t[0] == p)
            if len(xs) != len(ys):
                return []
            per_place.append([dict(zip(xs, perm))
                              for perm in itertools.permutations(ys)])
        out = []
        for parts in itertools.product(*per_place):
            f = {}
            for part in parts:
                f.update(part)
            out.append(f)
        return out

    def maps(f, rel):
        return frozenset((f[a], f[b]) for a, b in rel)

    if len(g.left.tokens) != len(h.left.tokens):
        return False
    return any(
        maps(fl, g.left.order) == h.left.order
        and maps(fr, g.right.order) == h.right.order
        and frozenset((fl[a], fr[b]) for a, b in g.beta) == h.beta
        for fl in bijections(g.left.tokens, h.left.tokens)
        if maps(fl, g.left.order) == h.left.order
        for fr in bijections(g.right.tokens, h.right.tokens))


def arbitrary(seed):
    """(net, search, [triple]) for a random triple of the search's net, not
    necessarily reachable: random preorders on random tokens of two or
    three places, and a random beta, so that beta also tells apart tokens
    that the orders cannot."""
    rng = random.Random(seed)
    places = ["p", "q", "r"][:rng.randint(2, 3)]
    net = PTNet.make(places, [Transition("t", "a", Multiset.of("p"),
                                         Multiset.of("p"))])

    def oim():
        tokens = [(p, i) for p in places for i in range(1, rng.randint(0, 3) + 1)]
        rel = {(a, a) for a in tokens} | {
            (a, b) for a in tokens for b in tokens if rng.random() < 0.3}
        while True:  # the transitive closure
            more = {(a, d) for a, b in rel for c, d in rel if b == c} - rel
            if not more:
                return OrderedIndexedMarking(frozenset(tokens), frozenset(rel))
            rel |= more

    left, right = oim(), oim()
    beta = frozenset((a, b) for a in left.tokens for b in right.tokens
                     if rng.random() < 0.5)
    search = _Search(net, "fc", Limits(), {})
    return net, search, [encode_triple(search.graph,
                                       GameTriple(left, right, beta))]


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10**9), st.sampled_from([play, arbitrary]))
def test_canonical_is_an_invariant_renaming(seed, triples_of):
    """Renamed copies of a triple, also encoded in another graph whose
    markings were interned in another order, have one canonical triple: a
    closed renaming of the triple or of its exchange, and its own canonical
    triple.  Where the sides' place tuples differ or no place holds two
    tokens, the exchanged copies have it too."""
    net, search, triples = triples_of(seed)
    encode = partial(encode_triple, search.graph)
    decode = partial(decode_triple, search.graph)
    rng = random.Random(seed)
    for t in triples:
        c = search.canonical(t)
        g, h = decode(t), decode(c)
        assert search.canonical(c) == c
        assert is_closed(h.left.tokens) and is_closed(h.right.tokens)
        assert isomorphic(g, h) or isomorphic(exchanged_triple(g), h)
        assert decode(exchanged(search, t)) == exchanged_triple(g)
        merged = merged_with_exchange(g)
        if merged:
            assert search.canonical(exchanged(search, t)) == c
        for _ in range(2):
            copy = encode(renamed(g, rng))
            assert search.canonical(copy) == c
            if merged:
                copy = encode(renamed(exchanged_triple(g), rng))
                assert search.canonical(copy) == c
        # a copy of the net has a graph of its own, in which the markings
        # of renamed copies were interned first, in random order
        other = _Search(PTNet.make(net.places, net.transitions, net.labels),
                        "fc", Limits(), {})
        copies = [renamed(g, rng) for _ in range(3)]
        sides = [o for copy in copies for o in (copy.left, copy.right)]
        rng.shuffle(sides)
        for o in sides:
            other.graph.encode(o)
        copy = encode_triple(other.graph, copies[0])
        assert decode_triple(other.graph, other.canonical(copy)) == h
        if merged:
            copy = encode_triple(other.graph, exchanged_triple(copies[1]))
            assert decode_triple(other.graph, other.canonical(copy)) == h


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10**9), st.sampled_from([play, arbitrary]))
def test_canonical_depends_on_forms_only(seed, triples_of):
    """A triple whose tokens move to other indices of their places in the
    same order keeps each side's form (places and rows,
    `OIMGraph.form_of`) and beta, so it has the same `least_relabel` image
    and canonical triple: a search that renamed the first answers it from
    its memo if it renamed the first (whose tokens need not all have index
    1, as a root's do), and a search with a memo of its own computes it
    anew."""
    net, search, triples = triples_of(seed)
    graph = search.graph
    rng = random.Random(seed)
    for t in triples:
        copy = encode_triple(graph, renamed(decode_triple(graph, t), rng,
                                            ordered=True))
        assert copy[2] == t[2]
        for a, b in zip(copy[:2], t[:2]):
            assert graph.form_of(a) == graph.form_of(b)
        assert (symmetry.least_relabel(graph, *copy)
                == symmetry.least_relabel(graph, *t))
        c = search.canonical(t)
        entries = len(search.canon)
        assert search.canonical(copy) == c
        if not (graph.plain[t[0]] and graph.plain[t[1]]):
            assert len(search.canon) == entries
        assert _Search(net, "fc", Limits(), {}).canonical(copy) == c


def test_other_places_or_rows_are_other_forms():
    """Markings that differ only in their places, or only in their rows,
    have forms of their own: after renaming a triple on one, a search
    renames a triple on the other as a search with a memo of its own
    does."""
    net = PTNet.make(["p", "q"], [Transition("t", "a", Multiset.of("p"),
                                             Multiset.of("p"))])
    graph = net.oim_graph
    unordered, chain = (0b01, 0b10), (0b11, 0b10)
    pp = graph.intern((("p", 1), ("p", 2)), unordered)
    pq = graph.intern((("p", 1), ("q", 2)), unordered)
    pp_chain = graph.intern((("p", 1), ("p", 2)), chain)
    beta = (0b01, 0b10)
    for a, b in ((pp, pq), (pp, pp_chain)):
        search = _Search(net, "fc", Limits(), {})
        search.canonical((a, a, beta))
        alone = _Search(net, "fc", Limits(), {}).canonical((b, b, beta))
        assert search.canonical((b, b, beta)) == alone
        assert len(search.canon) == 2

def test_canonical_tries_every_vertex_of_a_tied_cell():
    """Five unordered tokens a side, with beta a 4-cycle beside a 6-cycle:
    every token has two beta neighbours, so refinement ties them all, yet
    tokens of the two cycles are not interchangeable.  Renamed copies
    still meet in one canonical triple."""
    def antichain(n):
        tokens = [("p", i) for i in range(1, n + 1)]
        return OrderedIndexedMarking(frozenset(tokens),
                                     frozenset((t, t) for t in tokens))

    def cycle(xs, ys):
        k = len(xs)
        return {(("p", xs[i]), ("p", ys[i])) for i in range(k)} | {
            (("p", xs[i]), ("p", ys[(i + 1) % k])) for i in range(k)}

    g = GameTriple(antichain(5), antichain(5), frozenset(
        cycle([1, 2], [1, 2]) | cycle([3, 4, 5], [3, 4, 5])))
    net = PTNet.make(["p"], [Transition("t", "a", Multiset.of("p"),
                                        Multiset.of("p"))])
    search = _Search(net, "fc", Limits(), {})
    encode = partial(encode_triple, search.graph)
    c = search.canonical(encode(g))
    assert isomorphic(g, decode_triple(search.graph, c))
    rng = random.Random(1)
    for _ in range(20):
        assert search.canonical(encode(renamed(g, rng))) == c


def counted_visits(monkeypatch) -> list:
    """[the number of `symmetry._visit` calls since], recursive ones
    included."""
    calls = [0]
    visit = symmetry._visit

    def counting(*args):
        calls[0] += 1
        return visit(*args)

    monkeypatch.setattr(symmetry, "_visit", counting)
    return calls


def one_place_graph():
    return PTNet.make(["s1"], [Transition("t", "a", Multiset.of("s1"),
                                          Multiset.of("s1"))]).oim_graph


def test_a_cell_of_twins_is_split_at_one_node(monkeypatch):
    """600 tokens on one place, each before every other on both sides and
    all related by beta: every cell is a cell of twins, so one search node
    writes each out in vertex order, with no level per token."""
    graph = one_place_graph()
    o = graph.initial(Multiset({"s1": 600}))
    beta = ((1 << 600) - 1,) * 600
    calls = counted_visits(monkeypatch)
    assert symmetry.least_relabel(graph, o, o, beta) == (o, o, beta)
    assert calls == [1]


def test_the_twins_of_a_tried_vertex_are_not_tried(monkeypatch):
    """Four tokens a side whose order is two 2-cliques, and no beta: the
    search individualises one token per clique, at the root and on the
    right side below the first, where the two leaves give the swap of the
    right cliques.  That swap fixes the left side, so below the second it
    skips the second right clique, for 1 + (1 + 2) + (1 + 1) = 6 nodes;
    twin pruning alone takes 1 + 2 * (1 + 2) = 7, and trying every token
    1 + 4 * (1 + 4) = 21."""
    graph = one_place_graph()
    o = graph.intern(tuple(("s1", i) for i in range(1, 5)),
                     (0b0011, 0b0011, 0b1100, 0b1100))
    calls = counted_visits(monkeypatch)
    lo, ro, beta = symmetry.least_relabel(graph, o, o, (0,) * 4)
    assert calls == [6]
    assert lo == ro and beta == (0,) * 4
    assert symmetry.least_relabel(graph, lo, ro, beta) == (lo, ro, beta)


def unordered_triple(graph, beta) -> tuple:
    """The int triple of len(beta) unordered tokens a side on place p of
    graph's net, with the given beta rows."""
    n = len(beta)
    o = graph.intern(tuple(("p", i) for i in range(1, n + 1)),
                     tuple(1 << i for i in range(n)))
    return o, o, tuple(beta)


def cycles_triple(graph, lengths, left=None, right=None) -> tuple:
    """`unordered_triple` of sum(lengths) tokens a side, in which beta
    relates the left tokens to the right ones in disjoint cycles of
    2 * length edges, for each of `lengths`, on the left and right
    positions listed in `left` and `right` (in order by default): every
    token has two beta neighbours, so refinement ties them all."""
    n = sum(lengths)
    left, right = left or range(n), right or range(n)
    beta = [0] * n
    start = 0
    for length in lengths:
        for i in range(length):
            beta[left[start + i]] = (1 << right[start + i]) | (
                1 << right[start + (i + 1) % length])
        start += length
    return unordered_triple(graph, beta)


def test_time_limit_holds_inside_one_canonical_search(monkeypatch):
    """27 unordered tokens a side, related by beta in cycles of 2 to 7
    pairs: refinement ties them all, and tokens of cycles of different
    lengths are not interchangeable, so one canonical search takes 3,991
    nodes although it skips the rotations of each cycle.  A search whose
    time limit has passed stops it at node 1,024, its first check, with
    ResourceLimitReached("max_seconds"), and leaves the net's memo it was
    handed empty; one without a limit, as the validators make, runs it to
    the end."""
    net = PTNet.make(["p"], [Transition("t", "a", Multiset.of("p"),
                                        Multiset.of("p"))])
    graph = net.oim_graph
    triple = cycles_triple(graph, (2, 3, 4, 5, 6, 7))
    calls = counted_visits(monkeypatch)
    with pytest.raises(ResourceLimitReached) as stop:
        _Search(net, "fc", Limits(max_seconds=0.0),
                graph.canon).canonical(triple)
    assert stop.value.limit == "max_seconds"
    assert calls == [1024]
    assert graph.canon == {}
    calls[0] = 0
    c = _Search(net, "fc", Limits(), {}).canonical(triple)
    assert calls == [3_991]
    assert c == symmetry.least_relabel(graph, *triple)


def differential_triples():
    """(graph, int triple) pairs on which the pruned canonical search is
    compared with the unpruned one: 40 unions of beta cycles and 40
    circulant betas (left token i related to right token i + s mod n for
    each s of a random set), on tokens numbered at random (seed 30), and
    the buf(6) and buf(7) fc witness triples, each also renamed at
    random."""
    rng = random.Random(30)
    graph = PTNet.make(["p"], [Transition("t", "a", Multiset.of("p"),
                                          Multiset.of("p"))]).oim_graph
    out = []
    for _ in range(40):
        lengths = [rng.randint(1, 4) for _ in range(rng.randint(2, 3))]
        n = sum(lengths)
        out.append((graph, cycles_triple(graph, lengths, rng.sample(
            range(n), n), rng.sample(range(n), n))))
    for _ in range(40):
        n = rng.randint(3, 7)
        shifts = rng.sample(range(n), rng.randint(1, 3))
        out.append((graph, unordered_triple(graph, [
            sum(1 << (i + s) % n for s in shifts) for i in range(n)])))
    for k in (6, 7):
        net, m0 = buffer(k)
        for t in decide_oim(net, m0, m0, k).witness:
            for u in (t, renamed(t, rng)):
                out.append((net.oim_graph, encode_triple(net.oim_graph, u)))
    return out


def test_pruned_search_renames_as_the_unpruned_one(monkeypatch):
    """`least_relabel` returns the same triple as with the canonical
    search that prunes twins only (`reference_symmetry.least_order`, the
    search before it pruned by automorphisms), which visits every leaf
    but twins' and so finds the least code by definition."""
    cases = differential_triples()
    pruned = [symmetry.least_relabel(graph, *t) for graph, t in cases]
    monkeypatch.setattr(symmetry, "least_order", reference_symmetry.least_order)
    assert [symmetry.least_relabel(graph, *t) for graph, t in cases] == pruned


def test_automorphisms_that_move_the_prefix_do_not_prune():
    """Two disjoint Shrikhande graphs (Cayley graphs of Z4 x Z4 with
    connection set +-(1, 0), +-(0, 1), +-(1, 1)), as one cell of a
    symmetric digraph, numbered in 8 ways (seed 1): all get one code.
    Once the search has individualised vertices of one copy and a vertex
    y of the other, the 9 vertices of y's copy not adjacent to y stay one
    cell, which the automorphisms fixing y split 3 + 6.  Automorphisms
    found by then include some that move y, and pruning with those too
    skips every least leaf, the first numbering included."""
    shifts = {(1, 0), (3, 0), (0, 1), (0, 3), (1, 1), (3, 3)}
    vertices = [(c, i, j) for c in range(2) for i in range(4) for j in range(4)]
    n = len(vertices)
    rng = random.Random(1)
    codes = set()
    for trial in range(8):
        at = rng.sample(range(n), n) if trial else list(range(n))
        out = [0] * n
        for u, (c, i, j) in enumerate(vertices):
            for v, (d, k, m) in enumerate(vertices):
                if c == d and ((k - i) % 4, (m - j) % 4) in shifts:
                    out[at[u]] |= 1 << at[v]
        codes.add(tuple(symmetry.least_order([(1 << n) - 1], out,
                                             transpose(out, n))))
    assert len(codes) == 1


def decide_both(net, m1, m2, cap, flavor, monkeypatch):
    """(reduced verdict, unreduced verdict)."""
    reduced = DECIDERS[flavor](net, m1, m2, cap)
    with monkeypatch.context() as m:
        m.setattr(_Search, "canonical", lambda self, triple: triple)
        unreduced = DECIDERS[flavor](net, m1, m2, cap)
    return reduced, unreduced


@pytest.mark.parametrize("flavor", ["fc", "cn"])
def test_witness_independent_of_bit_order(flavor, monkeypatch):
    """A union net on which a canonical form that broke ties between
    automorphic orderings by bit position produced a 3-triple fc witness
    that its own validator rejected."""
    transitions = []
    for s in ("", "'"):
        transitions += [
            Transition(f"t0{s}", "a", Multiset.of(f"p0{s}", f"p1{s}"),
                       Multiset.of(f"p1{s}")),
            Transition(f"t1{s}", "a", Multiset.of(f"p1{s}"),
                       Multiset.of(f"p1{s}")),
            Transition(f"t2{s}", "a", Multiset.of(f"p0{s}"),
                       Multiset.of(f"p0{s}")),
        ]
    net = PTNet.make(["p0", "p1", "p0'", "p1'"], transitions)
    m1, m2 = Multiset({"p0": 2}), Multiset({"p0'": 2})
    reduced, unreduced = decide_both(net, m1, m2, 2, flavor, monkeypatch)
    assert reduced.outcome == unreduced.outcome == "equivalent"
    assert validated(net, m1, m2, flavor, reduced)
    assert validated(net, m1, m2, flavor, unreduced)


@pytest.mark.parametrize("flavor", ["fc", "cn"])
def test_buf6_decides_on_few_triples(flavor):
    """The root of buf(6) alone has 6! x 6! tied orderings; twins are
    ordered without branching."""
    net, m0 = buffer(6)
    v = DECIDERS[flavor](net, m0, m0, 6)
    assert v.outcome == "equivalent"
    assert v.stats["triples"] <= 200
    assert validate_witness(net, v.witness, initial_triple(m0, m0), flavor)


def test_mutation_tier_agrees_with_unreduced_game(monkeypatch):
    """On 300 union-mutation instances (seed 7, bound 3), the reduced and
    unreduced games decide alike under fc and cn, every certificate of
    either validates, and every `copy` instance is equivalent."""
    config = CorpusConfig(bound=3)
    for mutation, net, m1, m2 in mutation_corpus(7, 300, config):
        for flavor in DECIDERS:
            reduced, unreduced = decide_both(net, m1, m2, config.bound,
                                             flavor, monkeypatch)
            assert reduced.outcome == unreduced.outcome
            assert validated(net, m1, m2, flavor, reduced)
            assert validated(net, m1, m2, flavor, unreduced)
            if mutation == "copy":
                assert reduced.outcome == "equivalent"
        if mutation == "copy":
            assert decide_interleaving(net, m1, m2,
                                       config.bound).outcome == "equivalent"
