from bisect import bisect_left
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from netbisim import (
    Multiset, NetError, PTNet, Transition, initial_indexed, init_oim,
    oim_successors, parse_net, reachable_oim,
)
from netbisim import ordered
from netbisim.indexed import firings
from netbisim.ordered import (
    OrderedIndexedMarking, image, invert, oim_check,
)
from netbisim.randnets import corpus

from test_engine import alarm_pair, buffer, ring

NETS = Path(__file__).resolve().parent.parent / "nets"


def test_init_oim_is_full_square(fig2_m0):
    k0 = initial_indexed(fig2_m0)
    o = init_oim(k0)
    assert o.tokens == k0
    assert o.order == frozenset((a, b) for a in k0 for b in k0)
    oim_check(o)


def test_init_oim_requires_closed():
    with pytest.raises(NetError):
        init_oim(frozenset({("p", 2)}))


def test_successors_reject_an_order_on_foreign_tokens(fig2_net):
    s1 = ("s1", 1)
    o = OrderedIndexedMarking(frozenset({s1}),
                              frozenset({(s1, s1), (s1, ("s2", 1))}))
    with pytest.raises(NetError, match="order mentions foreign token"):
        oim_successors(fig2_net, o)


def test_order_update_golden(fig2_net, fig2_m0):
    """Firing t2 deleting (s2,2): pairs touching (s2,2) disappear; every
    old token that preceded (s2,2) now precedes the new (s3,1), and (s3,1)
    is related to itself."""
    k0 = initial_indexed(fig2_m0)
    o0 = init_oim(k0)
    steps = [
        s for s in oim_successors(fig2_net, o0)
        if s.tid == "t2" and s.removed == frozenset({("s2", 2)})
    ]
    assert len(steps) == 1
    target = steps[0].target
    kept = frozenset(
        (a, b) for a, b in o0.order if a != ("s2", 2) and b != ("s2", 2)
    )
    added = frozenset({
        (("s1", 1), ("s3", 1)),
        (("s2", 1), ("s3", 1)),
        (("s2", 3), ("s3", 1)),
        (("s3", 1), ("s3", 1)),
    })
    assert target.order == kept | added
    oim_check(target)


def test_generated_tokens_form_clique(fig2_net, fig2_m0):
    o0 = init_oim(initial_indexed(fig2_m0))
    for step in oim_successors(fig2_net, o0):
        generated = step.target.tokens - (o0.tokens - step.removed)
        for a in generated:
            for b in generated:
                assert (a, b) in step.target.order


def test_untouched_pairs_preserved(fig2_net, fig2_m0):
    o0 = init_oim(initial_indexed(fig2_m0))
    for step in oim_successors(fig2_net, o0):
        untouched = o0.tokens - step.removed
        for a in untouched:
            for b in untouched:
                assert ((a, b) in step.target.order) == ((a, b) in o0.order)


def test_clause3_uses_prefiring_order():
    """An untouched token unrelated to any deleted token must not precede
    the generated ones."""
    net = PTNet.make(["p", "q"], [Transition("t", "t", Multiset.of("p"),
                                             Multiset.of("q"))])
    a, b, new = ("p", 1), ("p", 2), ("q", 1)

    def order_after_firing_b(old):
        o = OrderedIndexedMarking(frozenset({a, b}), old)
        step, = (s for s in oim_successors(net, o)
                 if s.removed == frozenset({b}))
        return step.target.order

    # pre-firing order: a and b only reflexively related
    order = order_after_firing_b(frozenset({(a, a), (b, b)}))
    assert (a, new) not in order
    # now a <= b held before the firing: a is promoted below the new token
    order2 = order_after_firing_b(frozenset({(a, a), (b, b), (a, b)}))
    assert (a, new) in order2


@st.composite
def plans(draw):
    """(plan, n, x): a plan from n source positions that drops some and
    opens new ones (-1), in any order, and a mask of source positions."""
    n = draw(st.integers(0, 10))
    kept = draw(st.permutations(range(n)))[:draw(st.integers(0, n))]
    plan = draw(st.permutations(kept + [-1] * draw(st.integers(0, 4))))
    return tuple(plan), n, draw(st.integers(0, (1 << n) - 1))


@given(plans())
def test_image_maps_each_kept_position_through_the_plan(case):
    plan, n, x = case
    y = image(x, invert(plan, n))
    assert y >> len(plan) == 0
    for j, i in enumerate(plan):
        assert (y >> j & 1) == (i >= 0 and x >> i & 1)


def test_reachable_oim_finite(fig2_net, fig2_m0):
    k0 = initial_indexed(fig2_m0)
    oims = reachable_oim(fig2_net, k0, 8)
    assert init_oim(k0) in oims
    assert all(isinstance(o, OrderedIndexedMarking) for o in oims)
    for o in oims:
        oim_check(o)


def par(n):
    """n independent toggles x_i -a-> y_i -b-> x_i."""
    net = PTNet.make(
        [p for i in range(n) for p in (f"x{i}", f"y{i}")],
        [t for i in range(n) for t in (
            Transition(f"ta{i}", "a", Multiset.of(f"x{i}"),
                       Multiset.of(f"y{i}")),
            Transition(f"tb{i}", "b", Multiset.of(f"y{i}"),
                       Multiset.of(f"x{i}")))],
    )
    return net, Multiset.of(*(f"x{i}" for i in range(n)))


def from_file(name, *markings):
    doc = parse_net((NETS / name).read_text())
    return doc.net, [doc.marking(m) for m in markings]


def scratch_moves(graph, o):
    """The moves of marking o built from scratch, the firings and the
    whole order update run for o alone: (label, tid, removed, deleted
    entries, (target tokens, target rows), created mask, plan, to)."""
    tokens, rows = graph.oims[o]
    out = []
    for t, removed, created in firings(graph.kernel, graph.transitions,
                                       tokens):
        target = [tok for i, tok in enumerate(tokens) if not removed >> i & 1]
        plan = [i for i in range(len(tokens)) if not removed >> i & 1]
        made = 0
        for tok in created:
            j = bisect_left(target, tok)
            target.insert(j, tok)
            plan.insert(j, -1)
            made |= 1 << j
        to = invert(plan, len(tokens))
        target_rows = tuple(
            made if i < 0 else image(rows[i], to)
            | (made if rows[i] & removed else 0) for i in plan)
        deleted = tuple((i, 1 << i, rows[i]) for i in range(len(tokens))
                        if removed >> i & 1)
        out.append((t.label, t.tid, removed, deleted,
                    (tuple(target), target_rows), made, tuple(plan), to))
    return out


def walked(net, markings, cap):
    """The net's graph after building the moves of every marking
    reachable from the initial ordered markings of `markings`, with the
    ids built, in the order found."""
    net.kernel.explore(markings, cap)
    graph = net.oim_graph
    found = list(dict.fromkeys(graph.initial(m) for m in markings))
    seen = set(found)
    for o in found:
        for move in graph.successors(o)[0]:
            if move[4] not in seen:
                seen.add(move[4])
                found.append(move[4])
    return graph, found


def differential_cases():
    cases = [(f"buf({k})", *buffer(k), k) for k in (2, 3, 4, 5)]
    cases += [(f"par({n})", *par(n), 1) for n in (2, 3, 4)]
    cases += [(f"pair({k},{g})", *alarm_pair(k, g), k)
              for k, g in ((2, 1), (3, 2), (4, 3))]
    net, m1, m2 = ring(150)
    cases.append(("ring(150)", net, m1, m2, 1))
    net, ms = from_file("fig1.pn", "m_s1", "m_s3")
    cases.append(("fig1", net, *ms, 8))
    net, ms = from_file("fig2.pn", "m0")
    cases.append(("fig2", net, *ms, 8))
    net, ms = from_file("parallel_choice.pn", "m_par", "m_choice")
    cases.append(("parallel_choice", net, *ms, 8))
    cases += [(f"seed-42 corpus #{i}", net, m1, m2, 2)
              for i, (net, m1, m2) in enumerate(corpus(42, 60))]
    return cases


@pytest.mark.parametrize("case", differential_cases(), ids=lambda c: c[0])
def test_moves_match_a_build_from_scratch(case):
    """Every built marking's moves, whose firings come from the shapes of
    its token tuple, equal the moves built for it alone: order, masks,
    deleted entries, target tokens and rows, created mask, plan and
    position map; each move's memo is the graph's one for its map, and
    each label's bucket lists the label's moves in order."""
    _, net, *markings, cap = case
    graph, built = walked(net, markings, cap)
    for o in built:
        moves, by_label = graph.successors(o)
        assert [(*move[:4], graph.oims[move[4]], move[5], move[6], move[8])
                for move in moves] == scratch_moves(graph, o)
        assert all(move[7] is graph.images[move[8]] for move in moves)
        assert by_label == {label: tuple(m for m in moves if m[0] == label)
                            for label in dict.fromkeys(m[0] for m in moves)}
    assert len(graph.shapes) == len({graph.oims[o][0] for o in built})


def test_firings_run_once_per_token_tuple(monkeypatch):
    """par(4)'s 81 ordered markings carry 16 token tuples: the game runs
    the individual token game's firings once for each tuple, and the
    markings that share a tuple share its shapes."""
    calls = []

    def counted(kernel, transitions, tokens):
        calls.append(tokens)
        return firings(kernel, transitions, tokens)

    monkeypatch.setattr(ordered, "firings", counted)
    net, m0 = par(4)
    graph, built = walked(net, [m0], 1)
    assert len(built) == 81
    assert len(calls) == len(set(calls)) == len(graph.shapes) == 16


def test_moves_with_one_position_map_share_one_memo():
    """`image(x, to)` reads only `to`, so every move with an equal `to`,
    from whichever marking, holds one memo object: buf(3)'s 267 moves
    from 89 markings carry 12 position maps."""
    net, m0 = buffer(3)
    graph, built = walked(net, [m0], 3)
    moves = [move for o in built for move in graph.successors(o)[0]]
    memos: dict = {}
    for move in moves:
        memos.setdefault(move[8], set()).add(id(move[7]))
    assert (len(built), len(moves), len(memos)) == (89, 267, 12)
    assert all(len(ids) == 1 for ids in memos.values())
    assert len(graph.images) == 12
