import pytest
from hypothesis import given, strategies as st

from netbisim import (
    Multiset, NetError, PTNet, Transition, initial_indexed, init_oim,
    oim_successors, reachable_oim,
)
from netbisim.ordered import OrderedIndexedMarking, image, invert, oim_check


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
