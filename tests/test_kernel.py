"""The compiled marking kernel against references written from the
definitions: t is enabled at m iff pre(t) <= m, and firing it gives
m - pre(t) + post(t).  The nets come from `randnets` (arc weights up to
2); the references explore breadth first over `Multiset`s, and over the
indexed and ordered indexed markings of the token games."""

import random
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

import netbisim.engine as engine
from netbisim import (
    BoundExceededError, Limits, Multiset, NetError, NetSystem, PTNet,
    Transition, decide_interleaving, decide_oim, decide_oimc, enabled,
    im_space, im_successors, init_oim, oim_space, oim_successors, reachable,
    reachable_im, reachable_oim,
)
from netbisim.indexed import firings, initial_indexed
from netbisim.nets import Kernel
from netbisim.randnets import CorpusConfig, random_instance

CONFIG = CorpusConfig(max_places=5, max_transitions=5, bound=3,
                      max_reachable=60)

seeds = st.integers(min_value=0, max_value=100_000)


def instance(seed: int):
    return random_instance(random.Random(seed), CONFIG)


class RefBound(Exception):
    def __init__(self, place, marking, cap):
        super().__init__(place, marking, cap)
        self.key = (place, marking, cap)


def ref_steps(net: PTNet, m: Multiset) -> list:
    return [(t, (m - t.pre) + t.post) for t in net.transitions if t.pre <= m]


def ref_check(m: Multiset, cap: int) -> None:
    for p in sorted(m):
        if m[p] > cap:
            raise RefBound(p, m, cap)


def ref_reachable(net: PTNet, m: Multiset, cap: int) -> list:
    """The markings reachable from m in breadth-first order; RefBound at
    the first one found with more than cap tokens on a place."""
    ref_check(m, cap)
    order, seen = [m], {m}
    for x in order:
        for _, y in ref_steps(net, x):
            if y not in seen:
                ref_check(y, cap)
                seen.add(y)
                order.append(y)
    return order


def least_bound(markings) -> int:
    return max((n for m in markings for _, n in m.items()), default=0)


def ref_pair_error(net, m1, m2, cap):
    """The first bound violation of exploring m1, then m2 from scratch."""
    try:
        ref_reachable(net, m1, cap)
        ref_reachable(net, m2, cap)
    except RefBound as exc:
        return exc.key
    return None


def ref_bisimilar(net, states, m1, m2) -> bool:
    """Strong bisimilarity on the labelled reachability graph as the
    greatest fixed point: drop pairs until every step of either side is
    answered by an equally labelled step into a kept pair."""
    steps = {x: [(t.label, y) for t, y in ref_steps(net, x)] for x in states}
    rel = {(x, y) for x in states for y in states}

    def answered(a, b):
        return all(any(lbl == l2 and (x, y) in rel for l2, y in steps[b])
                   for lbl, x in steps[a])

    changed = True
    while changed:
        changed = False
        for a, b in list(rel):
            if not (answered(a, b) and answered(b, a)):
                rel.discard((a, b))
                changed = True
    return (m1, m2) in rel


def error_key(exc: BoundExceededError):
    return exc.place, exc.marking, exc.cap


@settings(max_examples=150, deadline=None)
@given(seeds)
def test_reachable_matches_the_definitions(seed):
    net, m1, _ = instance(seed)
    result = reachable(NetSystem(net, m1), CONFIG.bound)
    order = ref_reachable(net, m1, CONFIG.bound)
    assert result.markings == frozenset(order)
    assert result.least_bound == least_bound(order)


@settings(max_examples=150, deadline=None)
@given(seeds)
def test_bound_error_matches_the_definitions(seed):
    """At cap = least_bound - 1 the first violation found is the
    reference's: the same place, marking and cap, also in the message."""
    net, m1, _ = instance(seed)
    bound = least_bound(ref_reachable(net, m1, CONFIG.bound))
    if bound < 2:
        return
    cap = bound - 1
    with pytest.raises(BoundExceededError) as got:
        reachable(NetSystem(net, m1), cap)
    with pytest.raises(RefBound) as want:
        ref_reachable(net, m1, cap)
    assert error_key(got.value) == want.value.key
    place, marking, _ = want.value.key
    assert str(got.value) == (f"place {place!r} holds {marking[place]} "
                              f"tokens in {marking}, cap is {cap}")


def ref_states(start, successors) -> frozenset:
    """The states reachable from start over successors, breadth first."""
    order, seen = [start], {start}
    for x in order:
        for step in successors(x):
            if step.target not in seen:
                seen.add(step.target)
                order.append(step.target)
    return frozenset(order)


@settings(max_examples=100, deadline=None)
@given(seeds, st.integers(min_value=1, max_value=3))
def test_token_game_explorers_match_a_reference(seed, cap):
    """reachable_im and reachable_oim list the states a breadth-first walk
    over im_successors and oim_successors reaches, and im_space and
    oim_space map each of them to its successors; past the cap they raise
    what `reachable` raises from the projected marking, message included.
    They start from the sum of an instance's markings, which is not always
    3-bounded, so that some caps are exceeded."""
    net, m1, m2 = instance(seed)
    k0 = initial_indexed(m1 + m2)
    try:
        reachable(NetSystem(net, m1 + m2), cap)
        want = None
    except BoundExceededError as exc:
        want = exc
    for explore, space, start, successors in (
            (reachable_im, im_space, k0, im_successors),
            (reachable_oim, oim_space, init_oim(k0), oim_successors)):
        if want is None:
            states = explore(net, k0, cap)
            assert states == ref_states(start, lambda x: successors(net, x))
            assert space(net, k0, cap) == {x: successors(net, x)
                                           for x in states}
            continue
        for walk in (explore, space):
            with pytest.raises(BoundExceededError) as got:
                walk(net, k0, cap)
            assert error_key(got.value) == error_key(want)
            assert str(got.value) == str(want)


@settings(max_examples=150, deadline=None)
@given(seeds, st.integers(min_value=0, max_value=1_000))
def test_pair_bound_check_matches_the_definitions(seed, pick):
    """The deciders' bound check explores m2 only if m1's search did not
    reach it, yet raises what exploring both from scratch raises; for an
    m2 reachable from m1 and for the instance's own m2."""
    net, m1, m2 = instance(seed)
    reach1 = ref_reachable(net, m1, CONFIG.bound)
    for other in (reach1[pick % len(reach1)], m2):
        union = set(reach1) | set(ref_reachable(net, other, CONFIG.bound))
        top = least_bound(union)
        for cap in {top - 1, least_bound(reach1)}:
            if not 1 <= cap < top:
                continue
            want = ref_pair_error(net, m1, other, cap)
            for decide in (decide_oim, decide_oimc, decide_interleaving):
                with pytest.raises(BoundExceededError) as got:
                    decide(net, m1, other, cap)
                assert error_key(got.value) == want


@settings(max_examples=150, deadline=None)
@given(seeds, st.integers(min_value=0, max_value=1_000))
def test_interleaving_matches_a_reference_refinement(seed, pick):
    net, m1, m2 = instance(seed)
    reach1 = ref_reachable(net, m1, CONFIG.bound)
    for other in (reach1[pick % len(reach1)], m2):
        states = set(reach1) | set(ref_reachable(net, other, CONFIG.bound))
        v = decide_interleaving(net, m1, other, CONFIG.bound)
        assert v.stats["states"] == len(states)
        expected = ref_bisimilar(net, states, m1, other)
        assert v.outcome == ("equivalent" if expected else "not-equivalent")


@settings(max_examples=150, deadline=None)
@given(seeds, st.dictionaries(st.sampled_from(["p1", "p2", "p3", "p4"]),
                              st.integers(min_value=0, max_value=3)))
def test_one_enabledness_test(seed, counts):
    """`enabled` and the individual token game's firings agree with
    pre(t) <= m on arbitrary markings."""
    net, _, _ = instance(seed)
    m = Multiset({p: n for p, n in counts.items() if p in net.places})
    want = [t.tid for t in net.transitions if t.pre <= m]
    assert enabled(net, m) == want
    fired = firings(net.kernel, net.transitions,
                    tuple(sorted(initial_indexed(m))))
    assert list(dict.fromkeys(t.tid for t, _, _ in fired)) == want


def test_kernel_is_built_on_first_use_and_kept():
    net = PTNet.make(["a", "b"], [Transition("t", "x", Multiset.of("a"),
                                             Multiset.of("b"))])
    assert "kernel" not in vars(net)
    reachable(NetSystem(net, Multiset.of("a")), 1)
    kernel = vars(net)["kernel"]
    decide_interleaving(net, Multiset.of("a"), Multiset.of("b"), 1)
    assert net.kernel is kernel


def test_deciders_on_one_pair_explore_it_once(monkeypatch):
    """The fc, cn and il deciders on one pair and cap get the one dict its
    first exploration made.  A pair over the cap raises in each of them in
    turn, and leaves the kept exploration as it was: nothing is kept of an
    exploration that raised."""
    returned = []
    explore = Kernel.explore

    def record(kernel, seeds, cap):
        returned.append(explore(kernel, seeds, cap))
        return returned[-1]

    monkeypatch.setattr(Kernel, "explore", record)
    net = PTNet.make(["a", "b", "c"], [
        Transition("t", "x", Multiset.of("a"), Multiset.of("b")),
        Transition("u", "x", Multiset.of("b"), Multiset.of("a")),
        Transition("v", "y", Multiset.of("c"), Multiset.of("c", "c")),
    ])
    a, b, c = Multiset.of("a"), Multiset.of("b"), Multiset.of("c")
    deciders = (decide_oim, decide_oimc, decide_interleaving)
    for decide in deciders:
        assert decide(net, a, b, 1).outcome == "equivalent"
    assert len(returned) == 3
    assert returned[0] is returned[1] is returned[2]
    for decide in deciders:
        with pytest.raises(BoundExceededError):
            decide(net, a, c, 1)
    assert decide_oim(net, a, b, 1).outcome == "equivalent"
    assert len(returned) == 4 and returned[-1] is returned[0]


def test_undeclared_place_in_second_marking_is_reported():
    net = PTNet.make(["a", "b"], [Transition("t", "x", Multiset.of("a"),
                                             Multiset.of("b"))])
    with pytest.raises(NetError, match=r"undeclared places \['zz'\]"):
        decide_oim(net, Multiset.of("a"), Multiset.of("zz"), 1)


def test_limit_is_named(monkeypatch):
    """An unknown verdict names the limit that stopped the search."""
    net = PTNet.make(["a", "b"], [Transition("t", "x", Multiset.of("a"),
                                             Multiset.of("b")),
                                  Transition("u", "x", Multiset.of("b"),
                                             Multiset.of("a"))])
    m = Multiset.of("a")
    v = decide_oim(net, m, m, 1, Limits(max_triples=0))
    assert (v.outcome, v.stats["limit"]) == ("unknown", "max_triples")
    clock = iter(range(1_000))
    monkeypatch.setattr(engine, "time",
                        SimpleNamespace(monotonic=lambda: next(clock)))
    v = decide_oimc(net, m, m, 1, Limits(max_seconds=0.5))
    assert (v.outcome, v.stats["limit"]) == ("unknown", "max_seconds")
    assert "limit" not in decide_oim(net, m, m, 1).stats
