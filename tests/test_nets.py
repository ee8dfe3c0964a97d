import itertools
import random
from collections.abc import Mapping
from types import MappingProxyType

import pytest
from hypothesis import given, settings, strategies as st

from netbisim import (
    BoundExceededError, Multiset, NetError, NetSystem, NotEnabledError,
    PTNet, Transition, enabled, fire, reachable,
)
from netbisim.nets import EMPTY
from netbisim.randnets import CorpusConfig, random_instance


def full_scan(net, m):
    """Reference for `enabled`: every transition, in declaration order."""
    return [t.tid for t in net.transitions if t.pre <= m]


def ring(n):
    return PTNet.make(
        [f"r{i}" for i in range(n)],
        [Transition(f"t{i}", "a", Multiset.of(f"r{i}"),
                    Multiset.of(f"r{(i + 1) % n}")) for i in range(n)],
    )


def test_multiset_construction_and_access():
    m = Multiset({"a": 2, "b": 1, "c": 0})
    assert m["a"] == 2 and m["b"] == 1
    assert m["c"] == 0 and "c" not in m
    assert m.size == 3 and len(m) == 3
    assert m.dom == {"a", "b"}


def test_multiset_from_any_mapping():
    """Counts may come in any Mapping, not only a dict."""
    class Counts(Mapping):
        def __init__(self, counts):
            self.counts = counts

        def __getitem__(self, place):
            return self.counts[place]

        def __iter__(self):
            return iter(self.counts)

        def __len__(self):
            return len(self.counts)

    expected = Multiset.of("a", "a", "b")
    assert Multiset(Counts({"a": 2, "b": 1, "c": 0})) == expected
    assert Multiset(MappingProxyType({"a": 2, "b": 1})) == expected
    assert Multiset([("a", 1), ("b", 1), ("a", 1)]) == expected


def test_multiset_of_counts_repetitions():
    assert Multiset.of("a", "b", "a") == Multiset({"a": 2, "b": 1})
    assert Multiset.of() == EMPTY


def test_multiset_algebra():
    a = Multiset({"x": 2, "y": 1})
    b = Multiset({"x": 1, "z": 3})
    assert a + b == Multiset({"x": 3, "y": 1, "z": 3})
    assert a - b == Multiset({"x": 1, "y": 1})
    assert b - a == Multiset({"z": 3})
    assert Multiset({"x": 1}) <= a
    assert not b <= a
    assert a.times(3) == Multiset({"x": 6, "y": 3})
    assert a.times(0) == EMPTY


def test_multiset_rejects_bad_counts():
    with pytest.raises(NetError):
        Multiset({"a": -1})
    with pytest.raises(NetError):
        Multiset({"a": 1.5})


def test_multiset_repr():
    assert repr(Multiset({"s1": 1, "s2": 3})) == "s1 + 3*s2"
    assert repr(EMPTY) == "0"


def test_transition_requires_nonempty_preset():
    with pytest.raises(NetError):
        Transition("t", "a", Multiset(), Multiset.of("p"))


def test_net_validation():
    t = Transition("t", "a", Multiset.of("p"), Multiset())
    with pytest.raises(NetError):
        PTNet.make(["p", "p"], [t])
    with pytest.raises(NetError):
        PTNet.make(["q"], [t])  # preset place not declared
    with pytest.raises(NetError):
        PTNet.make(["p"], [t, t])  # duplicate id
    net = PTNet.make(["p"], [t])
    with pytest.raises(NetError):
        net.transition("nope")
    with pytest.raises(NetError):
        net.check_marking(Multiset.of("q"))


def test_enabled_and_fire(fig2_net, fig2_m0):
    assert enabled(fig2_net, fig2_m0) == ["t1", "t2"]
    after = fire(fig2_net, fig2_m0, "t1")
    assert after == Multiset({"s2": 5})
    with pytest.raises(NotEnabledError):
        fire(fig2_net, Multiset.of("s3"), "t1")


def test_reachable_counts_and_bound(fig2_net, fig2_m0):
    result = reachable(NetSystem(fig2_net, fig2_m0), 8)
    assert result.least_bound == 5
    # every reachable marking is a valid multiset over declared places
    for m in result.markings:
        fig2_net.check_marking(m)
    assert fig2_m0 in result.markings


def test_reachable_cap_violation(fig2_net, fig2_m0):
    with pytest.raises(BoundExceededError) as exc:
        reachable(NetSystem(fig2_net, fig2_m0), 4)
    assert exc.value.place == "s2"
    assert exc.value.cap == 4


def test_reachable_rejects_nonpositive_cap(fig1_net):
    with pytest.raises(NetError):
        reachable(NetSystem(fig1_net, Multiset.of("s1")), 0)


def test_unbounded_net_hits_cap():
    net = PTNet.make(
        ["p"],
        [Transition("t", "a", Multiset.of("p"), Multiset.of("p", "p"))],
    )
    with pytest.raises(BoundExceededError):
        reachable(NetSystem(net, Multiset.of("p")), 10)


@settings(max_examples=100)
@given(st.integers(min_value=0, max_value=10_000), st.data())
def test_enabled_matches_full_scan_on_random_nets(seed, data):
    net, m1, m2 = random_instance(random.Random(seed), CorpusConfig())
    m = data.draw(st.dictionaries(
        st.sampled_from(net.places), st.integers(min_value=0, max_value=3)
    ).map(Multiset))
    for marking in (m1, m2, m):
        assert enabled(net, marking) == full_scan(net, marking)


def test_enabled_matches_full_scan_on_large_ring():
    net = ring(2000)
    markings = [
        EMPTY, Multiset.of("r0"), Multiset.of("r1999"),
        Multiset.of("r7", "r7", "r1000"),
        Multiset({f"r{i}": 1 for i in range(0, 2000, 3)}),
    ]
    for m in markings:
        assert enabled(net, m) == full_scan(net, m)
    assert enabled(net, Multiset.of("r1000", "r7")) == ["t7", "t1000"]


def test_enabled_matches_full_scan_with_multi_place_presets():
    net = PTNet.make(
        ["a", "b", "c"],
        [
            Transition("sync", "x", Multiset.of("a", "b"), Multiset.of("c")),
            Transition("double", "y", Multiset.of("a", "a"), Multiset.of("b")),
            Transition("back", "z", Multiset.of("c"), Multiset.of("a")),
            Transition("all", "x", Multiset.of("c", "b", "a"), Multiset()),
        ],
    )
    for counts in itertools.product(range(3), repeat=3):
        m = Multiset(dict(zip("abc", counts)))
        assert enabled(net, m) == full_scan(net, m)
    assert enabled(net, Multiset.of("a", "b", "c")) == ["sync", "back", "all"]


def test_equal_nets_compare_and_hash_equal():
    a, b = ring(50), ring(50)
    assert a is not b
    assert a == b and hash(a) == hash(b)
    assert a != ring(51)
