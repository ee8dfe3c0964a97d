"""Shared example nets, and a fixture that turns symmetry reduction off.

- fig1: one place fires a into a fresh place, another fires a into nothing;
  the classic pair that is fully-concurrent- but not causal-net-equivalent.
- fig2: u forks one token into two, v consumes one; 5-bounded from s1 + 3*s2.
- parallel_choice: a|b next to a.b + b.a on disjoint places; interleaving-
  but not fully-concurrent-equivalent.
- cycle: a weighted loop 2*a <-> b, bounded by 2.
"""

import pytest

from netbisim import Multiset, PTNet, Transition
from netbisim.engine import _Search


@pytest.fixture
def unreduced(monkeypatch):
    """The fc/cn game without symmetry reduction: every triple is its own
    canonical triple, in the search and in the validators."""
    monkeypatch.setattr(_Search, "canonical", lambda self, triple: triple)


@pytest.fixture(scope="session")
def fig1_net():
    return PTNet.make(
        ["s1", "s2", "s3"],
        [
            Transition("t1", "a", Multiset.of("s1"), Multiset.of("s2")),
            Transition("t4", "a", Multiset.of("s3"), Multiset()),
        ],
    )


@pytest.fixture(scope="session")
def fig2_net():
    return PTNet.make(
        ["s1", "s2", "s3"],
        [
            Transition("t1", "u", Multiset.of("s1"), Multiset.of("s2", "s2")),
            Transition("t2", "v", Multiset.of("s2"), Multiset.of("s3")),
        ],
    )


@pytest.fixture(scope="session")
def fig2_m0():
    return Multiset({"s1": 1, "s2": 3})


@pytest.fixture(scope="session")
def parallel_choice_net():
    return PTNet.make(
        ["p1", "p2", "p1x", "p2x", "q0", "qa", "qb", "qf"],
        [
            Transition("ta", "a", Multiset.of("p1"), Multiset.of("p1x")),
            Transition("tb", "b", Multiset.of("p2"), Multiset.of("p2x")),
            Transition("c1", "a", Multiset.of("q0"), Multiset.of("qa")),
            Transition("c2", "b", Multiset.of("qa"), Multiset.of("qf")),
            Transition("c3", "b", Multiset.of("q0"), Multiset.of("qb")),
            Transition("c4", "a", Multiset.of("qb"), Multiset.of("qf")),
        ],
    )


@pytest.fixture(scope="session")
def cycle_net():
    return PTNet.make(
        ["a", "b"],
        [
            Transition("t1", "x", Multiset.of("a", "a"), Multiset.of("b")),
            Transition("t2", "y", Multiset.of("b"), Multiset.of("a", "a")),
        ],
    )


@pytest.fixture(scope="session")
def coherence_corpus(fig1_net, fig2_net, fig2_m0, parallel_choice_net,
                     cycle_net):
    """(name, net, initial marking, cap) for the process-sequence suites."""
    return [
        ("fig1", fig1_net, Multiset.of("s1", "s3"), 4),
        ("fig2", fig2_net, fig2_m0, 8),
        ("parallel", parallel_choice_net, Multiset.of("p1", "p2"), 4),
        ("choice", parallel_choice_net, Multiset.of("q0"), 4),
        ("cycle", cycle_net, Multiset.of("a", "a"), 4),
    ]
