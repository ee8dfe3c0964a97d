import random
import sys
import time
from collections import Counter
from itertools import permutations

import pytest

from netbisim import (
    CorpusConfig, Multiset, NetError, PTNet, Transition, decide_interleaving,
    decide_oim, decide_oimc, oracle_game,
)
from netbisim.oracle import _pairings
from netbisim.randnets import mutation_corpus


def test_fig1_fc_depth2(fig1_net):
    v = oracle_game(fig1_net, Multiset.of("s1"), Multiset.of("s3"), "fc", 2)
    assert v.outcome == "equivalent"
    assert v.witness is None  # the oracle checks verdicts; it ships no witness


def test_fig1_cn_depth2(fig1_net):
    v = oracle_game(fig1_net, Multiset.of("s1"), Multiset.of("s3"), "cn", 2)
    assert v.outcome == "not-equivalent"


def test_reflexivity(fig1_net, fig2_net, fig2_m0):
    for flavor in ("fc", "cn"):
        assert oracle_game(
            fig1_net, Multiset.of("s1"), Multiset.of("s1"), flavor, 3
        ).outcome == "equivalent"
        assert oracle_game(
            fig2_net, fig2_m0, fig2_m0, flavor, 6
        ).outcome == "equivalent"


def test_parallel_vs_choice(parallel_choice_net):
    m_par = Multiset.of("p1", "p2")
    m_choice = Multiset.of("q0")
    for flavor in ("fc", "cn"):
        v = oracle_game(parallel_choice_net, m_par, m_choice, flavor, 3)
        assert v.outcome == "not-equivalent"


def test_size_mismatch_is_cn_inequivalent(fig1_net):
    v = oracle_game(fig1_net, Multiset.of("s2"), Multiset.of("s2", "s2"),
                    "cn", 2)
    assert v.outcome == "not-equivalent"


def test_cycle_net_is_inconclusive(cycle_net):
    """Processes grow forever on a cyclic net, so the bounded game can
    neither close nor refute reflexive pairs."""
    m = Multiset.of("a", "a")
    for flavor in ("fc", "cn"):
        v = oracle_game(cycle_net, m, m, flavor, 3)
        assert v.outcome == "unknown"
        assert v.stats["limit"] == "depth"


def test_decided_oracle_names_no_limit(fig1_net):
    for flavor in ("fc", "cn"):
        v = oracle_game(fig1_net, Multiset.of("s1"), Multiset.of("s3"),
                        flavor, 2)
        assert v.outcome != "unknown"
        assert "limit" not in v.stats


def test_input_validation(fig1_net):
    with pytest.raises(ValueError):
        oracle_game(fig1_net, Multiset.of("s1"), Multiset.of("s1"), "xx", 2)
    with pytest.raises(ValueError):
        oracle_game(fig1_net, Multiset.of("s1"), Multiset.of("s1"), "fc", 0)


def test_input_errors_are_net_errors(fig1_net):
    """A bad flavor or depth is a NetError, which the CLI reports as an
    input error rather than as a verdict."""
    for flavor, depth in (("xx", 2), ("fc", 0), ("cn", -1)):
        with pytest.raises(NetError):
            oracle_game(fig1_net, Multiset.of("s1"), Multiset.of("s1"),
                        flavor, depth)


def _stack_depth() -> int:
    frame, n = sys._getframe(), 0
    while frame is not None:
        frame, n = frame.f_back, n + 1
    return n


def test_deep_game_needs_no_recursion_limit(monkeypatch):
    """The oracle keeps its own stack: a 120-move game on a self-loop is
    played with the recursion limit only 60 frames above the caller, and
    without raising the limit."""
    def refuse(limit):
        raise AssertionError(f"recursion limit raised to {limit}")

    net = PTNet.make(["p"], [Transition("t", "a", Multiset.of("p"),
                                        Multiset.of("p"))])
    m = Multiset.of("p")
    set_limit, old_limit = sys.setrecursionlimit, sys.getrecursionlimit()
    set_limit(_stack_depth() + 60)
    monkeypatch.setattr(sys, "setrecursionlimit", refuse)
    try:
        for flavor in ("fc", "cn"):
            v = oracle_game(net, m, m, flavor, 120)
            assert v.outcome == "unknown"
            # one state per prefix of the firing sequence, 0..120 events
            assert v.stats["states"] == 121
    finally:
        set_limit(old_limit)


def par(n):
    """n independent toggles x_i -a-> y_i -b-> x_i, all x_i marked."""
    net = PTNet.make(
        [p for i in range(1, n + 1) for p in (f"x{i}", f"y{i}")],
        [t for i in range(1, n + 1) for t in (
            Transition(f"ta{i}", "a", Multiset.of(f"x{i}"), Multiset.of(f"y{i}")),
            Transition(f"tb{i}", "b", Multiset.of(f"y{i}"), Multiset.of(f"x{i}")),
        )],
    )
    return net, Multiset.of(*(f"x{i}" for i in range(1, n + 1)))


@pytest.mark.parametrize("n,depth,flavor,outcome,states", [
    (2, 11, "fc", "unknown", 155),
    (2, 11, "cn", "unknown", 156),
    (3, 6, "fc", "unknown", 445),
    (3, 6, "cn", "unknown", 504),
])
def test_par_golden(n, depth, flavor, outcome, states):
    """Outcomes and memoized state counts of the recursive oracle."""
    net, m = par(n)
    v = oracle_game(net, m, m, flavor, depth)
    assert (v.outcome, v.stats["states"]) == (outcome, states)


@pytest.mark.parametrize("flavor", ["fc", "cn"])
def test_fig2_golden(fig2_net, fig2_m0, flavor):
    v = oracle_game(fig2_net, fig2_m0, fig2_m0, flavor, 6)
    assert (v.outcome, v.stats["states"]) == ("equivalent", 16)


def permutation_pairings(left, right):
    """Reference for `_pairings`: every permutation, duplicates removed."""
    if len(left) != len(right):
        return []
    return sorted({tuple(sorted(zip(left, perm)))
                   for perm in permutations(right)})


def test_pairings_match_permutations():
    rng = random.Random(5)
    for _ in range(200):
        left = sorted(rng.choice("abc") for _ in range(rng.randint(0, 6)))
        right = sorted(rng.choice("pqrs") for _ in range(rng.randint(0, 6)))
        assert _pairings(left, right) == permutation_pairings(left, right)


def test_cn_game_on_many_equal_tokens_is_fast():
    """Ten tokens on one place have one pairing; enumerating all 10!
    permutations first took seconds."""
    net = PTNet.make(["p"], [Transition("t", "a", Multiset.of("p"),
                                        Multiset.of("p"))])
    m = Multiset({"p": 10})
    t0 = time.perf_counter()
    v = oracle_game(net, m, m, "cn", 1)
    assert time.perf_counter() - t0 < 0.1
    assert v.outcome == "unknown"


def test_engine_agrees_with_oracle_on_the_mutation_tier():
    """On 300 union-mutation instances (seed 7, bound 3), the engine agrees
    with the depth-4 oracle wherever the oracle is definite, under fc and
    cn; an oracle `unknown` is tallied, never counted as agreement.  The
    tier separates il from fc 18 times (il equivalent, engine fc
    not-equivalent), and the oracle decides fc on each of them, so an
    fc condition that accepts too much shows here.  The oracle's states,
    summed per flavor, pin what it explores."""
    config = CorpusConfig(bound=3)
    tally: Counter = Counter()  # (flavor, oracle outcome) -> instances
    states: Counter = Counter()  # flavor -> oracle states, summed
    disagreements = []
    separations = []  # (instance, oracle fc outcome)
    for i, (_, net, m1, m2) in enumerate(mutation_corpus(7, 300, config)):
        engine, oracle = {}, {}
        for flavor, decide in (("fc", decide_oim), ("cn", decide_oimc)):
            verdict = oracle_game(net, m1, m2, flavor, 4)
            oracle[flavor] = verdict.outcome
            tally[flavor, oracle[flavor]] += 1
            states[flavor] += verdict.stats["states"]
            engine[flavor] = decide(net, m1, m2, config.bound).outcome
            assert engine[flavor] != "unknown"
            if oracle[flavor] not in ("unknown", engine[flavor]):
                disagreements.append((i, flavor))
        if (engine["fc"] == "not-equivalent" and decide_interleaving(
                net, m1, m2, config.bound).outcome == "equivalent"):
            separations.append((i, oracle["fc"]))
    assert disagreements == []
    assert tally == {
        ("fc", "equivalent"): 220, ("fc", "not-equivalent"): 30,
        ("fc", "unknown"): 50,
        ("cn", "equivalent"): 152, ("cn", "not-equivalent"): 119,
        ("cn", "unknown"): 29,
    }
    assert states == {"fc": 33393, "cn": 991}
    assert len(separations) == 18
    assert all(outcome == "not-equivalent" for _, outcome in separations)
