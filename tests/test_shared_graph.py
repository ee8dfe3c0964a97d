"""One ordered token game per net object (`PTNet.oim_graph`): the fc/cn
deciders and validators called on one net, in any order, after a
tampered certificate or from several threads, answer as they do each on
a fresh copy; the explorers walk only from their start; and the graph is
freed with its net."""

import gc
import random
import sys
import threading
import weakref

import pytest

from netbisim import (
    CorpusConfig, GameTriple, Multiset, OIMStep, OrderedIndexedMarking,
    PTNet, Refutation, decide_oim, decide_oimc, initial_indexed, oim_space,
    reachable_oim, validate_refutation, validate_witness,
)
from netbisim.randnets import mutation_corpus

from test_engine import alarm_pair, buffer, digest, initial_triple
from test_symmetry import certified

DECIDERS = {"fc": decide_oim, "cn": decide_oimc}


def instances():
    """(name, net, m1, m2, cap): a fixed part of the seed-7 mutation
    corpus, buf(2..4) and alarm pairs."""
    config = CorpusConfig(bound=3)
    out = [(f"mutation{i}_{kind}", net, m1, m2, config.bound)
           for i, (kind, net, m1, m2) in enumerate(
               mutation_corpus(7, 40, config)) if i % 2 == 0]
    for k in (2, 3, 4):
        net, m0 = buffer(k)
        out.append((f"buf{k}", net, m0, m0, k))
    for k, g in ((2, 1), (3, 2)):
        out.append((f"pair{k}_{g}", *alarm_pair(k, g), k))
    return out


INSTANCES = instances()


def copy(net: PTNet) -> PTNet:
    return PTNet.make(net.places, net.transitions, net.labels)


def decided(net, m1, m2, cap, flavor) -> tuple:
    """(outcome, triples, sha256 of the certificate text), and the
    verdict."""
    v = DECIDERS[flavor](net, m1, m2, cap)
    return (v.outcome, v.stats["triples"], digest(v)), v


def tamper(net: PTNet, m1: Multiset, m2: Multiset, flavor: str):
    """Validate, on net, certificates whose first triple names a token on
    an undeclared place and the second token of each place, so that the
    net's graph interns a marking holding these before the calls under
    test play on it.  The refutation's attack is not a move, so it
    fails."""
    root = initial_triple(m1, m2)
    tokens = frozenset([("ghost", 1)] + [(p, 2) for p in net.places])
    left = OrderedIndexedMarking(tokens, frozenset(
        (a, b) for a in tokens for b in tokens))
    foreign = GameTriple(left, root.right, frozenset(
        (a, b) for a in tokens for b in root.right.tokens))
    bogus = OIMStep("no-such-move", frozenset(), left)
    assert not validate_refutation(
        net, Refutation(foreign, "move", "left", bogus), flavor)
    validate_witness(net, frozenset([foreign, root]), root, flavor)


@pytest.mark.parametrize("tampered", [False, True])
@pytest.mark.parametrize("name,net,m1,m2,cap", INSTANCES,
                         ids=[i[0] for i in INSTANCES])
def test_call_order_on_one_net_changes_nothing(name, net, m1, m2, cap,
                                               tampered):
    """fc/cn decide and validate, each on a fresh copy of the net, answer
    as the same calls do in a shuffled order on one net object, also
    after validating tampered certificates there first."""
    want = {}
    certificates = {}
    for flavor in DECIDERS:
        want["decide", flavor], v = decided(copy(net), m1, m2, cap, flavor)
        certificates[flavor] = v
        want["validate", flavor] = certified(copy(net), m1, m2, flavor, v)
        assert want["validate", flavor]
    shared = copy(net)
    if tampered:
        for flavor in DECIDERS:
            tamper(shared, m1, m2, flavor)
    calls = sorted(want)
    random.Random(name).shuffle(calls)
    got = {}
    for call in calls:
        kind, flavor = call
        if kind == "decide":
            got[call], _ = decided(shared, m1, m2, cap, flavor)
        else:
            got[call] = certified(shared, m1, m2, flavor,
                                  certificates[flavor])
    assert got == want


def test_explorers_walk_only_from_their_start():
    """After a decider filled the graph with the markings of both sides of
    an alarm pair (disjoint places), the explorers list only those
    reached from the one they start at."""
    net, m1, m2 = alarm_pair(2, 1)
    k1 = initial_indexed(m1)
    want = oim_space(copy(net), k1, 2)
    decide_oim(net, m1, m2, 2)
    assert oim_space(net, k1, 2) == want
    assert reachable_oim(net, k1, 2) == frozenset(want)


def test_graph_is_freed_with_its_net():
    """The graph holds the net's kernel and transitions, not the net, so
    reference counting frees it with the net and the verdicts: nothing
    waits for the cycle collector."""
    net, m0 = buffer(3)
    verdicts = [decide(net, m0, m0, 3) for decide in DECIDERS.values()]
    for flavor, v in zip(DECIDERS, verdicts):
        assert certified(net, m0, m0, flavor, v)
    pair, left, right = alarm_pair(2, 1)
    refuted = decide_oim(pair, left, right, 2)
    assert validate_refutation(pair, refuted.refutation, "fc")
    graphs = [weakref.ref(net.oim_graph), weakref.ref(pair.oim_graph)]
    enabled = gc.isenabled()
    gc.disable()
    try:
        del net, verdicts, v, pair, refuted
        assert [g() for g in graphs] == [None, None]
    finally:
        if enabled:
            gc.enable()


def test_threads_on_one_net_answer_as_alone():
    """Four threads (more than the two cores of a small host) decide and
    validate, round after round, on net objects they share, starting each
    round together with a short switch interval, so that they build and
    intern into one graph at once; each answers as the same calls on a
    fresh copy."""
    net, m1, m2 = alarm_pair(3, 2)
    buf, m0 = buffer(4)
    cases = [(net, m1, m2, 3), (buf, m0, m0, 4)]
    want = []
    for n, a, b, cap in cases:
        for flavor in DECIDERS:
            key, _ = decided(copy(n), a, b, cap, flavor)
            want.append((key, True))
    rounds = [[(copy(n), a, b, cap) for n, a, b, cap in cases]
              for _ in range(5)]
    workers = 4
    start = threading.Barrier(workers, timeout=60)
    results = [[] for _ in range(workers)]
    failures = []

    def work(out):
        try:
            for shared in rounds:
                start.wait()
                got = []
                for n, a, b, cap in shared:
                    for flavor in DECIDERS:
                        key, v = decided(n, a, b, cap, flavor)
                        got.append((key, certified(n, a, b, flavor, v)))
                out.append(got)
        except Exception as exc:  # reported by the main thread
            failures.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(out,))
                   for out in results]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert failures == []
    assert results == [[want] * len(rounds)] * workers
