"""One ordered token game per net object (`PTNet.oim_graph`): the fc/cn
deciders and validators called on one net, in any order, after a
tampered certificate or from several threads, answer as they do each on
a fresh copy; the graph answers from its table only for the marking
objects it decoded and interns no malformed marking; the explorers walk
only from their start; and the graph is freed with its net."""

import functools
import gc
import math
import random
import sys
import threading
import time
import types
import weakref
from dataclasses import replace

import pytest

from netbisim import (
    CorpusConfig, GameTriple, Limits, Multiset, OIMStep,
    OrderedIndexedMarking, PTNet, Refutation, Transition, decide_oim,
    decide_oimc, engine, initial_indexed, oim_space, ordered, reachable_oim,
    symmetry, validate_refutation, validate_witness,
)
from netbisim.engine import _Search
from netbisim.nets import Kernel
from netbisim.randnets import mutation_corpus

from test_engine import alarm_pair, buffer, digest, initial_triple, validated
from test_symmetry import cycles_triple

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
    fails.  Returns whether the witness validates: it can, where no
    marking of its triples has a move."""
    root = initial_triple(m1, m2)
    tokens = frozenset([("ghost", 1)] + [(p, 2) for p in net.places])
    left = OrderedIndexedMarking(tokens, frozenset(
        (a, b) for a in tokens for b in tokens))
    foreign = GameTriple(left, root.right, frozenset(
        (a, b) for a in tokens for b in root.right.tokens))
    bogus = OIMStep("no-such-move", frozenset(), left)
    assert not validate_refutation(
        net, Refutation(foreign, "move", "left", bogus), flavor)
    return validate_witness(net, frozenset([foreign, root]), root, flavor)


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
        want["validate", flavor] = validated(copy(net), m1, m2, flavor, v)
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
            got[call] = validated(shared, m1, m2, flavor,
                                  certificates[flavor])
    assert got == want


def counted_renamings(monkeypatch) -> list:
    """[the number of `symmetry.least_relabel` calls the searches made
    since]."""
    calls = [0]
    relabel = engine.least_relabel

    def counting(*args):
        calls[0] += 1
        return relabel(*args)

    monkeypatch.setattr(engine, "least_relabel", counting)
    return calls


@pytest.mark.parametrize("name,net,m1,m2,cap", [
    i for i in INSTANCES if i[0] in ("buf4", "pair3_2")],
    ids=["buf4", "pair3_2"])
def test_validators_read_nothing_from_the_graphs_memo(name, net, m1, m2,
                                                     cap, monkeypatch):
    """fc then cn decide on one net, and cn renames no triple, as fc
    renamed them all into the net's memo.  With every value of that memo
    overwritten by a wrong canonical triple (the empty markings'), the
    genuine certificates still validate there and the tampered ones of
    `tamper` still fail; each validator renames as many triples as on a
    fresh copy of the net, which for a witness is as many as its decider
    renames there."""
    renamings = counted_renamings(monkeypatch)
    fresh = {}
    for flavor, decide in DECIDERS.items():
        renamings[0] = 0
        v = decide(copy(net), m1, m2, cap)
        searched = renamings[0]
        renamings[0] = 0
        assert validated(copy(net), m1, m2, flavor, v)
        fresh[flavor] = searched, renamings[0]
        if v.witness is not None:
            assert renamings[0] == searched
    shared = copy(net)
    verdicts = {}
    for flavor, decide in DECIDERS.items():
        renamings[0] = 0
        verdicts[flavor] = decide(shared, m1, m2, cap)
        assert renamings[0] == (fresh["fc"][0] if flavor == "fc" else 0)
    graph = shared.oim_graph
    assert len(graph.canon) == fresh["fc"][0]
    empty = graph.intern((), ())
    for triple in graph.canon:
        graph.canon[triple] = (empty, empty, ())
    for flavor, v in verdicts.items():
        renamings[0] = 0
        assert validated(shared, m1, m2, flavor, v)
        assert renamings[0] == fresh[flavor][1]
        assert not tamper(shared, m1, m2, flavor)


def assert_memo_whole(net: PTNet, renamed: int):
    """The net's memo holds one entry per renaming that returned, under the
    form triple of the triple renamed (`OIMGraph.form_of`), and each entry
    is the canonical triple that a search with a memo of its own computes
    for every triple of that form over the markings the graph interned."""
    graph = net.oim_graph
    assert len(graph.canon) == renamed
    of_form = {}  # (places, rows) -> the ids of the markings of that form
    for o, (_, rows) in enumerate(graph.oims):
        of_form.setdefault((graph.places[o], rows), []).append(o)
    form = {f: key for key, f in graph.forms.items()}
    for (f1, f2, beta), c in graph.canon.items():
        for left in of_form[form[f1]]:
            for right in of_form[form[f2]]:
                check = _Search(net, "fc", Limits(), {})
                assert check.canonical((left, right, beta)) == c


def test_stopped_searches_leave_the_memo_whole(monkeypatch):
    """A decision stopped by `max_seconds` inside a canonical search (on a
    one-place loop, from a root of 27 unordered tokens a side that beta
    relates in cycles of 7, 6, ..., 2 pairs: the first successor breaks
    the 7-cycle and is renamed, and renaming the next takes more than
    1,024 nodes, under a clock past the deadline inside `symmetry`), and
    one stopped by `max_triples` on buf(4), add no entry for the triple
    they were renaming or any incomplete one; a later decision without
    limits on the same net answers as on a fresh copy.  No pair of
    markings roots such a triple: theirs relate all tokens."""
    loop = PTNet.make(["p"], [Transition("t", "a", Multiset.of("p"),
                                         Multiset.of("p"))])
    six, many = Multiset({"p": 6}), Multiset({"p": 27})
    tied = cycles_triple(loop.oim_graph, (7, 6, 5, 4, 3, 2))
    buf, m0 = buffer(4)
    args = []
    relabel = engine.least_relabel

    def recording(*a):
        args.append(a[1:4])
        return relabel(*a)

    with monkeypatch.context() as m:
        m.setattr(engine, "least_relabel", recording)
        m.setattr(symmetry, "time", types.SimpleNamespace(
            monotonic=lambda: math.inf))
        m.setattr(_Search, "root", lambda self, m1, m2: tied)
        v = decide_oim(loop, many, many, 27, Limits(max_seconds=3600.0))
    assert (v.outcome, v.stats["limit"]) == ("unknown", "max_seconds")
    assert len(args) == 2
    assert_memo_whole(loop, len(args) - 1)
    search = _Search(loop, "fc", Limits(), {})
    graph = loop.oim_graph
    for left, right, beta in (args[-1], search.exchanged(args[-1])):
        assert None not in (graph.form[left], graph.form[right])
        assert (graph.form[left], graph.form[right], beta) not in graph.canon
    renamings = counted_renamings(monkeypatch)
    v = decide_oim(buf, m0, m0, 4, Limits(max_triples=10))
    assert (v.outcome, v.stats["limit"]) == ("unknown", "max_triples")
    assert_memo_whole(buf, renamings[0])
    for net, m, cap in ((loop, six, 6), (buf, m0, 4)):
        for flavor in DECIDERS:
            assert decided(net, m, m, cap, flavor)[0] == decided(
                copy(net), m, m, cap, flavor)[0]


def fresh(o: OrderedIndexedMarking) -> OrderedIndexedMarking:
    """An equal marking made of new objects."""
    return OrderedIndexedMarking(frozenset([*o.tokens]), frozenset([*o.order]))


def rebuilt(t: GameTriple) -> GameTriple:
    return GameTriple(fresh(t.left), fresh(t.right), frozenset([*t.beta]))


def rebuilt_refutation(ref: Refutation) -> Refutation:
    """An equal refutation DAG made of new objects."""
    def step(s):
        return OIMStep(s.tid, frozenset([*s.removed]), fresh(s.target))
    new = {}
    for node in ref.nodes():
        new[id(node)] = Refutation(
            rebuilt(node.triple), node.reason, node.side,
            None if node.attacker is None else step(node.attacker),
            tuple((step(r), new[id(sub)]) for r, sub in node.responses))
    return new[id(ref)]


def renamed(t: GameTriple, old, new) -> GameTriple:
    """t with the left token old renamed new, in its left marking and
    beta."""
    def sub(tok):
        return new if tok == old and tok is not new else tok
    left = OrderedIndexedMarking(
        frozenset(map(sub, t.left.tokens)),
        frozenset((sub(a), sub(b)) for a, b in t.left.order))
    return GameTriple(left, t.right,
                      frozenset((sub(a), b) for a, b in t.beta))


def dropped_pair(t: GameTriple, avoid: frozenset) -> GameTriple:
    pair = min((a, b) for a, b in t.left.order
               if a != b and a not in avoid and b not in avoid)
    return replace(t, left=replace(t.left, order=t.left.order - {pair}))


def reindexed(index):
    """The change renaming the least left token not avoided to the same
    place with index `index`."""
    def change(t: GameTriple, avoid: frozenset) -> GameTriple:
        tok = min(t.left.tokens - avoid)
        return renamed(t, tok, (tok[0], index))
    return change


# One change to the left marking of a triple, to tokens not in `avoid`.
# Index True equals index 1, so that marking equals the one it was made
# from.
CHANGES = {
    "order-pair-dropped": dropped_pair,
    "index-0": reindexed(0),
    "undeclared-place": lambda t, avoid: renamed(
        t, min(t.left.tokens - avoid), ("ghost", 1)),
    "index-True": reindexed(True),
}


def assert_tables_sound(graph):
    """Every interned marking is well formed, the table `known` maps each
    decoded marking object, by identity, to the id it was decoded from,
    whose marking a new equal object encodes to, and no table holds more
    markings than the graph has interned."""
    assert len(graph.decoded) <= len(graph.oims)
    assert len(graph.at) <= len(graph.oims)
    assert graph.known == {id(o): x for x, o in graph.decoded.items()}
    for tokens, _ in graph.oims:
        for tok in tokens:
            assert type(tok) is tuple and len(tok) == 2
            assert type(tok[0]) is str and type(tok[1]) is int and tok[1] >= 1
    for x, o in list(graph.decoded.items()):
        assert graph.encode(fresh(o)) == x
    for x, at in graph.at.items():
        assert at == {tok: i for i, tok in enumerate(graph.oims[x][0])}


@pytest.mark.parametrize("flavor", sorted(DECIDERS))
def test_marking_table_answers_as_the_checked_encode(flavor):
    """On a net whose graph decoded a witness and a refutation, the same
    certificates rebuilt from new, equal objects validate, and with one
    marking changed they fail: an order pair dropped, a token index set
    to 0 or True, or a token moved to an undeclared place.  Validating
    the changed ones first, on a net that decided nothing yet, leaves
    the same answers and no malformed marking interned."""
    net, m_left, m_right = alarm_pair(3, 2)
    root = initial_triple(m_left, m_left)
    decide = DECIDERS[flavor]
    witness = decide(net, m_left, m_left, 3).witness
    ref = decide(net, m_left, m_right, 3).refutation
    top = next(t for t in witness if t == root)
    # The root's attack is a left move; a change to tokens it does not
    # remove changes the marking it leads to.
    assert ref.side == "left"
    changed = [(witness - {top} | {change(top, frozenset())},
                replace(ref, triple=change(ref.triple, ref.attacker.removed)))
               for change in CHANGES.values()]

    def answers(shared):
        for bad_witness, bad_ref in changed:
            assert not validate_witness(shared, bad_witness, root, flavor)
            assert not validate_refutation(shared, bad_ref, flavor)
        assert validate_witness(shared, frozenset(map(rebuilt, witness)),
                                root, flavor)
        assert validate_refutation(shared, rebuilt_refutation(ref), flavor)
        assert_tables_sound(shared.oim_graph)

    answers(net)
    assert validate_witness(net, witness, root, flavor)
    assert validate_refutation(net, ref, flavor)
    shared = copy(net)
    answers(shared)
    assert decided(shared, m_left, m_left, 3, flavor)[0] == decided(
        copy(net), m_left, m_left, 3, flavor)[0]
    answers(shared)


def test_position_tables_are_built_once_per_marking(monkeypatch):
    """Validating a witness rebuilt from new objects checks and encodes
    each of its markings, building its token -> position table; beta is
    encoded with those tables, and `at_of` builds none again."""
    net, m0 = buffer(3)
    witness = frozenset(map(rebuilt, decide_oim(copy(net), m0, m0, 3).witness))
    at_of = ordered.OIMGraph.at_of
    built = [0]

    def counting(self, o):
        built[0] += o not in self.at
        return at_of(self, o)

    monkeypatch.setattr(ordered.OIMGraph, "at_of", counting)
    assert validate_witness(net, witness, initial_triple(m0, m0), "fc")
    markings = {o for t in witness for o in (t.left, t.right)}
    assert len(net.oim_graph.at) == len(markings)
    assert built[0] == 0


def test_witness_check_stops_at_the_first_triple_that_fails_to_encode():
    """validate_witness returns False at a triple that does not encode,
    before it encodes, and so interns, its right marking or any triple
    after it: the graph interns nothing."""
    net, m0 = buffer(3)
    root = initial_triple(m0, m0)
    triples = list(decide_oim(copy(net), m0, m0, 3).witness)
    bad = CHANGES["index-0"](root, frozenset())
    assert not validate_witness(net, [bad, *triples], root, "fc")
    assert net.oim_graph.oims == []


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
        assert validated(net, m0, m0, flavor, v)
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
                        got.append((key, validated(n, a, b, flavor, v)))
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


def unlocked_get(self, instance, owner=None):
    """`functools.cached_property.__get__` as of Python 3.12: no lock, so
    threads that miss the cache together each compute and store."""
    if instance is None:
        return self
    cache = instance.__dict__
    val = cache.get(self.attrname, cache)
    if val is cache:
        val = cache[self.attrname] = self.func(instance)
    return val


def slowed(monkeypatch, cls):
    """cls's constructor, made 5 ms slower."""
    build = cls.__init__

    def slow(self, net):
        time.sleep(0.005)
        build(self, net)

    monkeypatch.setattr(cls, "__init__", slow)


def test_threads_racing_first_use_play_on_one_graph(monkeypatch):
    """Four threads first use a fresh buf(3) at once, under the lock-free
    `cached_property` of Python 3.12+ and with a kernel and a graph each
    taking 5 ms to build: every search plays on the one graph the net
    keeps, so none plays on a graph whose lock another holds, the graph
    runs on the one kernel the net keeps, and each finds the 15 triples
    of the game."""
    monkeypatch.setattr(functools.cached_property, "__get__", unlocked_get)
    slowed(monkeypatch, Kernel)
    slowed(monkeypatch, ordered.OIMGraph)
    init = _Search.__init__
    played = []

    def recording(self, net, *args):
        init(self, net, *args)
        played.append((net, self.graph))

    monkeypatch.setattr(_Search, "__init__", recording)
    workers = 4
    nets = [buffer(3) for _ in range(3)]
    start = threading.Barrier(workers, timeout=60)
    verdicts, failures = [], []

    def work(i):
        try:
            for net, m0 in nets:
                start.wait()
                v = (decide_oim, decide_oimc)[i % 2](net, m0, m0, 3)
                verdicts.append((v.outcome, v.stats["triples"],
                                 net.oim_graph.kernel is net.kernel))
        except Exception as exc:  # reported by the main thread
            failures.append(exc)

    threads = [threading.Thread(target=work, args=(i,))
               for i in range(workers)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
    assert not any(t.is_alive() for t in threads)
    assert failures == []
    assert verdicts == [("equivalent", 15, True)] * workers * len(nets)
    assert len(played) == len(verdicts)
    assert all(graph is net.oim_graph for net, graph in played)
