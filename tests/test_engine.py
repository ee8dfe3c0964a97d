import gc
import hashlib
import itertools
import sys
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from netbisim import (
    BoundExceededError, CorpusConfig, GameTriple, Limits, Multiset, NetError,
    OIMStep, OrderedIndexedMarking, PTNet, Refutation, Transition,
    beta_update, corpus, decide_interleaving, decide_oim, decide_oimc,
    deleted_condition_cn, deleted_condition_fc, format_refutation,
    format_witness, init_oim, initial_indexed, oim_successors, oracle_game,
    parse_net, validate_refutation, validate_witness,
)

from netbisim.engine import _Search
from test_oracle import par

NETS = Path(__file__).resolve().parent.parent / "nets"


def initial_triple(m1, m2):
    """The root of the fc/cn game for m1 and m2, from public names."""
    k1, k2 = initial_indexed(m1), initial_indexed(m2)
    return GameTriple(init_oim(k1), init_oim(k2),
                      frozenset((a, b) for a in k1 for b in k2))


def buffer(k):
    """A producer filling k slots, consumed by an always-ready `get`."""
    net = PTNet.make(
        ["pr", "free", "full"],
        [
            Transition("put", "a", Multiset.of("pr", "free"),
                       Multiset.of("pr", "full")),
            Transition("get", "b", Multiset.of("full"), Multiset.of("free")),
        ],
    )
    return net, Multiset({"pr": 1, "free": k})


def alarm_pair(k, g):
    """Two disjoint k-slot buffers; the right one can also raise an alarm
    `c` once g of its slots are full, so the two are never equivalent."""
    transitions = []
    for s in "LR":
        transitions += [
            Transition(f"put{s}", "a", Multiset.of(f"pr{s}", f"free{s}"),
                       Multiset.of(f"pr{s}", f"full{s}")),
            Transition(f"get{s}", "b", Multiset.of(f"full{s}"),
                       Multiset.of(f"free{s}")),
        ]
    alarm = Multiset({"fullR": g})
    transitions.append(Transition("alarm", "c", alarm, alarm))
    net = PTNet.make(
        ["prL", "freeL", "fullL", "prR", "freeR", "fullR"], transitions
    )
    return net, Multiset({"prL": 1, "freeL": k}), Multiset({"prR": 1, "freeR": k})


def ring(n):
    """A one-token ring of n places with one `a`-transition per place."""
    net = PTNet.make(
        [f"r{i}" for i in range(n)],
        [Transition(f"t{i}", "a", Multiset.of(f"r{i}"),
                    Multiset.of(f"r{(i + 1) % n}")) for i in range(n)],
    )
    return net, Multiset.of("r0"), Multiset.of(f"r{n // 2}")


def recursive_principal_moves(node):
    """Reference for `Refutation.principal_moves`: the recursive definition,
    exponential in the depth of the refutation."""
    out = []
    while node is not None and node.attacker is not None:
        out.append((node.side, node.attacker.tid, node.attacker.removed))
        node = max(
            (sub for _, sub in node.responses),
            key=lambda r: len(recursive_principal_moves(r)),
            default=None,
        )
    return out


def line_length(node):
    return 0 if node.attacker is None else 1 + max(
        (line_length(sub) for _, sub in node.responses), default=0
    )


def test_beta_update_restricts_and_pairs():
    a1, a2, g1, g2 = ("p", 1), ("p", 2), ("q", 1), ("q", 2)
    beta = frozenset({(a1, a2), (a1, g2)})
    out = beta_update(
        untouched1=frozenset({a1}), generated1=frozenset({g1}),
        untouched2=frozenset({a2}), generated2=frozenset({g2}),
        beta=beta,
    )
    assert out == frozenset({(a1, a2), (g1, g2)})


def test_deleted_condition_fc_basic():
    a, b = ("p", 1), ("p", 2)
    refl = frozenset({(a, a), (b, b)})
    beta = frozenset({(a, b)})
    assert deleted_condition_fc(frozenset({a}), frozenset({b}), refl, refl, beta)
    # no beta pair between the removed sets
    assert not deleted_condition_fc(
        frozenset({a}), frozenset({b}), refl, refl, frozenset()
    )


def test_deleted_condition_fc_uses_order():
    """A removed token may be justified by a bigger removed token that is
    beta-related across."""
    lo, hi, other = ("p", 1), ("p", 2), ("q", 1)
    leq1 = frozenset({(lo, lo), (hi, hi), (lo, hi)})
    leq2 = frozenset({(other, other)})
    beta = frozenset({(hi, other)})
    assert deleted_condition_fc(
        frozenset({lo, hi}), frozenset({other}), leq1, leq2, beta
    )
    # without lo <= hi the token lo has no justification
    leq1_flat = frozenset({(lo, lo), (hi, hi)})
    assert not deleted_condition_fc(
        frozenset({lo, hi}), frozenset({other}), leq1_flat, leq2, beta
    )


LEFT_TOKENS = [("p", 1), ("p", 2), ("q", 1)]
RIGHT_TOKENS = [("r", 1), ("r", 2), ("s", 1)]


def relation(xs, ys):
    return st.frozensets(st.tuples(st.sampled_from(xs), st.sampled_from(ys)))


@given(st.frozensets(st.sampled_from(LEFT_TOKENS)),
       st.frozensets(st.sampled_from(RIGHT_TOKENS)),
       relation(LEFT_TOKENS, LEFT_TOKENS), relation(RIGHT_TOKENS, RIGHT_TOKENS),
       relation(LEFT_TOKENS, RIGHT_TOKENS))
def test_deleted_condition_fc_matches_definition(removed1, removed2, leq1,
                                                 leq2, beta):
    """Against the condition as written, on relations that need not be
    preorders."""
    expected = all(
        any((p1, q1) in leq1 and (q1, q2) in beta
            for q1 in removed1 for q2 in removed2)
        for p1 in removed1
    ) and all(
        any((p2, q2) in leq2 and (q1, q2) in beta
            for q2 in removed2 for q1 in removed1)
        for p2 in removed2
    )
    assert deleted_condition_fc(removed1, removed2, leq1, leq2, beta) == expected


def test_deleted_condition_cn_perfect_matching():
    a, b, c, d = ("p", 1), ("p", 2), ("q", 1), ("q", 2)
    assert deleted_condition_cn(
        frozenset({a, b}), frozenset({c, d}),
        frozenset({(a, c), (b, d)}),
    )
    # both left tokens can only match c: no perfect matching
    assert not deleted_condition_cn(
        frozenset({a, b}), frozenset({c, d}),
        frozenset({(a, c), (b, c)}),
    )
    assert not deleted_condition_cn(frozenset({a, b}), frozenset({c}),
                                    frozenset({(a, c), (b, c)}))


def test_fig1_fc_equivalent(fig1_net):
    v = decide_oim(fig1_net, Multiset.of("s1"), Multiset.of("s3"), 4)
    assert v.outcome == "equivalent"
    assert validate_witness(
        fig1_net, v.witness,
        initial_triple(Multiset.of("s1"), Multiset.of("s3")), "fc",
    )


def test_fig1_cn_not_equivalent(fig1_net):
    v = decide_oimc(fig1_net, Multiset.of("s1"), Multiset.of("s3"), 4)
    assert v.outcome == "not-equivalent"
    assert validate_refutation(fig1_net, v.refutation, "cn")


def test_fig1_interleaving_equivalent(fig1_net):
    v = decide_interleaving(fig1_net, Multiset.of("s1"), Multiset.of("s3"), 4)
    assert v.outcome == "equivalent"


def test_reflexivity(fig2_net, fig2_m0):
    for decide in (decide_oim, decide_oimc, decide_interleaving):
        assert decide(fig2_net, fig2_m0, fig2_m0, 8).outcome == "equivalent"


def test_parallel_vs_choice(parallel_choice_net):
    m_par = Multiset.of("p1", "p2")
    m_choice = Multiset.of("q0")
    assert decide_interleaving(
        parallel_choice_net, m_par, m_choice, 4
    ).outcome == "equivalent"
    assert decide_oim(
        parallel_choice_net, m_par, m_choice, 4
    ).outcome == "not-equivalent"
    assert decide_oimc(
        parallel_choice_net, m_par, m_choice, 4
    ).outcome == "not-equivalent"


def test_size_gate(fig1_net):
    """Different-size deadlocked markings are cn-distinguished but
    fc-equivalent."""
    m1 = Multiset.of("s2")
    m2 = Multiset.of("s2", "s2")
    assert decide_oimc(fig1_net, m1, m2, 4).outcome == "not-equivalent"
    assert decide_oim(fig1_net, m1, m2, 4).outcome == "equivalent"


def test_symmetry(fig1_net, parallel_choice_net):
    """Exchanging the two markings keeps every verdict.  Each fc/cn
    certificate of either order validates on the deciding net and on a
    new copy of it, and a refutation refutes the root asked about, with
    its markings in the order given."""
    pairs = [
        (fig1_net, Multiset.of("s1"), Multiset.of("s3")),
        (parallel_choice_net, Multiset.of("p1", "p2"), Multiset.of("q0")),
    ]
    for net, m1, m2 in pairs:
        for decide in (decide_oim, decide_oimc, decide_interleaving):
            assert decide(net, m1, m2, 4).outcome == decide(net, m2, m1, 4).outcome
        for flavor, decide in (("fc", decide_oim), ("cn", decide_oimc)):
            for a, b in ((m1, m2), (m2, m1)):
                v = decide(net, a, b, 4)
                assert validated(net, a, b, flavor, v)
                assert validated_anew(net, a, b, flavor, v)
                if v.refutation is not None:
                    assert v.refutation.triple == initial_triple(a, b)


def parallel_vs_interleaved(n):
    """n independent actions a‖b‖... beside a one-token net that runs them
    in every order: one place per set of actions done, and a transition per
    action not yet done.  For n = 2, a‖b against a.b + b.a.  The two
    markings have the same interleavings, but only the first has
    concurrent events."""
    labels = "abcd"[:n]
    transitions = [Transition(f"t{x}", x, Multiset.of(f"p{x}"),
                              Multiset.of(f"p{x}done")) for x in labels]
    places = [p for x in labels for p in (f"p{x}", f"p{x}done")]

    def q(done):
        return "q" + ("".join(done) or "0")

    for size in range(n + 1):
        for done in itertools.combinations(labels, size):
            places.append(q(done))
            transitions += [
                Transition(f"c{q(done)}{x}", x, Multiset.of(q(done)),
                           Multiset.of(q(sorted(done + (x,)))))
                for x in labels if x not in done]
    m_par = Multiset.of(*(f"p{x}" for x in labels))
    return PTNet.make(places, transitions), m_par, Multiset.of("q0")


@pytest.mark.parametrize("n", [2, 3, 4])
def test_parallel_against_interleaved_is_il_but_not_fc_or_cn(n):
    """A known answer, in both argument orders: il-equivalent, neither
    fc- nor cn-equivalent, the depth-4 oracle agrees, and every
    certificate validates on the deciding net and on a new copy.  The two
    sides hold tokens on different places, so the canonical form puts
    whichever side's places come first on the left."""
    net, m_par, m_seq = parallel_vs_interleaved(n)
    for m1, m2 in ((m_par, m_seq), (m_seq, m_par)):
        assert decide_interleaving(net, m1, m2, 1).outcome == "equivalent"
        for flavor, decide in (("fc", decide_oim), ("cn", decide_oimc)):
            v = decide(net, m1, m2, 1)
            assert v.outcome == "not-equivalent"
            assert oracle_game(net, m1, m2, flavor, 4).outcome == v.outcome
            assert v.refutation.triple == initial_triple(m1, m2)
            assert validated(net, m1, m2, flavor, v)
            assert validated_anew(net, m1, m2, flavor, v)


def test_bound_exceeded_propagates(fig2_net, fig2_m0):
    with pytest.raises(BoundExceededError):
        decide_oim(fig2_net, fig2_m0, fig2_m0, 2)


def test_resource_limit_yields_unknown(fig2_net, fig2_m0):
    v = decide_oim(fig2_net, fig2_m0, fig2_m0, 8, Limits(max_triples=3))
    assert v.outcome == "unknown"
    assert v.witness is None and v.refutation is None


def test_witness_serialization_deterministic(fig1_net):
    m1, m2 = Multiset.of("s1"), Multiset.of("s3")
    a = format_witness(decide_oim(fig1_net, m1, m2, 4).witness)
    b = format_witness(decide_oim(fig1_net, m1, m2, 4).witness)
    assert a == b
    assert a.startswith("triples ")
    assert "beta" in a


def test_refutation_serialization(fig1_net):
    v = decide_oimc(fig1_net, Multiset.of("s1"), Multiset.of("s3"), 4)
    text = format_refutation(v.refutation)
    assert text.startswith("refuted:")


def test_tampered_witness_rejected(fig1_net):
    m1, m2 = Multiset.of("s1"), Multiset.of("s3")
    v = decide_oim(fig1_net, m1, m2, 4)
    root = initial_triple(m1, m2)
    smaller = frozenset(t for t in v.witness if t != root)
    assert not validate_witness(fig1_net, smaller, root, "fc")
    # dropping a non-root triple breaks closure too
    for t in v.witness:
        if t != root:
            assert not validate_witness(
                fig1_net, v.witness - {t}, root, "fc"
            )


def test_tampered_certificates_rejected():
    """Witness triples and refutation nodes that differ from what the game
    produces, also only by a pair that mentions a foreign token, fail
    validation."""
    net, m0 = buffer(2)
    root = initial_triple(m0, m0)
    witness = decide_oim(net, m0, m0, 2).witness
    assert validate_witness(net, witness, root, "fc")
    foreign = ("nowhere", 1)
    some = next(t for t in witness if t != root)
    token = next(iter(some.left.tokens))
    for bad in (
        replace(some, beta=some.beta | {(token, foreign)}),
        replace(some, beta=some.beta - {next(iter(some.beta))}),
        replace(some, left=replace(some.left,
                                   order=some.left.order | {(token, foreign)})),
    ):
        assert not validate_witness(net, witness - {some} | {bad}, root, "fc")

    net, m_left, m_right = alarm_pair(2, 1)
    ref = decide_oim(net, m_left, m_right, 2).refutation
    assert validate_refutation(net, ref, "fc")
    node = next(n for n in ref.nodes() if n.responses)
    attacker = node.attacker
    (resp, sub), *rest = node.responses
    for bad in (
        replace(node, attacker=replace(attacker, removed=frozenset({foreign}))),
        replace(node, responses=tuple(rest)),
        replace(node, responses=((resp, replace(sub, triple=root)), *rest)),
        replace(node, triple=replace(node.triple,
                                     beta=node.triple.beta | {(token, foreign)})),
    ):
        assert not validate_refutation(net, bad, "fc")


def test_bad_token_index_is_rejected_and_numbers_nothing():
    """A certificate token whose index is not an int >= 1, on a place that
    holds other tokens, fails validation, and oim_successors raises
    NetError for a marking holding one.  Nothing of it stays in the net's
    graph, so a later decision on the same net is unchanged."""
    doc = parse_net((NETS / "fig2.pn").read_text())
    net, m0 = doc.net, doc.marking("m0")
    before = decide_oim(net, m0, m0, 8)
    root = initial_triple(m0, m0)
    tokens = root.left.tokens | {("s2", "x")}
    odd = OrderedIndexedMarking(tokens, frozenset(
        (a, b) for a in tokens for b in tokens))
    with pytest.raises(NetError):
        oim_successors(net, odd)
    extra = GameTriple(odd, odd, frozenset())
    assert not validate_witness(net, before.witness | {extra}, root, "fc")
    after = decide_oim(net, m0, m0, 8)
    assert after.stats["triples"] == before.stats["triples"]
    assert digest(after) == digest(before)

    doc = parse_net((NETS / "fig1.pn").read_text())
    net, m1, m2 = doc.net, doc.marking("m_s1"), doc.marking("m_s3")
    before = decide_oimc(net, m1, m2, 4)
    triple = before.refutation.triple
    tokens = triple.left.tokens | {("s1", "x")}
    odd = OrderedIndexedMarking(tokens, frozenset(
        (a, b) for a in tokens for b in tokens))
    bad = replace(before.refutation, triple=replace(triple, left=odd))
    assert not validate_refutation(net, bad, "cn")
    after = decide_oimc(net, m1, m2, 4)
    assert after.stats["triples"] == before.stats["triples"]
    assert digest(after) == digest(before)


@pytest.mark.parametrize("bad", [("s1",), ("s1", 1, 2), (5, 1), "xy"],
                         ids=["short", "long", "int-place", "str"])
def test_malformed_certificate_token_is_rejected(bad):
    """A certificate token that is not a (str place, int index) pair, added
    to a marking of a fig2 witness, makes the validators return False and
    oim_successors raise NetError, however it would sort against the
    other tokens.  A later decision on the same net is unchanged."""
    doc = parse_net((NETS / "fig2.pn").read_text())
    net, m0 = doc.net, doc.marking("m0")
    before = decide_oim(net, m0, m0, 8)
    root = initial_triple(m0, m0)
    tokens = root.left.tokens | {bad}
    odd = OrderedIndexedMarking(tokens, frozenset(
        (a, b) for a in tokens for b in tokens))
    with pytest.raises(NetError):
        oim_successors(net, odd)
    extra = GameTriple(odd, root.right, frozenset())
    assert not validate_witness(net, before.witness | {extra}, root, "fc")
    node = Refutation(extra, "move", "left",
                      OIMStep("u", frozenset(), root.left))
    assert not validate_refutation(net, node, "fc")
    after = decide_oim(net, m0, m0, 8)
    assert after.stats["triples"] == before.stats["triples"]
    assert digest(after) == digest(before)


# Containers that are not frozensets, made from the frozenset they replace.
NOT_FROZENSETS = {"set": set, "list": sorted, "none": lambda x: None}


def retyped(t, where, bad):
    """t with its left token set, its left order or its beta replaced by
    NOT_FROZENSETS[bad] of it."""
    make = NOT_FROZENSETS[bad]
    if where == "beta":
        return replace(t, beta=make(t.beta))
    return replace(t, left=replace(t.left, **{where: make(getattr(t.left, where))}))


@pytest.mark.parametrize("where", ["tokens", "order", "beta"])
@pytest.mark.parametrize("bad", sorted(NOT_FROZENSETS))
def test_relation_that_is_not_a_frozenset_is_rejected(bad, where, fig1_net):
    """A certificate triple whose token set, order or beta is a set, a
    list or None makes the validators return False, not raise, and is not
    read as if it held its elements: as a witness root, as a triple of a
    witness given as a list, as a refutation's move node and as a
    size-gate node, alone or below a move."""
    m1, m2 = Multiset.of("s1"), Multiset.of("s3")
    root = initial_triple(m1, m2)
    witness = decide_oim(fig1_net, m1, m2, 4).witness
    assert validate_witness(fig1_net, witness, root, "fc")
    odd = retyped(root, where, bad)
    assert not validate_witness(fig1_net, witness, odd, "fc")
    assert not validate_witness(fig1_net, [*witness - {root}, odd], root, "fc")

    ref = decide_oimc(fig1_net, m1, m2, 4).refutation
    assert validate_refutation(fig1_net, ref, "cn")
    assert not validate_refutation(
        fig1_net, replace(ref, triple=retyped(ref.triple, where, bad)), "cn")
    (resp, sub), = ref.responses
    gated = replace(sub, triple=retyped(sub.triple, where, bad))
    assert not validate_refutation(fig1_net, gated, "cn")
    assert not validate_refutation(
        fig1_net, replace(ref, responses=((resp, gated),)), "cn")


def test_validators_reject_foreign_roots_and_wrong_successors(fig1_net):
    """A witness root that names a token on an undeclared place, and a
    refutation whose sub-node replays but names a foreign token or is
    neither a renaming nor an exchange of the response's successor, fail
    validation.  A sub-node that holds the successor with its sides
    exchanged passes: exchanging the sides, with beta transposed, keeps
    whether a triple wins."""
    m1, m2 = Multiset.of("s1"), Multiset.of("s3")
    root = initial_triple(m1, m2)
    witness = decide_oim(fig1_net, m1, m2, 4).witness
    assert validate_witness(fig1_net, witness, root, "fc")
    ghost = replace(root, beta=root.beta | {(("s1", 1), ("ghost", 1))})
    assert not validate_witness(fig1_net, witness, ghost, "fc")

    ref = decide_oimc(fig1_net, m1, m2, 4).refutation
    assert validate_refutation(fig1_net, ref, "cn")
    (resp, sub), = ref.responses
    assert sub.reason == "size-gate"
    # t1 and t4 lead to s2 against nothing; the empty side's places come
    # first, so the node holds the successor exchanged
    t = sub.triple
    s2, s3 = ("s2", 1), ("s3", 1)
    assert t.left.tokens == frozenset() and t.right.tokens == {s2}
    lone = OrderedIndexedMarking(frozenset({s3}), frozenset({(s3, s3)}))
    for bad, accepted in (
        (replace(t, beta=frozenset({(("ghost", 1), s2)})), False),
        (GameTriple(t.left, lone, frozenset()), False),
        (GameTriple(t.right, t.left, frozenset()), True),
    ):
        gated = Refutation(bad, "size-gate")
        assert validate_refutation(fig1_net, gated, "cn")
        swapped = replace(ref, responses=((resp, gated),))
        assert validate_refutation(fig1_net, swapped, "cn") == accepted


# Elements of a relation that are not a pair of tokens, built from two
# tokens a and b of its markings.
NOT_PAIRS = {
    "int": lambda a, b: 5,
    "short": lambda a, b: (a,),
    "long": lambda a, b: (a, b, a),
    "set": lambda a, b: frozenset({a, b}),
}


@pytest.mark.parametrize("where", ["order", "beta"])
@pytest.mark.parametrize("bad", sorted(NOT_PAIRS))
def test_malformed_relation_pair_is_rejected(bad, where):
    """An element of a certificate's order or beta that is not a 2-tuple
    makes the validators return False and oim_successors raise NetError.
    The set {a, b} is read as neither pair: both pairs are in the root's
    relations already, so either reading would leave the fig2 witness
    valid.  A later decision on the same net is unchanged."""
    doc = parse_net((NETS / "fig2.pn").read_text())
    net, m0 = doc.net, doc.marking("m0")
    before = decide_oim(net, m0, m0, 8)
    root = initial_triple(m0, m0)
    assert root in before.witness
    extra = NOT_PAIRS[bad](*sorted(root.left.tokens)[:2])
    if where == "order":
        odd = replace(root.left, order=root.left.order | {extra})
        with pytest.raises(NetError):
            oim_successors(net, odd)
        tampered = replace(root, left=odd)
    else:
        tampered = replace(root, beta=root.beta | {extra})
    witness = before.witness - {root} | {tampered}
    assert not validate_witness(net, witness, tampered, "fc")
    node = Refutation(tampered, "move", "left",
                      OIMStep("u", frozenset(), root.left))
    assert not validate_refutation(net, node, "fc")
    after = decide_oim(net, m0, m0, 8)
    assert after.stats["triples"] == before.stats["triples"]
    assert digest(after) == digest(before)


def test_validators_reject_unknown_flavors_reasons_and_sides(
        fig1_net, parallel_choice_net):
    """Only "fc" and "cn" name a game: another flavor raises NetError
    instead of replaying as fc.  A refutation node whose reason is not
    "size-gate" or "move", or whose side is not "left" or "right", fails
    validation."""
    m1, m2 = Multiset.of("s1"), Multiset.of("s3")
    root = initial_triple(m1, m2)
    witness = decide_oim(fig1_net, m1, m2, 4).witness
    ref = decide_oimc(fig1_net, m1, m2, 4).refutation
    for flavor in ("il", "FC", None):
        with pytest.raises(NetError, match="unknown flavor"):
            validate_witness(fig1_net, witness, root, flavor)
        with pytest.raises(NetError, match="unknown flavor"):
            validate_refutation(fig1_net, ref, flavor)

    net = parallel_choice_net
    ref = decide_oim(net, Multiset.of("p1", "p2"), Multiset.of("q0"),
                     2).refutation
    assert validate_refutation(net, ref, "fc")
    assert not validate_refutation(net, replace(ref, reason="whatever"), "fc")
    # Only the right side can move, so the root's attacker is the right.
    ref = decide_oim(net, Multiset.of("p1x"), Multiset.of("p2"),
                     2).refutation
    assert ref.side == "right"
    assert validate_refutation(net, ref, "fc")
    for side in ("up", "Right", None):
        assert not validate_refutation(net, replace(ref, side=side), "fc")


def test_interleaving_terminates_with_many_blocks():
    """buf(10) has 11 reachable markings, each its own block."""
    net, m0 = buffer(10)
    v = decide_interleaving(net, m0, m0, 10)
    assert v.outcome == "equivalent" and v.stats["states"] == 11
    one_full = Multiset({"pr": 1, "free": 9, "full": 1})
    assert decide_interleaving(net, m0, one_full, 10).outcome == "not-equivalent"
    net, m_left, m_right = alarm_pair(5, 4)
    assert decide_interleaving(
        net, m_left, m_right, 5
    ).outcome == "not-equivalent"


def test_principal_moves_matches_recursive_definition(
        fig1_net, parallel_choice_net):
    refutations = []
    for k, g in ((2, 1), (2, 2)):
        net, m_left, m_right = alarm_pair(k, g)
        for decide in (decide_oim, decide_oimc):
            refutations.append(decide(net, m_left, m_right, k).refutation)
    refutations.append(decide_oimc(
        fig1_net, Multiset.of("s1"), Multiset.of("s3"), 4).refutation)
    refutations.append(decide_oim(
        parallel_choice_net, Multiset.of("p1", "p2"), Multiset.of("q0"), 4
    ).refutation)
    for ref in refutations:
        assert ref.principal_moves() == recursive_principal_moves(ref)


def test_principal_moves_ties_and_shared_nodes():
    """Of equally deep lines the first response's is taken, also when a
    node is shared by several parents."""
    def move(tid):
        return OIMStep(tid, frozenset(), None)

    leaf = Refutation(None, "move", "left", move("leaf"))
    shared = Refutation(None, "move", "right", move("shared"), ((None, leaf),))
    tie = Refutation(None, "move", "left", move("tie"), ((None, leaf),))
    gate = Refutation(None, "size-gate")
    root = Refutation(None, "move", "left", move("root"), (
        (None, gate), (None, tie), (None, shared),
        (None, Refutation(None, "move", "left", move("x"), ((None, shared),))),
    ))
    assert root.principal_moves() == recursive_principal_moves(root)
    assert [tid for _, tid, _ in root.principal_moves()] == [
        "root", "x", "shared", "leaf"]
    tied = Refutation(None, "move", "left", move("root"),
                      ((None, tie), (None, shared)))
    assert tied.principal_moves() == recursive_principal_moves(tied)
    assert [tid for _, tid, _ in tied.principal_moves()] == [
        "root", "tie", "leaf"]


@pytest.mark.usefixtures("unreduced")
def test_principal_moves_on_deep_refutations():
    """Deep lines that the recursive definition cannot format in time."""
    for k, g in ((3, 1), (3, 3)):
        net, m_left, m_right = alarm_pair(k, g)
        ref = decide_oim(net, m_left, m_right, k).refutation
        moves = ref.principal_moves()
        assert len(moves) == line_length(ref) > 20
        assert len(format_refutation(ref).splitlines()) == 1 + len(moves)


def test_deep_search_needs_no_recursion_limit(monkeypatch):
    """The search keeps its own stack: a 3,000-triple-deep game decides
    without touching the interpreter's recursion limit.  On ring(6000)
    the triple of r_i and r_{i+3000} is the exchange of that of r_{i+3000}
    and r_i, so the game has 3,000 canonical triples, in one line."""
    def refuse(limit):
        raise AssertionError(f"recursion limit raised to {limit}")

    monkeypatch.setattr(sys, "setrecursionlimit", refuse)
    net, m1, m2 = ring(6000)
    for flavor, decide in (("fc", decide_oim), ("cn", decide_oimc)):
        v = decide(net, m1, m2, 1)
        assert v.outcome == "equivalent"
        assert v.stats["triples"] == 3000
        assert validate_witness(net, v.witness, initial_triple(m1, m2), flavor)
    # masks are sized by the marking, not by the ring
    assert all(row.bit_length() <= len(tokens)
               for tokens, rows in net.oim_graph.oims for row in rows)


def loops(n):
    """Places p and q, each with an `a`-loop that takes and gives back n
    tokens, so that every firing leads back to the initial triple."""
    net = PTNet.make(["p", "q"], [
        Transition(f"t{p}", "a", Multiset({p: n}), Multiset({p: n}))
        for p in "pq"])
    return net, Multiset({"p": n}), Multiset({"q": n})


def test_reversed_root_explores_the_same_triples():
    """On ring(2000) the root of (r1000, r0) has the exchange of the root of
    (r0, r1000) as its canonical triple: the search assumes it like the
    root, so both orders play 1,000 triples, and each witness, which holds
    its own root, validates.  So does a root that is not plain: that of
    (2q, 2p) on `loops(2)`, whose one move leads back to it, and those of
    (mR, mL) on the alarm pairs of k slots whose alarm needs k + 1 full
    ones and never fires (2^(k+1) - 1 triples, the root never met again)."""
    cases = [(*ring(2000), 1, 1000), (*loops(2), 2, 1)] + [
        (*alarm_pair(k, k + 1), k, 2 ** (k + 1) - 1) for k in (2, 3, 4)]
    for net, m1, m2, cap, triples in cases:
        for flavor, decide in (("fc", decide_oim), ("cn", decide_oimc)):
            for a, b in ((m1, m2), (m2, m1)):
                v = decide(net, a, b, cap)
                assert v.outcome == "equivalent"
                assert v.stats["triples"] == len(v.witness) == triples
                assert initial_triple(a, b) in v.witness
                assert validate_witness(net, v.witness, initial_triple(a, b),
                                        flavor)


def test_search_leaves_few_tracked_objects():
    """The game keeps its moves in containers the cyclic collector stops
    walking once they survive a collection: after `_Search.run` on
    ring(2000) fc and one collection, at most 6.5 objects per interned
    marking stay tracked.  A move memo that is a dict subclass, or moves
    and label buckets held in lists, leave 8.  The search plays 1,000
    canonical triples, each with its exchange, over all 2,000 markings."""
    net, m1, m2 = ring(2000)
    search = _Search(net, "fc", Limits(), {})
    root = search.root(m1, m2)
    gc.collect()
    before = len(gc.get_objects())
    won, winning = search.run(root)
    gc.collect()
    tracked = len(gc.get_objects()) - before
    assert won and len(winning) == search.explored == 1000
    assert len(net.oim_graph.oims) == 2000
    assert tracked / len(net.oim_graph.oims) <= 6.5


def test_cyclic_refutation_rejected():
    """Two buffer(1) triples that each refer to the other: every node
    replays locally, but the cycle proves nothing, so the validator rejects
    it and formatting raises instead of looping."""
    net, m0 = buffer(1)

    def only_move(triple):
        (attack,) = oim_successors(net, triple.left)
        (resp,) = oim_successors(net, triple.right)
        assert deleted_condition_fc(attack.removed, resp.removed,
                                    triple.left.order, triple.right.order,
                                    triple.beta)
        left = triple.left.tokens - attack.removed
        right = triple.right.tokens - resp.removed
        beta = beta_update(left, attack.target.tokens - left,
                           right, resp.target.tokens - right, triple.beta)
        return attack, resp, GameTriple(attack.target, resp.target, beta)

    _, _, full = only_move(initial_triple(m0, m0))
    get, get_resp, empty = only_move(full)
    put, put_resp, back = only_move(empty)
    assert back == full
    node_full = Refutation(full, "move", "left", get)
    node_empty = Refutation(empty, "move", "left", put, ((put_resp, node_full),))
    node_full.responses = ((get_resp, node_empty),)
    assert not validate_refutation(net, node_full, "fc")
    with pytest.raises(ValueError):
        format_refutation(node_full)


# Triples explored on these pairs by a search that restarts from the root
# after every refutation.
RESTARTING_TRIPLES = {(2, 1): 38, (3, 1): 913, (4, 3): 17_690}


@pytest.mark.parametrize("k,g", sorted(RESTARTING_TRIPLES))
def test_refutations_share_nodes(k, g):
    """One node per refuted triple, listed children first, and no more
    triples explored than with restarts."""
    net, m_left, m_right = alarm_pair(k, g)
    for flavor, decide in (("fc", decide_oim), ("cn", decide_oimc)):
        v = decide(net, m_left, m_right, k)
        assert v.outcome == "not-equivalent"
        assert v.stats["triples"] <= RESTARTING_TRIPLES[k, g]
        assert validate_refutation(net, v.refutation, flavor)
        nodes = v.refutation.nodes()
        assert len(nodes) == len({node.triple for node in nodes})
        assert nodes[-1] is v.refutation
        position = {id(node): i for i, node in enumerate(nodes)}
        for node in nodes:
            for _, sub in node.responses:
                assert position[id(sub)] < position[id(node)]


def certificate(verdict):
    if verdict.witness is not None:
        return format_witness(verdict.witness)
    return format_refutation(verdict.refutation)


def digest(verdict):
    return hashlib.sha256(certificate(verdict).encode()).hexdigest()


# (instance, flavor) -> (triples explored, sha256 of the certificate text),
# as produced by the frozenset game before it moved onto int masks.  The
# unreduced game (the `unreduced` fixture) still produces them.
CERTIFICATES = {
    ("buf2", "fc"): (20, "83b5e49dc2b098bc41c90c2d5ccc666bf8090a4605c5f370887861a374186a46"),
    ("buf2", "cn"): (20, "83b5e49dc2b098bc41c90c2d5ccc666bf8090a4605c5f370887861a374186a46"),
    ("buf3", "fc"): (211, "3cc180a2f320fe0b99300e7ebf0b8e2147036fdc2ee4546ceb792eb446638953"),
    ("buf3", "cn"): (211, "3cc180a2f320fe0b99300e7ebf0b8e2147036fdc2ee4546ceb792eb446638953"),
    ("buf4", "fc"): (3142, "ecf770bc9a23412fcee7bcbe1ef2b744fcce17560b6c66459d0feccf4ef1d2f0"),
    ("buf4", "cn"): (3142, "ecf770bc9a23412fcee7bcbe1ef2b744fcce17560b6c66459d0feccf4ef1d2f0"),
    ("par2", "fc"): (15, "a8814f3887335edf084bf2443102fb90ef7a4da897bfa7792291eeaa95fda9d9"),
    ("par2", "cn"): (15, "a8814f3887335edf084bf2443102fb90ef7a4da897bfa7792291eeaa95fda9d9"),
    ("par3", "fc"): (103, "de53e006a92869a645a25217a50d5709699808c441e904d9ffe646ff06ad3a28"),
    ("par3", "cn"): (103, "de53e006a92869a645a25217a50d5709699808c441e904d9ffe646ff06ad3a28"),
    ("par4", "fc"): (903, "706788aa043f142e522d49439a09f1ef0fadba9a7934d469430e2bb01ffe1910"),
    ("par4", "cn"): (903, "706788aa043f142e522d49439a09f1ef0fadba9a7934d469430e2bb01ffe1910"),
    ("pair2_1", "fc"): (9, "4d91aa2bf9fe6655219c3cdba2cbcf03fd0940545d5c73cc565d1a5d7487eb63"),
    ("pair2_1", "cn"): (9, "4d91aa2bf9fe6655219c3cdba2cbcf03fd0940545d5c73cc565d1a5d7487eb63"),
    ("pair2_2", "fc"): (11, "9f558242158ded42e6e168cdfb82fc3b8930ce3493f6f265e977ddab8b93f9c4"),
    ("pair2_2", "cn"): (11, "9f558242158ded42e6e168cdfb82fc3b8930ce3493f6f265e977ddab8b93f9c4"),
    ("pair3_1", "fc"): (46, "d0fe355bdd6a9e843dbb2cceb5394aa974e53de886c7d192f75a1b8fee72c2e2"),
    ("pair3_1", "cn"): (46, "d0fe355bdd6a9e843dbb2cceb5394aa974e53de886c7d192f75a1b8fee72c2e2"),
    ("pair3_2", "fc"): (46, "f64dfb69f1ad0f98e5883942f40bc81ddd0a011003e6771a48d93d6af4809e77"),
    ("pair3_2", "cn"): (46, "f64dfb69f1ad0f98e5883942f40bc81ddd0a011003e6771a48d93d6af4809e77"),
    ("pair3_3", "fc"): (54, "ef117eee30e21796c222b6828f457eeee3f9f472d6ef28c7c57560e27f78402d"),
    ("pair3_3", "cn"): (54, "ef117eee30e21796c222b6828f457eeee3f9f472d6ef28c7c57560e27f78402d"),
    ("pair4_3", "fc"): (209, "b22765e9d3d6d9f71f7fcace947bd7211edfec590e93f86312933b1e40cd9d39"),
    ("pair4_3", "cn"): (209, "b22765e9d3d6d9f71f7fcace947bd7211edfec590e93f86312933b1e40cd9d39"),
    ("fig1", "fc"): (2, "f8f039b5172f41b918a413ae3c4b8d95f91533a31486ccc54e9c677decdc1ffe"),
    ("fig1", "cn"): (2, "4898d678972634bab489d1e43bd78797d3b03ddf5439c1cd727cd38be32824b7"),
    ("parallel_choice", "fc"): (2, "3c8f6a9ae0f8183b0673429586bef374927215c98e26f70837b87f9d5f0ba4a0"),
    ("parallel_choice", "cn"): (1, "f1ee60553ad7da7adb521e8c852126f579799d67f85c9298b5a412e3581941e2"),
}
CORPUS_DIGEST = "047d1944f52a81eb24b835edd59d1dc9f1053829f47beb88898e5b4fceb2e9a6"


def certificate_instance(name, fig1_net, parallel_choice_net):
    """(net, m1, m2, cap) of a CERTIFICATES instance."""
    if name == "fig1":
        return fig1_net, Multiset.of("s1"), Multiset.of("s3"), 4
    if name == "parallel_choice":
        return (parallel_choice_net, Multiset.of("p1", "p2"),
                Multiset.of("q0"), 4)
    if name.startswith("pair"):
        k, g = map(int, name[4:].split("_"))
        return (*alarm_pair(k, g), k)
    k = int(name[3:])
    if name.startswith("buf"):
        net, m0 = buffer(k)
        return net, m0, m0, k
    net, m0 = par(k)
    return net, m0, m0, 1


def validated(net, m1, m2, flavor, verdict) -> bool:
    """Whether the verdict's certificate for (m1, m2) validates on net."""
    if verdict.witness is not None:
        return validate_witness(net, verdict.witness, initial_triple(m1, m2),
                                flavor)
    return validate_refutation(net, verdict.refutation, flavor)


def validated_anew(net, m1, m2, flavor, verdict) -> bool:
    """Whether the verdict's certificate validates on a new copy of net,
    whose graph decoded none of its markings, so that each is checked
    and encoded as a certificate from elsewhere is."""
    return validated(PTNet.make(net.places, net.transitions, net.labels),
                     m1, m2, flavor, verdict)


def pinned_certificate(name, flavor, fig1_net, parallel_choice_net):
    """(triples explored, sha256 of the certificate text) on a
    CERTIFICATES instance, whose certificate validates anew."""
    net, m1, m2, cap = certificate_instance(name, fig1_net,
                                            parallel_choice_net)
    decide = decide_oim if flavor == "fc" else decide_oimc
    v = decide(net, m1, m2, cap)
    assert validated_anew(net, m1, m2, flavor, v)
    return v.stats["triples"], digest(v)


def corpus_digest():
    """One digest over the verdicts, triple counts and certificate texts of
    the 200 seed-42 corpus instances under fc and cn, each certificate
    validated anew."""
    h = hashlib.sha256()
    for net, m1, m2 in corpus(42, 200, CorpusConfig()):
        for flavor, decide in (("fc", decide_oim), ("cn", decide_oimc)):
            v = decide(net, m1, m2, 2)
            assert validated_anew(net, m1, m2, flavor, v)
            h.update(f"{v.outcome} {v.stats['triples']}\n{certificate(v)}".encode())
    return h.hexdigest()


@pytest.mark.usefixtures("unreduced")
@pytest.mark.parametrize("name,flavor", sorted(CERTIFICATES))
def test_certificate_texts_pinned(name, flavor, fig1_net, parallel_choice_net):
    """Triple counts and certificate texts of the unreduced game do not
    change with the game's internal representation."""
    assert pinned_certificate(name, flavor, fig1_net,
                              parallel_choice_net) == CERTIFICATES[name, flavor]


@pytest.mark.usefixtures("unreduced")
def test_corpus_certificates_pinned():
    assert corpus_digest() == CORPUS_DIGEST


# The same for the game reduced by symmetry: canonical triples, up to
# renaming and exchange of the two sides, so no more triples than unreduced.
REDUCED_CERTIFICATES = {
    ("buf2", "cn"): (7, "d45f48ea6c9e9c87a3a08a444dd966e16df763fa2d9618f160f00a8ab3bcd157"),
    ("buf2", "fc"): (7, "d45f48ea6c9e9c87a3a08a444dd966e16df763fa2d9618f160f00a8ab3bcd157"),
    ("buf3", "cn"): (15, "1c9fffe285834f83e98a3ca1dc5eefdf39569261bd8096fe57f1094d6399e602"),
    ("buf3", "fc"): (15, "1c9fffe285834f83e98a3ca1dc5eefdf39569261bd8096fe57f1094d6399e602"),
    ("buf4", "cn"): (31, "b26e5aa619cafab46fe57d8e301983a68246f0035dc01d030731badc5c46ce68"),
    ("buf4", "fc"): (31, "b26e5aa619cafab46fe57d8e301983a68246f0035dc01d030731badc5c46ce68"),
    ("fig1", "cn"): (2, "4898d678972634bab489d1e43bd78797d3b03ddf5439c1cd727cd38be32824b7"),
    ("fig1", "fc"): (2, "3cb201653d130198fab4715cde09c37c9efdad7f5d99a7fbac5a981be8d39cef"),
    ("pair2_1", "cn"): (6, "e037fda2555b3c608add9f66b0c1004ff0e5566d7d962e0ff28a1fa500d4cb4e"),
    ("pair2_1", "fc"): (6, "e037fda2555b3c608add9f66b0c1004ff0e5566d7d962e0ff28a1fa500d4cb4e"),
    ("pair2_2", "cn"): (6, "ef240d1c7b154d4bd2ccca97de292ce6f373c4c73b6e1352e36832cd9f7f141b"),
    ("pair2_2", "fc"): (6, "ef240d1c7b154d4bd2ccca97de292ce6f373c4c73b6e1352e36832cd9f7f141b"),
    ("pair3_1", "cn"): (11, "f7c17f626eae68533e6d46daaa1db1a43948a7b7130f2aadc4e1de0f0ced95b9"),
    ("pair3_1", "fc"): (11, "f7c17f626eae68533e6d46daaa1db1a43948a7b7130f2aadc4e1de0f0ced95b9"),
    ("pair3_2", "cn"): (11, "e7663d2e51988bf15efc96ade3f4e9df744a6a886eac61fdd23abb629ae24ff2"),
    ("pair3_2", "fc"): (11, "e7663d2e51988bf15efc96ade3f4e9df744a6a886eac61fdd23abb629ae24ff2"),
    ("pair3_3", "cn"): (11, "6a904fd0a1a7ad0ff279f8294c13b1317a9c423f82a8c3d8babc0e0cebc23023"),
    ("pair3_3", "fc"): (11, "6a904fd0a1a7ad0ff279f8294c13b1317a9c423f82a8c3d8babc0e0cebc23023"),
    ("pair4_3", "cn"): (20, "bdc553ddbaed332d505cd07db5172af26ba8e96378b34f0a0dc450bc228fbaca"),
    ("pair4_3", "fc"): (20, "bdc553ddbaed332d505cd07db5172af26ba8e96378b34f0a0dc450bc228fbaca"),
    ("par2", "cn"): (12, "63febf9304c942b16d7fd01a82738f1a4ac1d9fac06b97fd7e69a985da8dc69e"),
    ("par2", "fc"): (12, "63febf9304c942b16d7fd01a82738f1a4ac1d9fac06b97fd7e69a985da8dc69e"),
    ("par3", "cn"): (67, "cd77de3655d2df10c2cf6941f7c0d36b45f7609989816278dce7c1512a876bab"),
    ("par3", "fc"): (67, "cd77de3655d2df10c2cf6941f7c0d36b45f7609989816278dce7c1512a876bab"),
    ("par4", "cn"): (510, "832a2d3c872b3eae026e0617031440a810ac6f522e1c92e2d416326a50836228"),
    ("par4", "fc"): (510, "832a2d3c872b3eae026e0617031440a810ac6f522e1c92e2d416326a50836228"),
    ("parallel_choice", "cn"): (1, "f1ee60553ad7da7adb521e8c852126f579799d67f85c9298b5a412e3581941e2"),
    ("parallel_choice", "fc"): (2, "3c8f6a9ae0f8183b0673429586bef374927215c98e26f70837b87f9d5f0ba4a0"),
}
REDUCED_CORPUS_DIGEST = "2f800438cc40297787a523471f94f975d71017c223741e5bfcfce9e3287eb98f"


@pytest.mark.parametrize("name,flavor", sorted(REDUCED_CERTIFICATES))
def test_reduced_certificate_texts_pinned(name, flavor, fig1_net,
                                          parallel_choice_net):
    triples, text = pinned_certificate(name, flavor, fig1_net,
                                       parallel_choice_net)
    assert (triples, text) == REDUCED_CERTIFICATES[name, flavor]
    assert triples <= CERTIFICATES[name, flavor][0]


def test_reduced_corpus_certificates_pinned():
    assert corpus_digest() == REDUCED_CORPUS_DIGEST


@pytest.mark.parametrize("malformed", [
    lambda ref: replace(ref, responses=(5,)),
    lambda ref: replace(ref, responses=None),
    lambda ref: replace(ref, responses=((ref.responses[0][0], "x"),)),
    lambda ref: None,
], ids=["int-response", "no-responses", "str-node", "no-refutation"])
def test_malformed_refutation_is_rejected_not_raised(malformed, fig1_net):
    """A refutation node whose responses are not (step, node) pairs, and a
    refutation that is None, make `validate_refutation` return False."""
    ref = decide_oimc(fig1_net, Multiset.of("s1"), Multiset.of("s3"),
                      4).refutation
    assert validate_refutation(fig1_net, ref, "cn")
    assert not validate_refutation(fig1_net, malformed(ref), "cn")


@pytest.mark.parametrize("witness", [None, 5])
def test_witness_that_is_not_iterable_is_rejected_not_raised(witness,
                                                            fig1_net):
    root = initial_triple(Multiset.of("s1"), Multiset.of("s3"))
    assert not validate_witness(fig1_net, witness, root, "fc")
