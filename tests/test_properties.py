import random
from itertools import combinations, permutations, product
from math import comb

from hypothesis import example, given, settings, strategies as st

from netbisim import (
    Multiset, NetSystem, OIMStep, OrderedIndexedMarking, PTNet,
    Transition, alpha,
    beta_update, boxminus, boxplus, decide_interleaving, decide_oim,
    decide_oimc, deleted_condition_cn, enabled, fire, initial_indexed,
    init_oim, im_successors, oim_successors, reachable,
)
from netbisim.ordered import OIMGraph, oim_check
from netbisim.randnets import CorpusConfig, random_instance

from processes import ps_init, ps_successors
from proc_checks import (
    check_coherence, check_minimality, check_one_step_correspondence,
    check_preset_not_eq_pi,
)

PLACES = ["p", "q", "r"]

multisets = st.dictionaries(
    st.sampled_from(PLACES), st.integers(min_value=0, max_value=4), max_size=3
).map(Multiset)

# At most 2 tokens per place, so that with a `multisets` marking beside it
# boxminus has at most C(6, 2)^3 = 3,375 victim choices.
small_multisets = st.dictionaries(
    st.sampled_from(PLACES), st.integers(min_value=0, max_value=2), max_size=3
).map(Multiset)

seeds = st.integers(min_value=0, max_value=10_000)


def instance(seed: int):
    return random_instance(random.Random(seed), CorpusConfig())


@given(multisets, multisets, multisets)
def test_multiset_sum_laws(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a + Multiset() == a


@given(multisets, multisets)
def test_multiset_diff_laws(a, b):
    assert (a + b) - b == a
    assert a <= (a - b) + b
    assert a - b <= a


@given(multisets, multisets)
def test_subset_antisymmetry(a, b):
    if a <= b and b <= a:
        assert a == b


@settings(max_examples=60)
@given(seeds)
def test_fire_size_law(seed):
    net, m1, _ = instance(seed)
    for tid in enabled(net, m1):
        t = net.transition(tid)
        assert fire(net, m1, tid).size == m1.size - t.pre.size + t.post.size


@settings(max_examples=60)
@given(seeds)
def test_im_successors_lift_token_game(seed):
    """Soundness and completeness of the individual game w.r.t. the
    collective one, with the exact victim-choice count."""
    net, m1, _ = instance(seed)
    k = initial_indexed(m1)
    steps = im_successors(net, k)
    by_tid: dict[str, list] = {}
    for s in steps:
        by_tid.setdefault(s.tid, []).append(s)
    assert set(by_tid) == set(enabled(net, alpha(k)))
    for tid, group in by_tid.items():
        t = net.transition(tid)
        expected = 1
        for place, n in t.pre.items():
            expected *= comb(sum(p == place for p, _ in k), n)
        assert len(group) == expected
        for s in group:
            assert alpha(s.target) == (alpha(k) - t.pre) + t.post


@settings(max_examples=50, deadline=None)
@given(small_multisets, multisets)
def test_boxplus_boxminus_are_alpha_inverses(m, extra):
    k = initial_indexed(m + extra)
    assert alpha(boxplus(k, m)) == (m + extra) + m
    for k2 in boxminus(k, m):
        assert alpha(k2) == extra
        # adding m back restores the projection
        assert alpha(boxplus(k2, m)) == m + extra


@given(multisets)
def test_boxplus_deterministic_and_closed(m):
    k = initial_indexed(m)
    assert boxplus(k, m) == boxplus(k, m)
    from netbisim import is_closed
    assert is_closed(boxplus(k, m))


@settings(max_examples=40)
@given(seeds)
def test_oim_step_invariants(seed):
    net, m1, _ = instance(seed)
    o = init_oim(initial_indexed(m1))
    for _ in range(3):
        steps = oim_successors(net, o)
        for s in steps:
            oim_check(s.target)
            untouched = o.tokens - s.removed
            generated = s.target.tokens - untouched
            for a in generated:
                for b in generated:
                    assert (a, b) in s.target.order
            for a in untouched:
                for b in untouched:
                    assert ((a, b) in s.target.order) == ((a, b) in o.order)
                for b in generated:
                    if (a, b) in s.target.order:
                        assert any((a, d) in o.order for d in s.removed)
        if not steps:
            break
        o = steps[0].target


@settings(max_examples=40)
@given(seeds, st.integers(min_value=0, max_value=3))
def test_index_ceiling(seed, _):
    """No reachable indexed marking uses an index above the verified bound."""
    net, m1, _ = instance(seed)
    bound = reachable(NetSystem(net, m1), 2).least_bound
    from netbisim import reachable_im
    for k in reachable_im(net, initial_indexed(m1), 2):
        for _, i in k:
            assert i <= bound


@settings(max_examples=30, deadline=None)
@given(seeds)
def test_process_theorems_on_random_walks(seed):
    """Coherence, minimality, one-step correspondence and the preset
    proposition along a random process walk."""
    rng = random.Random(seed)
    net, m1, _ = instance(seed)
    ps = ps_init(net, initial_indexed(m1))
    for _ in range(4):
        check_coherence(ps)
        check_minimality(ps)
        check_one_step_correspondence(ps)
        check_preset_not_eq_pi(ps.process)
        succs = list(ps_successors(ps))
        if not succs:
            break
        ps = rng.choice(succs)[2]


@settings(max_examples=25, deadline=None)
@given(seeds)
def test_decision_symmetry(seed):
    net, m1, m2 = instance(seed)
    for decide in (decide_oim, decide_oimc, decide_interleaving):
        assert decide(net, m1, m2, 2).outcome == decide(net, m2, m1, 2).outcome


@settings(max_examples=25, deadline=None)
@given(seeds)
def test_hierarchy(seed):
    net, m1, m2 = instance(seed)
    cn = decide_oimc(net, m1, m2, 2).outcome
    fc = decide_oim(net, m1, m2, 2).outcome
    il = decide_interleaving(net, m1, m2, 2).outcome
    if cn == "equivalent":
        assert fc == "equivalent"
    if fc == "equivalent":
        assert il == "equivalent"


@settings(max_examples=25, deadline=None)
@given(seeds)
def test_cn_size_gate(seed):
    net, m1, m2 = instance(seed)
    if m1.size != m2.size:
        assert decide_oimc(net, m1, m2, 2).outcome == "not-equivalent"


def reference_oim_successors(net, o):
    """The ordered token game from its definition, on frozensets: every
    enabled transition in declaration order, every victim choice in the
    order of its sorted tokens, creation at the least free index, and the
    three clauses of the order update."""
    steps = []
    m = alpha(o.tokens)
    for t in net.transitions:
        if not t.pre <= m:
            continue
        per_place = [
            [frozenset((place, i) for i in c)
             for c in combinations(sorted(i for p, i in o.tokens
                                          if p == place), n)]
            for place, n in t.pre.items()
        ]
        choices = [frozenset().union(*c) for c in product(*per_place)]
        for removed in sorted(choices, key=sorted):
            untouched = o.tokens - removed
            generated = set()
            for place, n in t.post.items():
                for _ in range(n):
                    i = 1
                    while (place, i) in untouched or (place, i) in generated:
                        i += 1
                    generated.add((place, i))
            order = {(a, b) for a, b in o.order
                     if a in untouched and b in untouched}
            order |= {(a, b) for a in generated for b in generated}
            order |= {(a, b) for a in untouched for b in generated
                      if any((a, d) in o.order for d in removed)}
            steps.append(OIMStep(t.tid, removed, OrderedIndexedMarking(
                untouched | generated, frozenset(order))))
    return steps


def check_mask_successors(net, m1, m2):
    """On the OIMs reachable from m1 and m2, the graph's mask moves,
    decoded, are oim_successors, in content and order, and oim_successors
    is the definition."""
    graph = OIMGraph(net)
    left, right = graph.initial(m1), graph.initial(m2)
    todo, seen = [left, right], {left, right}
    while todo and len(seen) < 60:
        o = todo.pop()
        moves, _ = graph.successors(o)
        decoded = [graph.step(o, move) for move in moves]
        source = graph.oim(o)
        assert decoded == oim_successors(net, source)
        assert decoded == reference_oim_successors(net, source)
        for move in moves:
            if move[4] not in seen:
                seen.add(move[4])
                todo.append(move[4])


@settings(max_examples=40, deadline=None)
@given(seeds)
def test_mask_successors_match_definition(seed):
    check_mask_successors(*instance(seed))


def test_mask_successors_with_two_place_victims():
    """Victim choices over two places, two of four tokens each: their order
    is that of the sorted removed tokens."""
    net = PTNet.make(["p", "q", "r"], [
        Transition("t", "a", Multiset({"p": 2, "q": 1}), Multiset.of("r")),
        Transition("u", "b", Multiset.of("r"), Multiset({"p": 2, "q": 1})),
    ])
    check_mask_successors(net, Multiset({"p": 4, "q": 3}),
                          Multiset({"p": 3, "q": 2, "r": 1}))


LEFT = [("p", 1), ("p", 2), ("q", 1)]
RIGHT = [("r", 1), ("r", 2), ("s", 1)]


def relation(xs, ys):
    return st.frozensets(st.tuples(st.sampled_from(xs), st.sampled_from(ys)))


@example(frozenset(LEFT), frozenset(RIGHT),
         frozenset({(LEFT[0], RIGHT[0]), (LEFT[1], RIGHT[0])}
                   | {(LEFT[2], b) for b in RIGHT}))
@given(st.frozensets(st.sampled_from(LEFT)), st.frozensets(st.sampled_from(RIGHT)),
       relation(LEFT, RIGHT))
def test_deleted_condition_cn_matches_bijections(removed1, removed2, beta):
    """Against the definition: some bijection between the deleted tokens
    lies inside beta."""
    left, right = sorted(removed1), sorted(removed2)
    expected = len(left) == len(right) and any(
        all(pair in beta for pair in zip(left, perm))
        for perm in permutations(right))
    assert deleted_condition_cn(removed1, removed2, beta) == expected


@given(st.frozensets(st.sampled_from(LEFT)), st.frozensets(st.sampled_from(RIGHT)),
       relation(LEFT, RIGHT), st.frozensets(st.sampled_from([("g", 1), ("g", 2)])),
       st.frozensets(st.sampled_from([("h", 1), ("h", 2)])))
def test_beta_update_matches_definition(untouched1, untouched2, beta,
                                        generated1, generated2):
    expected = {(a, b) for a, b in beta if a in untouched1 and b in untouched2}
    expected |= set(product(generated1, generated2))
    assert beta_update(untouched1, generated1, untouched2, generated2,
                       beta) == expected
