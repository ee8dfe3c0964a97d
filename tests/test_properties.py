import random
from math import comb

from hypothesis import given, settings, strategies as st

from netbisim import (
    Multiset, NetSystem, alpha, boxminus, boxplus, decide_interleaving,
    decide_oim, decide_oimc, enabled, fire, initial_indexed, init_oim,
    im_successors, oim_successors, reachable, ps_init, ps_successors,
)
from netbisim.indexed import indices_of
from netbisim.ordered import oim_check
from netbisim.randnets import CorpusConfig, random_instance

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
            expected *= comb(len(indices_of(k, place)), n)
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
            generated = s.generated(o)
            untouched = s.untouched(o)
            for a in generated:
                for b in generated:
                    assert s.target.leq(a, b)
            for a in untouched:
                for b in untouched:
                    assert s.target.leq(a, b) == o.leq(a, b)
                for b in generated:
                    if s.target.leq(a, b):
                        assert any(o.leq(a, d) for d in s.removed)
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
