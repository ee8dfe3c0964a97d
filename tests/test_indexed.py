from itertools import combinations
from math import comb

import pytest
from hypothesis import given, strategies as st

from netbisim import (
    BoundExceededError, Multiset, NetError, alpha, boxminus, boxplus,
    initial_indexed, is_closed, im_successors, reachable_im,
)
from netbisim.indexed import InsufficientTokensError, positions, victims


def k(*tokens):
    return frozenset(tokens)


def test_alpha_projects_counts():
    assert alpha(k(("s1", 1), ("s2", 1), ("s2", 3))) == Multiset({"s1": 1, "s2": 2})
    assert alpha(frozenset()) == Multiset()


def test_is_closed():
    assert is_closed(k(("s1", 1), ("s2", 1), ("s2", 2)))
    assert not is_closed(k(("s2", 1), ("s2", 3)))
    assert is_closed(frozenset())


def test_initial_indexed_is_closed_inverse_of_alpha(fig2_m0):
    k0 = initial_indexed(fig2_m0)
    assert is_closed(k0)
    assert alpha(k0) == fig2_m0
    assert k0 == k(("s1", 1), ("s2", 1), ("s2", 2), ("s2", 3))


def test_boxminus_fig2_golden(fig2_net, fig2_m0):
    k0 = initial_indexed(fig2_m0)
    results = boxminus(k0, fig2_net.transition("t2").pre)
    assert results == {
        k(("s1", 1), ("s2", 1), ("s2", 2)),
        k(("s1", 1), ("s2", 1), ("s2", 3)),
        k(("s1", 1), ("s2", 2), ("s2", 3)),
    }


def test_boxminus_cardinality_binomial():
    marking = k(("p", 1), ("p", 2), ("p", 3), ("p", 4), ("q", 1), ("q", 2))
    need = Multiset({"p": 2, "q": 1})
    assert len(boxminus(marking, need)) == comb(4, 2) * comb(2, 1)


def test_boxminus_insufficient():
    with pytest.raises(InsufficientTokensError):
        boxminus(k(("p", 1)), Multiset({"p": 2}))


def test_boxplus_least_free_index():
    base = k(("p", 1), ("p", 3))
    assert boxplus(base, Multiset({"p": 2})) == k(
        ("p", 1), ("p", 2), ("p", 3), ("p", 4)
    )
    assert boxplus(frozenset(), Multiset({"q": 1})) == k(("q", 1))


def test_fig2_token_game_golden(fig2_net, fig2_m0):
    """Fire t2 deleting (s2,2), then t1: the final indexed marking fills
    the hole at index 2 and adds index 4."""
    k0 = initial_indexed(fig2_m0)
    k1 = boxplus(k0 - {("s2", 2)}, fig2_net.transition("t2").post)
    assert k1 == k(("s1", 1), ("s2", 1), ("s2", 3), ("s3", 1))
    k2 = boxplus(k1 - {("s1", 1)}, fig2_net.transition("t1").post)
    assert k2 == k(("s2", 1), ("s2", 2), ("s2", 3), ("s2", 4), ("s3", 1))


def test_im_successors_lift_collective_firings(fig2_net, fig2_m0):
    k0 = initial_indexed(fig2_m0)
    steps = im_successors(fig2_net, k0)
    # one t1 firing, three victim choices for t2
    assert [s.tid for s in steps] == ["t1", "t2", "t2", "t2"]
    for s in steps:
        t = fig2_net.transition(s.tid)
        assert alpha(s.target) == (alpha(k0) - t.pre) + t.post
        assert s.removed <= k0


def test_reachable_im_requires_closed(fig2_net):
    with pytest.raises(NetError):
        reachable_im(fig2_net, frozenset({("s2", 2)}), 8)


def test_reachable_im_finite_and_capped(fig2_net, fig2_m0):
    k0 = initial_indexed(fig2_m0)
    ims = reachable_im(fig2_net, k0, 8)
    assert k0 in ims
    for marking in ims:
        for place, count in alpha(marking).items():
            assert count <= 5
    with pytest.raises(BoundExceededError):
        reachable_im(fig2_net, k0, 4)


@st.composite
def victim_cases(draw):
    """(tokens, m): a sorted token tuple with up to five tokens, indices
    with holes, on each of places p, q and r, and a multiset asking for up
    to one more token of each place than it holds."""
    tokens = tuple(sorted(
        (place, i) for place in "pqr"
        for i in draw(st.sets(st.integers(1, 7), max_size=5))))
    counts = {place: draw(st.integers(0, sum(p == place for p, _ in tokens)
                                      + 1)) for place in "pqr"}
    return tokens, Multiset({p: n for p, n in counts.items() if n})


@given(victim_cases())
def test_victims_match_combinations(case):
    """`victims`, with its paths for one token of a place and for all of
    them, lists the masks that picking each place's tokens by
    `itertools.combinations` lists, in that order, and `boxminus` deletes
    exactly those."""
    tokens, m = case
    expected = [0]
    try:
        for place, n in m.items():
            present = [j for j, (p, _) in enumerate(tokens) if p == place]
            if n > len(present):
                raise InsufficientTokensError(place)
            expected = [r | sum(1 << j for j in c) for r in expected
                        for c in combinations(present, n)]
    except InsufficientTokensError as exc:
        with pytest.raises(InsufficientTokensError) as raised:
            victims(positions(tokens), m)
        assert raised.value.place == exc.place
        return
    assert victims(positions(tokens), m) == expected
    assert boxminus(frozenset(tokens), m) == {
        frozenset(t for j, t in enumerate(tokens) if not r >> j & 1)
        for r in expected}
