"""Verdicts do not depend on names, declaration order or argument order."""

from netbisim import (
    Multiset, PTNet, Transition, corpus, decide_interleaving, decide_oim,
    decide_oimc, oracle_game,
)


def renamed(net, m1, m2):
    """net with its places and transitions renamed so that their sorted
    order is reversed and declared in reverse order; m1, m2 renamed too."""
    n, k = len(net.places), len(net.transitions)
    place = {p: f"q{n - i}" for i, p in enumerate(net.places)}
    tid = {t.tid: f"u{k - i}" for i, t in enumerate(net.transitions)}

    def rename(m):
        return Multiset({place[p]: c for p, c in m.items()})

    transitions = [Transition(tid[t.tid], t.label, rename(t.pre), rename(t.post))
                   for t in reversed(net.transitions)]
    net2 = PTNet.make([place[p] for p in reversed(net.places)], transitions,
                      labels=net.labels)
    return net2, rename(m1), rename(m2)


def outcomes(net, m1, m2):
    return (
        decide_oim(net, m1, m2, 2).outcome,
        decide_oimc(net, m1, m2, 2).outcome,
        decide_interleaving(net, m1, m2, 2).outcome,
        oracle_game(net, m1, m2, "fc", 4).outcome,
        oracle_game(net, m1, m2, "cn", 4).outcome,
    )


def test_verdicts_survive_renaming_reordering_and_swapping():
    for i, (net, m1, m2) in enumerate(corpus(42, 200)):
        expected = outcomes(net, m1, m2)
        assert outcomes(*renamed(net, m1, m2)) == expected, (i, net, m1, m2)
        assert outcomes(net, m2, m1) == expected, (i, net, m1, m2)
