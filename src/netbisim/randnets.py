"""Seeded random corpora of small bounded nets for agreement testing."""

from __future__ import annotations

import random
from dataclasses import dataclass, replace

from .nets import BoundExceededError, Multiset, PTNet, Transition


@dataclass(frozen=True)
class CorpusConfig:
    max_places: int = 4
    max_transitions: int = 4
    bound: int = 2
    max_reachable: int = 40
    labels: tuple[str, ...] = ("a", "b")


def _random_multiset(rng: random.Random, places, size_range=(1, 2),
                     allow_empty=False) -> Multiset:
    low, high = size_range
    if allow_empty:
        low = 0
    size = rng.randint(low, high)
    return Multiset.of(*(rng.choice(places) for _ in range(size)))


def _random_transitions(rng: random.Random, config: CorpusConfig,
                        places: list) -> list:
    """Transitions t1, t2, ... with random labels, presets and postsets."""
    return [
        Transition(f"t{i}", rng.choice(config.labels),
                   _random_multiset(rng, places),
                   _random_multiset(rng, places, allow_empty=True))
        for i in range(1, rng.randint(1, config.max_transitions) + 1)
    ]


def _small(net: PTNet, m1: Multiset, m2: Multiset,
           config: CorpusConfig) -> bool:
    """Whether m1 and m2 are config.bound-bounded, with at most
    config.max_reachable reachable markings together."""
    try:
        size = sum(len(net.kernel.explore((m,), config.bound))
                   for m in (m1, m2))
    except BoundExceededError:
        return False
    return size <= config.max_reachable


def random_instance(rng: random.Random,
                    config: CorpusConfig = CorpusConfig()):
    """One (net, m1, m2) with both markings verified config.bound-bounded
    and a small reachability set.  Retries until a candidate qualifies."""
    while True:
        n_places = rng.randint(2, config.max_places)
        places = [f"p{i}" for i in range(1, n_places + 1)]
        net = PTNet.make(places, _random_transitions(rng, config, places),
                         labels=config.labels)
        m1 = _random_multiset(rng, places, size_range=(1, 2))
        m2 = _random_multiset(rng, places, size_range=(1, 2))
        if _small(net, m1, m2, config):
            return net, m1, m2


def corpus(seed: int, count: int, config: CorpusConfig = CorpusConfig()):
    """A deterministic list of `count` random instances."""
    rng = random.Random(seed)
    return [random_instance(rng, config) for _ in range(count)]


MUTATIONS = ("copy", "lock", "redirect")


def _renamed(m: Multiset, names: dict) -> Multiset:
    return Multiset({names[p]: n for p, n in m.items()})


def mutation_instance(rng: random.Random,
                      config: CorpusConfig = CorpusConfig()):
    """One (mutation, net, m1, m2): a random net N with 2-3 initial tokens
    beside a copy N' of it on places q1, q2, ... and transitions u1, u2,
    ..., changed by the mutation; m1 marks N and m2 marks N'.

    - copy: N' is N renamed, so m1 and m2 are equivalent under fc, cn
      and il;
    - lock: two transitions of N' share a fresh place `lock`, marked once
      in m2, so they can no longer fire concurrently;
    - redirect: the postset of one transition of N' is drawn anew.

    Retries until both markings are config.bound-bounded and their
    reachable sets have at most config.max_reachable markings together."""
    while True:
        n_places = rng.randint(2, config.max_places)
        places = [f"p{i}" for i in range(1, n_places + 1)]
        names = {p: f"q{p[1:]}" for p in places}
        originals = _random_transitions(rng, config, places)
        copies = [Transition(f"u{t.tid[1:]}", t.label, _renamed(t.pre, names),
                             _renamed(t.post, names)) for t in originals]
        m1 = _random_multiset(rng, places, size_range=(2, 3))
        m2 = _renamed(m1, names)
        extra = []
        mutation = rng.choice(MUTATIONS)
        if mutation == "lock":
            if len(copies) < 2:
                continue
            token = Multiset.of("lock")
            for k in rng.sample(range(len(copies)), 2):
                copies[k] = replace(copies[k], pre=copies[k].pre + token,
                                    post=copies[k].post + token)
            m2 = m2 + token
            extra = ["lock"]
        elif mutation == "redirect":
            k = rng.randrange(len(copies))
            copies[k] = replace(copies[k], post=_random_multiset(
                rng, list(names.values()), allow_empty=True))
        net = PTNet.make(places + list(names.values()) + extra,
                         originals + copies, labels=config.labels)
        if _small(net, m1, m2, config):
            return mutation, net, m1, m2


def mutation_corpus(seed: int, count: int,
                    config: CorpusConfig = CorpusConfig()):
    """A deterministic list of `count` mutation instances."""
    rng = random.Random(seed)
    return [mutation_instance(rng, config) for _ in range(count)]
