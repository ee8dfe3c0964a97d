"""The four benchmark workloads: generated nets, the expected result of
every decider call, and the probes for known defects.

A workload is a list of instances.  Each instance is a net with two
markings and the checks made on it: a decider call (`fc`, `cn`, `il`, or
the oracle), the verdicts it may return, and whether its certificate is
validated and rendered.  Structured families are generated as `.pn` text
and parsed with `netbisim.parse_net`, as a user would load them.

Expected verdicts:

| family                  | fc       | cn       | il       | oracle fc/cn     |
|-------------------------|----------|----------|----------|------------------|
| buf(k), par(n), ring(N) | equiv    | equiv    | equiv    | -                |
| pair(k, g)              | not      | not      | not      | -                |
| fig1 m_s1 / m_s3        | equiv    | not      | equiv    | -                |
| parallel_choice         | not      | not      | equiv    | -                |
| par(3), par(2) (oracle) | equiv    | equiv    | -        | equiv or unknown |
| random corpus           | = oracle | = oracle | -        | any              |

On corpus instances the engine must agree with the oracle wherever the
oracle is definite.  On every instance a cn-equivalence implies an
fc-equivalence, which implies an il-equivalence.  The fc searches of
buf(2..4), par(4) and ring(N) may explore no more triples than the ROADMAP
baselines.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Optional

EQ, NEQ, UNKNOWN = "equivalent", "not-equivalent", "unknown"
DEFINITE = (EQ, NEQ)

NETS_DIR = Path(__file__).resolve().parent.parent / "nets"

# Decider flavours whose certificates the engine ships.
ENGINE_FLAVORS = ("fc", "cn")
ORACLE_DEPTH = 5
SPOT_CHECK_COUNT = 2
SPOT_CHECK_SEED = 3


@dataclass(frozen=True)
class Check:
    """One decider call on an instance and what must hold of its result."""

    flavor: str  # "fc" | "cn" | "il" | "oracle-fc" | "oracle-cn"
    expected: Optional[frozenset]  # allowed outcomes; None: agree with the oracle
    depth: int = ORACLE_DEPTH  # oracle depth
    certify: bool = True  # validate the engine's certificate
    render: bool = True  # format the engine's certificate
    triples: Optional[int] = None  # most triples the engine search may explore


@dataclass(frozen=True)
class Instance:
    iid: str
    net: object
    m1: object
    m2: object
    cap: int
    checks: tuple
    timed: bool = True  # False: a gate only, kept out of every timing


@dataclass(frozen=True)
class Probe:
    """A call that shows a known defect.  `prepare` runs without a deadline;
    `call(prepared, deadline)` runs under it and succeeds when its result
    passes `accept`.  A probe that overruns or raises counts as failed."""

    name: str
    defect: str
    deadline: float
    prepare: Callable[[], object]
    call: Callable[[object, float], object]
    accept: Callable[[object], bool]
    decider: bool  # counts in decided_frac


@dataclass
class Workload:
    name: str
    instances: list
    probes: list
    tail_pct: float  # the percentile reported as check_tail_s


# ---------------------------------------------------------------------------
# net families, as .pn text
# ---------------------------------------------------------------------------


def buf_text(k: int) -> str:
    """One producer filling k slots, consumed by an always-ready `get`."""
    return (
        f"net buf{k}\n"
        "places pr free full\n"
        "trans put a : pr + free -> pr + full\n"
        "trans get b : full -> free\n"
        f"marking m0 : pr + {k}*free\n"
    )


def pc_text(k: int) -> str:
    """Producer/consumer buffer: `get` needs a consumer token too."""
    return (
        f"net pc{k}\n"
        "places pr co free full\n"
        "trans put a : pr + free -> pr + full\n"
        "trans get b : co + full -> co + free\n"
        f"marking m0 : pr + co + {k}*free\n"
    )


def par_text(n: int) -> str:
    """n independent toggles x_i -a-> y_i -b-> x_i."""
    places = " ".join(f"x{i} y{i}" for i in range(1, n + 1))
    trans = "".join(
        f"trans ta{i} a : x{i} -> y{i}\ntrans tb{i} b : y{i} -> x{i}\n"
        for i in range(1, n + 1)
    )
    marking = " + ".join(f"x{i}" for i in range(1, n + 1))
    return f"net par{n}\nplaces {places}\n{trans}marking m0 : {marking}\n"


def ring_text(n: int) -> str:
    """A token ring of n places with one `a`-transition per place."""
    places = " ".join(f"r{i}" for i in range(n))
    trans = "".join(f"trans t{i} a : r{i} -> r{(i + 1) % n}\n" for i in range(n))
    return (
        f"net ring{n}\nplaces {places}\n{trans}"
        f"marking m0 : r0\nmarking mh : r{n // 2}\n"
    )


def pair_text(k: int, g: int) -> str:
    """Two disjoint k-slot buffers L and R; R can also raise an alarm `c`
    once g of its slots are full, so mL and mR are never equivalent."""
    return (
        f"net pair{k}_{g}\n"
        "places prL freeL fullL prR freeR fullR\n"
        "trans putL a : prL + freeL -> prL + fullL\n"
        "trans getL b : fullL -> freeL\n"
        "trans putR a : prR + freeR -> prR + fullR\n"
        "trans getR b : fullR -> freeR\n"
        f"trans alarm c : {g}*fullR -> {g}*fullR\n"
        f"marking mL : prL + {k}*freeL\n"
        f"marking mR : prR + {k}*freeR\n"
    )


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

WITNESS_BUF = (2, 3, 4)
WITNESS_PAR = (2, 3, 4)
RING_SIZES = (150, 300, 450)
REFUTE_PAIRS = ((2, 1), (2, 2), (3, 1), (3, 2), (3, 3), (4, 3))
ORACLE_CORPUS = 100
# (n, depth): par(n) under the oracle.  Seed-independent, and deep enough to
# dominate wall_s, so that the rare corpus instance on which the depth-5
# oracle explodes (0.2-0.35 s) moves wall_s by little.
ORACLE_PARS = ((3, 6), (2, 11))

# fc triple counts of the engine search at the ROADMAP baselines.  A search
# may explore fewer (symmetry reduction does) but not more.
FC_TRIPLES = {"buf2": 20, "buf3": 211, "buf4": 3142, "par4": 903}
FC_TRIPLES.update({f"ring{n}": n for n in RING_SIZES})

# pc4_fc_recursion: a search that does not recurse explores 163,459 triples
# in about 30 s, so the deadline leaves room for it to finish.
PROBE_DEADLINE_S = {"pc4_fc_recursion": 45.0, "refute33_format": 2.0,
                    "pair5_il_partition": 2.0, "pair6_il_partition": 2.0}
SMALLEST_PROBE_DEADLINE_S = 0.5


def fresh(nb, inst: Instance) -> Instance:
    """The instance on new net, transition and marking objects equal to its
    own, built with the public constructors, so that a call on the copy
    finds nothing an earlier call left on the objects."""
    net = inst.net
    copy = nb.PTNet.make(
        net.places,
        (nb.Transition(t.tid, t.label, nb.Multiset(t.pre), nb.Multiset(t.post))
         for t in net.transitions),
        net.labels)
    return replace(inst, net=copy, m1=nb.Multiset(inst.m1),
                   m2=nb.Multiset(inst.m2))


def _all(outcome: str) -> frozenset:
    return frozenset([outcome])


def _instance(nb, iid, text, m1, m2, cap, checks, timed=True) -> Instance:
    doc = nb.netio.parse_net(text)
    return Instance(iid, doc.net, doc.marking(m1), doc.marking(m2), cap,
                    tuple(checks), timed)


def _self_check(nb, iid, text, cap) -> Instance:
    """Equivalent self-check under fc and cn with certificates, plus il."""
    return _instance(nb, iid, text, "m0", "m0", cap, [
        Check("fc", _all(EQ), triples=FC_TRIPLES.get(iid)),
        Check("cn", _all(EQ)),
        Check("il", _all(EQ)),
    ])


def _corpus_instances(nb, prefix, seed, count, timed) -> list:
    """Random corpus instances, each checked by the oracle and the engine
    under fc and cn; the engine must agree wherever the oracle is definite."""
    config = nb.randnets.CorpusConfig()
    out = []
    for i, (net, m1, m2) in enumerate(nb.randnets.corpus(seed, count, config)):
        checks = []
        for flavor in ENGINE_FLAVORS:
            checks.append(Check(f"oracle-{flavor}", frozenset(DEFINITE + (UNKNOWN,))))
            checks.append(Check(flavor, None))
        out.append(Instance(f"{prefix}{i}", net, m1, m2, config.bound,
                            tuple(checks), timed))
    return out


def spot_check(nb) -> list:
    """An engine/oracle agreement check carried by witness, ring and refute,
    so that every layer is traced on every workload.  It is a gate only and
    stays out of the timings; its seed is fixed, so that its share of the
    traced time does not vary with --seed."""
    return _corpus_instances(nb, "spot", SPOT_CHECK_SEED, SPOT_CHECK_COUNT,
                             timed=False)


def _decider_probe(nb, name, defect, text, m1, m2, cap, decide, expected,
                   deadline) -> Probe:
    def prepare():
        doc = nb.netio.parse_net(text)
        return doc.net, doc.marking(m1), doc.marking(m2)

    return Probe(
        name, defect, deadline, prepare,
        lambda inp, left: decide(*inp, cap, left).outcome,
        lambda outcome: outcome == expected,
        decider=True,
    )


def _probe_deadline(name, smallest):
    return SMALLEST_PROBE_DEADLINE_S if smallest else PROBE_DEADLINE_S[name]


def witness(nb, seed, smallest=False) -> Workload:
    bufs = WITNESS_BUF[:1] if smallest else WITNESS_BUF
    pars = WITNESS_PAR[:1] if smallest else WITNESS_PAR
    instances = [_self_check(nb, f"buf{k}", buf_text(k), k) for k in bufs]
    instances += [_self_check(nb, f"par{n}", par_text(n), 1) for n in pars]
    name = "pc4_fc_recursion"
    probe = _decider_probe(
        nb, name, "decide_oim raises RecursionError on the 4-slot "
        "producer/consumer buffer", pc_text(4), "m0", "m0", 4,
        lambda net, m1, m2, cap, left: nb.engine.decide_oim(
            net, m1, m2, cap, nb.engine.Limits(max_seconds=left)),
        EQ, _probe_deadline(name, smallest))
    return Workload("witness", instances + spot_check(nb), [probe], 90.0)


def ring(nb, seed, smallest=False) -> Workload:
    sizes = RING_SIZES[:1] if smallest else RING_SIZES
    instances = [
        _instance(nb, f"ring{n}", ring_text(n), "m0", "mh", 1, [
            Check("fc", _all(EQ), triples=FC_TRIPLES[f"ring{n}"]),
            Check("cn", _all(EQ)),
            Check("il", _all(EQ)),
        ])
        for n in sizes
    ]
    return Workload("ring", instances + spot_check(nb), [], 50.0)


def refute(nb, seed, smallest=False) -> Workload:
    pairs = REFUTE_PAIRS[:1] if smallest else REFUTE_PAIRS
    instances = [
        _instance(nb, f"pair{k}_{g}", pair_text(k, g), "mL", "mR", k, [
            Check("fc", _all(NEQ), render=k == 2),
            Check("cn", _all(NEQ), render=k == 2),
            Check("il", _all(NEQ)),
        ])
        for k, g in pairs
    ]
    instances.append(_instance(
        nb, "fig1", (NETS_DIR / "fig1.pn").read_text(), "m_s1", "m_s3", 8, [
            Check("fc", _all(EQ)), Check("cn", _all(NEQ)), Check("il", _all(EQ)),
        ]))
    instances.append(_instance(
        nb, "parallel_choice", (NETS_DIR / "parallel_choice.pn").read_text(),
        "m_par", "m_choice", 8, [
            Check("fc", _all(NEQ)), Check("cn", _all(NEQ)), Check("il", _all(EQ)),
        ]))

    def prepare_refutation():
        doc = nb.netio.parse_net(pair_text(3, 3))
        verdict = nb.engine.decide_oim(doc.net, doc.marking("mL"),
                                       doc.marking("mR"), 3)
        return verdict.refutation

    name = "refute33_format"
    probes = [Probe(
        name, "format_refutation is exponential through principal_moves",
        _probe_deadline(name, smallest), prepare_refutation,
        lambda ref, left: nb.engine.format_refutation(ref),
        lambda text: text.startswith("refuted:"), decider=False,
    )]
    for k in (5, 6):
        name = f"pair{k}_il_partition"
        probes.append(_decider_probe(
            nb, name, "decide_interleaving never terminates once its "
            "partition has 11 or more blocks", pair_text(k, k - 1), "mL", "mR",
            k, lambda net, m1, m2, cap, left: nb.engine.decide_interleaving(
                net, m1, m2, cap),
            NEQ, _probe_deadline(name, smallest)))
    return Workload("refute", instances + spot_check(nb), probes, 80.0)


def oracle(nb, seed, smallest=False) -> Workload:
    count = 20 if smallest else ORACLE_CORPUS
    instances = _corpus_instances(nb, "corpus", seed, count, timed=True)
    maybe_eq = frozenset([EQ, UNKNOWN])
    for n, depth in ORACLE_PARS:
        depth = 4 if smallest else depth
        instances.append(_instance(
            nb, f"par{n}", par_text(n), "m0", "m0", 1, [
                Check("oracle-fc", maybe_eq, depth=depth),
                Check("fc", _all(EQ)),
                Check("oracle-cn", maybe_eq, depth=depth),
                Check("cn", _all(EQ)),
            ]))
    return Workload("oracle", instances, [], 90.0 if smallest else 99.6)


WORKLOADS = {"witness": witness, "ring": ring, "refute": refute,
             "oracle": oracle}


def build(nb, name, seed, smallest=False) -> Workload:
    """The workload's inputs, in a seeded order."""
    work = WORKLOADS[name](nb, seed, smallest)
    random.Random(seed).shuffle(work.instances)
    return work
