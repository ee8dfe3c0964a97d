"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criteria:
  1. fig1 pair: fc-equivalent, cn-inequivalent via the CLI, < 1 s each.
  2. indexed-semantics goldens on fig2 (victim choices, token game, bound 5).
  3. ordered-step golden relation on fig2.
  4. coherence + one-step correspondence on all process sequences of
     length <= 6 over a fixed 5-net corpus, < 60 s.
  5. oracle agreement on >= 200 random nets at depth 5, < 10 min.
  6. equivalence hierarchy (cn => fc => interleaving) + strict separations.
  7. index ceiling and finiteness of the ordered state space.
  8. witness/refutation validity for every engine verdict.
"""

import random
import time
from contextlib import contextmanager

import pytest

from netbisim import (
    Multiset, NetSystem, boxminus, boxplus, decide_interleaving, decide_oim,
    decide_oimc, initial_indexed, init_oim, oim_successors, oracle_game,
    reachable, reachable_im, reachable_oim, validate_refutation,
    validate_witness,
)
from netbisim.cli import cli_main
from netbisim.randnets import CorpusConfig, random_instance

from processes import ps_init, ps_successors
from proc_checks import check_coherence, check_one_step_correspondence
from test_engine import initial_triple

CORPUS_SEED = 20260823


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"[criterion {number}] FAIL - {description}")
        raise
    print(f"[criterion {number}] PASS - {description}")


def random_corpus(count: int):
    rng = random.Random(CORPUS_SEED)
    return [random_instance(rng, CorpusConfig()) for _ in range(count)]


FIG1_TEXT = """\
net fig1
places s1 s2 s3
trans t1 a : s1 -> s2
trans t4 a : s3 -> 0
marking m_s1 : s1
marking m_s3 : s3
"""


def test_criterion_1_fig1_cli(tmp_path):
    with criterion(1, "fig1: fc equivalent, cn not, each < 1 s"):
        path = tmp_path / "fig1.pn"
        path.write_text(FIG1_TEXT)
        t0 = time.perf_counter()
        code_fc = cli_main(["check", "--equiv", "fc", "--cap", "4",
                            str(path), "m_s1", "m_s3"])
        t_fc = time.perf_counter() - t0
        t0 = time.perf_counter()
        code_cn = cli_main(["check", "--equiv", "cn", "--cap", "4",
                            str(path), "m_s1", "m_s3"])
        t_cn = time.perf_counter() - t0
        assert code_fc == 0
        assert code_cn == 1
        assert t_fc < 1.0 and t_cn < 1.0


def test_criterion_2_indexed_goldens(fig2_net, fig2_m0):
    with criterion(2, "fig2 indexed semantics goldens, < 1 s"):
        t0 = time.perf_counter()
        k0 = initial_indexed(fig2_m0)
        assert boxminus(k0, fig2_net.transition("t2").pre) == {
            frozenset({("s1", 1), ("s2", 1), ("s2", 2)}),
            frozenset({("s1", 1), ("s2", 1), ("s2", 3)}),
            frozenset({("s1", 1), ("s2", 2), ("s2", 3)}),
        }
        k1 = boxplus(k0 - {("s2", 2)}, fig2_net.transition("t2").post)
        k2 = boxplus(k1 - {("s1", 1)}, fig2_net.transition("t1").post)
        assert k2 == frozenset(
            {("s2", 1), ("s2", 2), ("s2", 3), ("s2", 4), ("s3", 1)}
        )
        assert reachable(NetSystem(fig2_net, fig2_m0), 8).least_bound == 5
        assert time.perf_counter() - t0 < 1.0


def test_criterion_3_ordered_golden(fig2_net, fig2_m0):
    with criterion(3, "fig2 ordered step produces the exact stated preorder"):
        k0 = initial_indexed(fig2_m0)
        o0 = init_oim(k0)
        steps = [
            s for s in oim_successors(fig2_net, o0)
            if s.tid == "t2" and s.removed == frozenset({("s2", 2)})
        ]
        assert len(steps) == 1
        kept = frozenset(
            (a, b) for a, b in o0.order
            if a != ("s2", 2) and b != ("s2", 2)
        )
        added = frozenset({
            (("s1", 1), ("s3", 1)),
            (("s2", 1), ("s3", 1)),
            (("s2", 3), ("s3", 1)),
            (("s3", 1), ("s3", 1)),
        })
        assert steps[0].target.order == kept | added


def test_criterion_4_coherence_suite(coherence_corpus):
    with criterion(4, "coherence + one-step correspondence, length <= 6, < 60 s"):
        t0 = time.perf_counter()
        visited = 0

        def dfs(ps, depth):
            nonlocal visited
            visited += 1
            check_coherence(ps)
            check_one_step_correspondence(ps)
            if depth == 6:
                return
            for _, _, succ in ps_successors(ps):
                dfs(succ, depth + 1)

        for name, net, m0, _cap in coherence_corpus:
            dfs(ps_init(net, initial_indexed(m0)), 0)
        elapsed = time.perf_counter() - t0
        assert visited > 0
        assert elapsed < 60.0, f"suite took {elapsed:.1f}s on {visited} nodes"


def test_criterion_5_oracle_agreement():
    with criterion(5, "oracle agreement on 200 random nets, depth 5, < 10 min"):
        t0 = time.perf_counter()
        conclusive = 0
        for net, m1, m2 in random_corpus(200):
            for flavor, decide in (("fc", decide_oim), ("cn", decide_oimc)):
                oracle = oracle_game(net, m1, m2, flavor, 5)
                if oracle.outcome == "unknown":
                    continue
                conclusive += 1
                verdict = decide(net, m1, m2, 2)
                assert verdict.outcome == oracle.outcome, (
                    f"{flavor} disagreement: engine={verdict.outcome} "
                    f"oracle={oracle.outcome} on {net} {m1} {m2}"
                )
        assert conclusive >= 100  # the corpus must actually exercise both
        assert time.perf_counter() - t0 < 600.0


def test_criterion_6_hierarchy(fig1_net, parallel_choice_net):
    with criterion(6, "cn => fc => interleaving, plus both strict separations"):
        for net, m1, m2 in random_corpus(200):
            cn = decide_oimc(net, m1, m2, 2).outcome
            fc = decide_oim(net, m1, m2, 2).outcome
            il = decide_interleaving(net, m1, m2, 2).outcome
            if cn == "equivalent":
                assert fc == "equivalent"
            if fc == "equivalent":
                assert il == "equivalent"
        # strictness witnesses
        m_par, m_choice = Multiset.of("p1", "p2"), Multiset.of("q0")
        assert decide_interleaving(
            parallel_choice_net, m_par, m_choice, 4).outcome == "equivalent"
        assert decide_oim(
            parallel_choice_net, m_par, m_choice, 4).outcome == "not-equivalent"
        m1, m2 = Multiset.of("s1"), Multiset.of("s3")
        assert decide_oim(fig1_net, m1, m2, 4).outcome == "equivalent"
        assert decide_oimc(fig1_net, m1, m2, 4).outcome == "not-equivalent"


def test_criterion_7_finiteness(coherence_corpus):
    with criterion(7, "index ceiling <= verified bound; finite ordered space"):
        instances = [
            (net, m) for _, net, m, _ in coherence_corpus
        ] + [(net, m1) for net, m1, _ in random_corpus(50)]
        for net, m in instances:
            cap = 8
            bound = reachable(NetSystem(net, m), cap).least_bound
            k0 = initial_indexed(m)
            for k in reachable_im(net, k0, cap):
                assert all(i <= bound for _, i in k)
            oims = reachable_oim(net, k0, cap)
            assert len(oims) < 10_000_000  # terminated, hence finite


def test_criterion_8_witness_validity(fig1_net, parallel_choice_net):
    with criterion(8, "every verdict ships a checkable witness or refutation"):
        pairs = [(net, m1, m2) for net, m1, m2 in random_corpus(60)]
        pairs += [
            (fig1_net, Multiset.of("s1"), Multiset.of("s3")),
            (parallel_choice_net, Multiset.of("p1", "p2"), Multiset.of("q0")),
        ]
        for net, m1, m2 in pairs:
            for flavor, decide in (("fc", decide_oim), ("cn", decide_oimc)):
                verdict = decide(net, m1, m2, 4)
                root = initial_triple(m1, m2)
                if verdict.outcome == "equivalent":
                    assert verdict.witness is not None
                    assert validate_witness(net, verdict.witness, root, flavor)
                else:
                    assert verdict.outcome == "not-equivalent"
                    assert verdict.refutation is not None
                    assert verdict.refutation.triple == root
                    assert validate_refutation(net, verdict.refutation, flavor)
