"""Certificates decoded on first read: a fc/cn verdict keeps its search's
int certificate and the net's graph, and decodes it when `witness` or
`refutation` is first read, once, whatever its `outcome` says by then."""

import gc
import sys
import threading
import time
import weakref

import pytest

from netbisim import (
    decide_interleaving, decide_oim, decide_oimc, format_refutation,
    format_witness, oracle_game,
)
from netbisim import certificates

from test_engine import alarm_pair, buffer, ring

DECIDERS = {"fc": decide_oim, "cn": decide_oimc}


def cases():
    """(name, net, m1, m2, cap, the certificate a verdict ships)."""
    buf, m0 = buffer(3)
    pair, left, right = alarm_pair(3, 2)
    return [("buf3", buf, m0, m0, 3, "witness"),
            ("ring450", *ring(450), 1, "witness"),
            ("pair3_2", pair, left, right, 3, "refutation")]


CASES = cases()
IDS = [c[0] for c in CASES]


def fresh(net):
    return type(net).make(net.places, net.transitions, net.labels)


def text(certificate) -> str:
    if isinstance(certificate, certificates.Refutation):
        return format_refutation(certificate)
    return format_witness(certificate)


@pytest.mark.parametrize("flavor", sorted(DECIDERS))
@pytest.mark.parametrize("name,net,m1,m2,cap,kind", CASES, ids=IDS)
def test_nothing_is_decoded_until_the_certificate_is_read(
        name, net, m1, m2, cap, kind, flavor):
    """A decision decodes no marking; the first read of its certificate
    does, and every later read returns the same object."""
    net = fresh(net)
    v = DECIDERS[flavor](net, m1, m2, cap)
    assert net.oim_graph.decoded == {}
    first = getattr(v, kind)
    assert first is not None and net.oim_graph.decoded
    assert getattr(v, kind) is first
    other = "refutation" if kind == "witness" else "witness"
    assert getattr(v, other) is None


@pytest.mark.parametrize("name,net,m1,m2,cap,kind", CASES, ids=IDS)
def test_reassigned_outcome_changes_nothing_decoded(name, net, m1, m2, cap,
                                                    kind):
    """A verdict whose outcome is flipped before its certificate is read
    decodes the certificate its search returned, with the same text as an
    untouched verdict's."""
    flip = {"equivalent": "not-equivalent", "not-equivalent": "equivalent"}
    want = decide_oim(fresh(net), m1, m2, cap)
    v = decide_oim(fresh(net), m1, m2, cap)
    v.outcome = flip[v.outcome]
    assert getattr(v, kind) is not None
    assert text(getattr(v, kind)) == text(getattr(want, kind))
    assert (v.witness is None) == (want.witness is None)
    assert (v.refutation is None) == (want.refutation is None)


@pytest.mark.parametrize("name,net,m1,m2,cap,kind", CASES, ids=IDS)
def test_threads_reading_one_verdict_get_one_object(name, net, m1, m2, cap,
                                                    kind, monkeypatch):
    """Four threads read a fresh verdict's certificate at once, with each
    decoded triple slowed: one decodes it, and all get that object."""
    v = decide_oim(fresh(net), m1, m2, cap)
    decode = certificates.decode_triple
    decoded = []

    def slow(graph, t):
        time.sleep(0.0001)
        decoded.append(t)
        return decode(graph, t)

    monkeypatch.setattr(certificates, "decode_triple", slow)
    workers = 4
    start = threading.Barrier(workers, timeout=60)
    got, failures = [], []

    def work():
        try:
            start.wait()
            got.append(getattr(v, kind))
        except Exception as exc:  # reported by the main thread
            failures.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work) for _ in range(workers)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert failures == []
    assert len(got) == workers and all(x is got[0] for x in got)
    assert len(decoded) == len(set(decoded))
    assert text(got[0]) == text(getattr(decide_oim(fresh(net), m1, m2, cap),
                                        kind))


def test_a_read_verdict_lets_the_graph_go():
    """An unread verdict keeps the net's graph; once read, it keeps only
    its certificate, so reference counting frees the graph with the
    net."""
    net, m0 = buffer(3)
    v = decide_oim(net, m0, m0, 3)
    graph = weakref.ref(net.oim_graph)
    enabled = gc.isenabled()
    gc.disable()
    try:
        del net
        assert graph() is not None
        witness = v.witness
        assert graph() is None
        assert v.witness is witness
    finally:
        if enabled:
            gc.enable()


def test_oracle_and_interleaving_verdicts_ship_no_certificate():
    net, m1, m2 = alarm_pair(2, 1)
    for v in (decide_interleaving(net, m1, m2, 2),
              decide_interleaving(net, m1, m1, 2),
              oracle_game(net, m1, m2, "fc", 3),
              oracle_game(net, m1, m1, "cn", 3)):
        assert v.witness is None and v.refutation is None
