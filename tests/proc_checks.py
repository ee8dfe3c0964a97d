"""Shared checkers for the process-sequence theorems, used by both the
property tests and the acceptance suite."""

from netbisim import oim_successors
from netbisim.oracle import _attacks, _extend, _fc_inits, _places

from processes import _nat, event_order, process_extensions, ps_successors


def check_coherence(ps):
    """delta(b) <= delta(b') holds exactly when b is an initial-marking
    condition, or both conditions' producing events are causally ordered."""
    p = ps.process
    delta = ps.delta_map
    order = event_order(p)
    for b in p.maximal:
        for b2 in p.maximal:
            lhs = (delta[b], delta[b2]) in ps.oim.order
            minimal_case = p.cond_pre[b] is None and delta[b] in ps.k0
            eb, eb2 = p.cond_pre[b], p.cond_pre[b2]
            causal_case = (
                eb is not None and eb2 is not None and (eb, eb2) in order
            )
            assert lhs == (minimal_case or causal_case), (
                f"coherence violated at {b}->{delta[b]}, {b2}->{delta[b2]}"
            )


def check_one_step_correspondence(ps):
    """The ordered token game from ps.oim and the process moves from
    ps.process induce exactly the same (transition, removed, target) steps,
    and the oracle offers exactly the process moves as attacks."""
    net = ps.process.net
    oim_view = {
        (s.tid, s.removed, s.target) for s in oim_successors(net, ps.oim)
    }
    delta = ps.delta_map
    ps_view = {
        (ext.tid, frozenset(delta[b] for b in ext.preset), succ.oim)
        for ext, _, succ in ps_successors(ps)
    }
    assert oim_view == ps_view
    check_oracle_moves(ps.process)


def check_oracle_moves(p):
    """Replaying p's events into the oracle's game state for p paired with
    itself gives p's conditions and causal order, and each side's attacks
    are p's extensions, each preset once.  Condition b<n> is index n-1."""
    net = p.net
    index = {b: _nat(b)[1] - 1 for b in p.cond_place}
    events = {e: i for i, e in enumerate(p.event_seq)}
    m0 = p.fold(p.minimal)
    s = _fc_inits(m0, m0)[0]
    for e in p.event_seq:
        tid = p.event_trans[e]
        move = (tid, frozenset(index[b] for b in p.event_pre[e]),
                _places(net.transition(tid).post))
        s = _extend(s, 1, move, move)
    for b, i in index.items():
        cond = (events.get(p.cond_pre[b], -1), p.cond_place[b])
        assert s.conds1[i] == s.conds2[i] == cond
    order = event_order(p)
    assert s.anc == tuple(
        frozenset(events[a] for a, b in order if b == e) for e in p.event_seq
    )
    consumed = {index[b] for b, e in p.cond_post.items() if e is not None}
    assert s.consumed1 == s.consumed2 == consumed
    moves = sorted(
        (ext.tid, sorted(index[b] for b in ext.preset))
        for ext in process_extensions(net, p)
    )
    for side in (1, 2):
        attacks = sorted(
            (t.tid, sorted(preset)) for sd, t, preset in _attacks(net, s)
            if sd == side
        )
        assert attacks == moves


def check_minimality(ps):
    """Maximal conditions that are also minimal carry initial tokens that
    sit below every current token."""
    p = ps.process
    delta = ps.delta_map
    for b in p.maximal:
        if p.cond_pre[b] is not None:
            continue
        assert delta[b] in ps.k0
        for b2 in p.maximal:
            assert (delta[b], delta[b2]) in ps.oim.order


def check_preset_not_eq_pi(p):
    """If a postset condition of a new event e sits above the producer of
    an old maximal condition b, some preset condition of e already did."""
    net = p.net
    order = event_order(p)
    for ext in process_extensions(net, p):
        order2 = event_order(ext.process)
        for b in p.maximal:
            eb = p.cond_pre[b]
            if eb is None:
                continue
            if (eb, ext.eid) not in order2:
                continue
            assert any(
                p.cond_pre[b2] is not None and (eb, p.cond_pre[b2]) in order
                for b2 in ext.preset
            )
