import pytest

from netbisim import Multiset, initial_indexed

from processes import (
    InvalidDeltaError, _nat, empty_process, event_leq, event_order,
    process_extensions, ps_init, ps_step, ps_successors, step_assignments,
)


def step_by(ps, tid, deleted, assignment_pick=None):
    """Extend ps by the tid-event whose preset folds onto `deleted`,
    using the sorted (trivial) fresh-token assignment unless told otherwise."""
    net = ps.process.net
    delta = ps.delta_map
    for ext in process_extensions(net, ps.process):
        if ext.tid != tid:
            continue
        if frozenset(delta[b] for b in ext.preset) != frozenset(deleted):
            continue
        options = step_assignments(ps, ext)
        if assignment_pick is None:
            created = sorted(options[0].values())
            chosen = dict(zip(sorted(ext.new_conditions, key=_nat), created))
        else:
            chosen = assignment_pick(options)
        return ps_step(ps, ext, chosen)
    raise AssertionError(f"no {tid} step deleting {deleted}")


def test_empty_process_shape(fig2_m0, fig2_net):
    p = empty_process(fig2_net, fig2_m0)
    assert p.minimal == p.maximal == frozenset({"b1", "b2", "b3", "b4"})
    assert p.fold(p.maximal) == fig2_m0
    assert p.event_seq == ()


def test_extensions_enumerate_preset_choices(fig2_net, fig2_m0):
    p = empty_process(fig2_net, fig2_m0)
    exts = process_extensions(fig2_net, p)
    # one u-extension (single s1 condition) and three v-extensions
    assert sorted(e.tid for e in exts) == ["t1", "t2", "t2", "t2"]
    presets = {e.preset for e in exts if e.tid == "t2"}
    assert len(presets) == 3


def test_event_order_reflexive_transitive(fig2_net, fig2_m0):
    ps = ps_init(fig2_net, initial_indexed(fig2_m0))
    # u forks two tokens, then v consumes one of them: causally ordered
    ps = step_by(ps, "t1", {("s1", 1)})
    first = ps.trace[-1]
    ps = step_by(ps, "t2", {("s2", 4)})
    second = ps.trace[-1]
    p = ps.process
    assert event_leq(p, first, first)
    assert event_leq(p, first, second)
    assert not event_leq(p, second, first)
    order = event_order(p)
    assert (first, second) in order and (second, first) not in order


def test_concurrent_events_unordered(fig2_net, fig2_m0):
    ps = ps_init(fig2_net, initial_indexed(fig2_m0))
    ps = step_by(ps, "t1", {("s1", 1)})
    ps = step_by(ps, "t2", {("s2", 2)})  # an initial token, not a forked one
    e1, e2 = ps.trace
    p = ps.process
    assert not event_leq(p, e1, e2)
    assert not event_leq(p, e2, e1)


def test_isomorphic_processes_distinct_markings(fig2_net, fig2_m0):
    """The same (isomorphic) process run in two event orders lands on
    different indexed markings, distinguished only by delta."""
    k0 = initial_indexed(fig2_m0)
    # u first: consumes (s1,1), creates (s2,4),(s2,5); then v eats (s2,2)
    ps = ps_init(fig2_net, k0)
    ps = step_by(ps, "t1", {("s1", 1)})
    ps = step_by(ps, "t2", {("s2", 2)})
    assert set(ps.delta_map.values()) == {
        ("s2", 1), ("s2", 3), ("s2", 4), ("s2", 5), ("s3", 1)
    }
    # v first: eats (s2,2); then u creates (s2,2),(s2,4) filling the hole
    ps2 = ps_init(fig2_net, k0)
    ps2 = step_by(ps2, "t2", {("s2", 2)})
    ps2 = step_by(ps2, "t1", {("s1", 1)})
    assert set(ps2.delta_map.values()) == {
        ("s2", 1), ("s2", 2), ("s2", 3), ("s2", 4), ("s3", 1)
    }
    assert ps.oim.tokens != ps2.oim.tokens


def test_custom_delta0_changes_final_marking(fig2_net, fig2_m0):
    """Swapping which condition carries (s2,2) changes the outcome of the
    same abstract run."""
    k0 = initial_indexed(fig2_m0)
    delta0 = {
        "b1": ("s1", 1), "b2": ("s2", 1), "b3": ("s2", 3), "b4": ("s2", 2),
    }
    ps = ps_init(fig2_net, k0, delta0)
    ps = step_by(ps, "t1", {("s1", 1)})
    ps = step_by(ps, "t2", {("s2", 3)})
    assert set(ps.delta_map.values()) == {
        ("s2", 1), ("s2", 2), ("s2", 4), ("s2", 5), ("s3", 1)
    }


def test_ps_init_validates_delta(fig2_net, fig2_m0):
    k0 = initial_indexed(fig2_m0)
    with pytest.raises(InvalidDeltaError):
        ps_init(fig2_net, k0, {"b1": ("s1", 1)})  # domain too small
    with pytest.raises(InvalidDeltaError):
        ps_init(fig2_net, k0, {
            "b1": ("s2", 1), "b2": ("s1", 1), "b3": ("s2", 2), "b4": ("s2", 3),
        })  # not place-respecting


def test_ps_step_validates_assignment(fig2_net, fig2_m0):
    ps = ps_init(fig2_net, initial_indexed(fig2_m0))
    ext = next(e for e in process_extensions(fig2_net, ps.process)
               if e.tid == "t1")
    with pytest.raises(InvalidDeltaError):
        ps_step(ps, ext, {})
    with pytest.raises(InvalidDeltaError):
        ps_step(ps, ext, {b: ("s3", 9) for b in ext.new_conditions})


def test_ps_successors_cover_all_assignments(fig2_net, fig2_m0):
    ps = ps_init(fig2_net, initial_indexed(fig2_m0))
    succs = list(ps_successors(ps))
    # t1 has 2 place-respecting assignments for its two s2 tokens,
    # t2 has 3 preset choices with 1 assignment each
    assert sum(1 for ext, _, _ in succs if ext.tid == "t1") == 2
    assert sum(1 for ext, _, _ in succs if ext.tid == "t2") == 3
