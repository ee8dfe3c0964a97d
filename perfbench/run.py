#!/usr/bin/env python3
"""netbisim benchmark: decide, certify and render, as a verification user does.

    python3 perfbench/run.py --workload witness --seed 1 --seconds 20 --trace 0

One process runs one workload as a closed loop: a single caller, no
threads, each call starting when the previous one returned.  Set-up
imports `netbisim` from `src/` and builds the workload's inputs; it is
repeated and its median reported.  Then the workload's instances are run
in passes until `--seconds` have gone by (with a minimum number of passes,
so that the tail percentile has at least ten samples beyond it), each pass
on fresh copies of the nets (see `Runner.run_pass`).  Every verdict and
certificate is checked; a wrong verdict, a rejected certificate or a
triple count above its baseline aborts the run with exit code 1 and no
result.  After the passes, the probes for known defects run once, each
under its own deadline.

The host's speed drifts, so a short reference computation is timed
between the calls, and every reported time is scaled to the reference
speed (see `SpeedMeter`).  The measured, unscaled pass times are printed
too.

`--trace 0` reports the end-to-end metrics.  `--trace 1` first runs
untraced passes for half the time, then wraps netbisim's public functions
in spans for the other half, reports the per-layer metrics and the tracing
overhead, and writes the spans to `.bench_out/`.  The last line of
standard output is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import bisect
import importlib
import json
import math
import resource
import signal
import statistics
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import workloads
from tracing import Tracer
from workloads import DEFINITE, EQ, ENGINE_FLAVORS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_REPEATS = 9
CALL_DEADLINE_S = 10.0
TAIL_SAMPLES = 10
MIN_PASSES = 3
REF_ITERATIONS = 1000
REF_INTERVAL_S = 0.05
REF_WINDOW_S = 0.25
SHORT_INSTANCE_S = 0.05
INSTANCE_ROUNDS = 5
REF_NOMINAL_S = 0.0015
KINDS = ("check", "certify", "render")

DECIDERS = {"fc": "decide_oim", "cn": "decide_oimc", "il": "decide_interleaving"}
LAYER_MODULES = ("nets", "indexed", "ordered", "engine", "oracle")

END_TO_END_UNITS = {
    "setup_s": "s", "wall_s": "s", "check_p50_s": "s", "check_tail_s": "s",
    "certify_s": "s", "render_s": "s", "completed_frac": "ratio",
    "decided_frac": "ratio", "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    "nets.enabled.calls": "count", "nets.enabled.self_s": "s",
    "nets.reachable.self_s": "s", "nets.reachable.markings": "count",
    "indexed.im_successors.calls": "count",
    "indexed.im_successors.self_s": "s", "indexed.boxminus.self_s": "s",
    "indexed.boxplus.self_s": "s",
    "ordered.oim_successors.calls": "count",
    "ordered.oim_successors.self_s": "s",
    "ordered.oim_successors.per_triple": "ratio",
    "engine.triples": "count", "engine.passes": "count",
    "engine.triples_per_s": "1/s", "engine.search.self_s": "s",
    "engine.deleted_condition.calls": "count",
    "engine.deleted_condition.rejected_ratio": "ratio",
    "engine.beta_update.calls": "count", "engine.beta_update.self_s": "s",
    "engine.validate.self_s": "s", "engine.render.self_s": "s",
    "oracle.oracle_game.self_s": "s", "oracle.states": "count",
    "oracle.states_per_s": "1/s",
    "netio.parse_net.self_s": "s", "randnets.corpus.self_s": "s",
    **{f"{m}.self_share": "ratio" for m in LAYER_MODULES},
    "trace.overhead_s": "s", "trace.overhead_frac": "ratio",
    "trace.spans": "count",
}


class GateError(Exception):
    """A verdict, certificate or count differs from what is expected."""


class Deadline(BaseException):
    """The per-call deadline fired.  A BaseException, so that no handler
    inside the library swallows it."""


def _on_alarm(signum, frame):
    raise Deadline


def timed_call(deadline: float, fn, *args):
    """(result, seconds, error); error is None unless fn raised or overran.

    The alarm is disarmed inside the outer `try`, so an alarm that fires
    while fn returns or raises is still caught here."""
    t0 = t1 = perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, deadline)
        try:
            t0 = perf_counter()
            result = fn(*args)
            t1 = perf_counter()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except Deadline:
        return None, perf_counter() - t0, f"overran {deadline:g} s"
    except Exception as exc:  # counted as a failed call, not fatal
        return None, perf_counter() - t0, f"{type(exc).__name__}: {exc}"[:200]
    return result, t1 - t0, None


def import_netbisim():
    """A fresh import of netbisim from this checkout's src/."""
    for name in [n for n in sys.modules
                 if n == "netbisim" or n.startswith("netbisim.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    nb = importlib.import_module("netbisim")
    if not Path(nb.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"netbisim was imported from {nb.__file__}, not {SRC}")
    return nb


def reference_work() -> int:
    """Fixed pure-Python work of the kind netbisim does (tuples,
    frozensets, dicts, sorting), timed to track the host's speed."""
    seen: dict = {}
    for i in range(REF_ITERATIONS):
        key = frozenset((i % 7, j) for j in range(i % 5 + 1))
        seen[key] = seen.get(key, 0) + len(sorted(key))
    return len(seen)


class SpeedMeter:
    """Times `reference_work` every REF_INTERVAL_S of CPU time, from a
    SIGPROF handler, so that samples are taken during long calls too.

    The host's speed drifts by up to 1.7x, for seconds or whole runs at a
    time, and CPU time drifts with it.  Every reported time is therefore
    scaled to the reference speed: measured seconds, less the time spent
    sampling, times REF_NOMINAL_S over the mean reference time within
    REF_WINDOW_S of the measurement."""

    def __init__(self):
        self.ends: list[float] = []  # when each sample ended
        self.samples: list[float] = []  # how long it took
        self.spent = 0.0  # total time in samples

    def sample(self, signum=None, frame=None) -> None:
        t0 = perf_counter()
        reference_work()
        end = perf_counter()
        self.ends.append(end)
        self.samples.append(end - t0)
        self.spent += end - t0

    def start(self) -> None:
        signal.signal(signal.SIGPROF, self.sample)
        signal.setitimer(signal.ITIMER_PROF, REF_INTERVAL_S, REF_INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0)

    def scale(self, start: float, end: float) -> float:
        """The factor for a measurement made from `start` to `end`."""
        if not self.samples:
            self.sample()
        lo = bisect.bisect_left(self.ends, start - REF_WINDOW_S)
        hi = bisect.bisect_right(self.ends, end + REF_WINDOW_S)
        near = self.samples[max(0, min(lo, hi - 1)):max(hi, lo + 1)]
        return REF_NOMINAL_S / statistics.fmean(near)


def setup(name, seed, smallest, meter, tracer=None):
    """Import and build the inputs SETUP_REPEATS times; returns the last
    package and workload, the scaled set-up times, and per-repeat span
    ranges."""
    times, ranges = [], []
    for _ in range(SETUP_REPEATS):
        meter.sample()
        spent = meter.spent
        t0 = perf_counter()
        nb = import_netbisim()
        if tracer is not None:
            tracer.uninstall()
            tracer.install(nb)
            tracer.set_instance("setup")
            first = len(tracer)
        work = workloads.build(nb, name, seed, smallest)
        t1 = perf_counter()
        secs = t1 - t0 - (meter.spent - spent)
        meter.sample()
        scale = meter.scale(t0, t1)
        times.append(secs * scale)
        if tracer is not None:
            ranges.append((first, len(tracer), scale))
    return nb, work, times, ranges


@dataclass
class PassStats:
    # op id -> (kind, [(seconds, start, end), ...]), one sample per round
    samples: dict = field(default_factory=dict)
    # op id -> (kind, scaled seconds), the median of its samples
    times: dict = field(default_factory=dict)
    raw_seconds: float = 0.0  # timed calls, unscaled
    scale: float = 1.0  # SpeedMeter factor over the whole pass
    calls: int = 0
    failures: int = 0
    op_ids: set = field(default_factory=set)
    failed_ids: set = field(default_factory=set)
    decider_ids: set = field(default_factory=set)
    undecided_ids: set = field(default_factory=set)
    counts: dict = field(default_factory=dict)
    span_range: tuple = (0, 0)


class Runner:
    def __init__(self, nb, work, meter, tracer=None):
        self.nb = nb
        self.work = work
        self.meter = meter
        self.tracer = tracer
        self.reported: set = set()
        signal.signal(signal.SIGALRM, _on_alarm)

    def _timed(self, fn, args):
        """timed_call, less the time the speed meter spent sampling."""
        spent = self.meter.spent
        result, secs, err = timed_call(CALL_DEADLINE_S, fn, *args)
        return result, secs - (self.meter.spent - spent), err

    def _call(self, st, timed, op_id, kind, fn, *args):
        """Call fn once and record its time if the instance is timed."""
        st.op_ids.add(op_id)
        st.calls += 1
        start = perf_counter()
        result, secs, err = self._timed(fn, args)
        if err is not None:
            st.failures += 1
            st.failed_ids.add(op_id)
            if op_id not in self.reported:
                self.reported.add(op_id)
                print(f"failed: {op_id}: {err}", file=sys.stderr)
            return None
        if timed:
            st.samples.setdefault(op_id, (kind, []))[1].append(
                (secs, start, perf_counter()))
        return result

    def _decider(self, chk):
        engine = self.nb.engine
        if chk.flavor.startswith("oracle-"):
            flavor = chk.flavor.split("-", 1)[1]
            return (lambda net, m1, m2, cap:
                    self.nb.oracle.oracle_game(net, m1, m2, flavor, chk.depth))
        return getattr(engine, DECIDERS[chk.flavor])

    def _certificate(self, st, inst, op_id, chk, verdict):
        engine = self.nb.engine
        if verdict.outcome == EQ:
            k1 = self.nb.initial_indexed(inst.m1)
            k2 = self.nb.initial_indexed(inst.m2)
            root = self.nb.GameTriple(self.nb.init_oim(k1), self.nb.init_oim(k2),
                                      frozenset((a, b) for a in k1 for b in k2))
            validate = (engine.validate_witness, inst.net, verdict.witness,
                        root, chk.flavor)
            render = (engine.format_witness, verdict.witness)
        else:
            validate = (engine.validate_refutation, inst.net,
                        verdict.refutation, chk.flavor)
            render = (engine.format_refutation, verdict.refutation)
        if chk.certify:
            ok = self._call(st, inst.timed, f"{op_id}/certify", "certify",
                            *validate)
            if ok is False:
                raise GateError(f"{self.work.name} {op_id}: certificate "
                                f"rejected by {validate[0].__name__}")
        if chk.render:
            self._call(st, inst.timed, f"{op_id}/render", "render", *render)

    def run_pass(self) -> PassStats:
        """Every instance once, on fresh copies of its net and markings.  An
        untraced timed instance that took less than SHORT_INSTANCE_S is run
        again on new copies, INSTANCE_ROUNDS times in all, and each of its
        calls is timed by the median of its rounds.  Traced passes make one
        round, so that the layer counts of a pass do not depend on timing."""
        st = PassStats()
        tracer = self.tracer
        nb = self.nb
        instances = [workloads.fresh(nb, inst) for inst in self.work.instances]
        if tracer is not None:
            tracer.counts.clear()
            first = len(tracer)
        start = perf_counter()
        for inst in instances:
            if tracer is not None:
                tracer.set_instance(inst.iid)
            t0 = perf_counter()
            self._run_instance(st, inst)
            if (inst.timed and tracer is None
                    and perf_counter() - t0 < SHORT_INSTANCE_S):
                for _ in range(INSTANCE_ROUNDS - 1):
                    self._run_instance(st, workloads.fresh(nb, inst))
        if tracer is not None:
            st.counts = dict(tracer.counts)
            st.span_range = (first, len(tracer))
        meter = self.meter
        st.scale = meter.scale(start, perf_counter())
        for op_id, (kind, rounds) in st.samples.items():
            st.raw_seconds += statistics.median(secs for secs, _, _ in rounds)
            st.times[op_id] = (kind, statistics.median(
                secs * meter.scale(t0, t1) for secs, t0, t1 in rounds))
        return st

    def _run_instance(self, st, inst):
        outcomes = {}
        for chk in inst.checks:
            op_id = f"{inst.iid}/{chk.flavor}"
            verdict = self._call(st, inst.timed, op_id, "check",
                                 self._decider(chk), inst.net, inst.m1,
                                 inst.m2, inst.cap)
            if inst.timed:
                st.decider_ids.add(op_id)
                if verdict is None or verdict.outcome not in DEFINITE:
                    st.undecided_ids.add(op_id)
            if verdict is None:
                continue
            outcome = verdict.outcome
            outcomes[chk.flavor] = outcome
            if chk.expected is not None and outcome not in chk.expected:
                raise GateError(f"{self.work.name} {op_id}: verdict "
                                f"{outcome}, expected "
                                f"{' or '.join(sorted(chk.expected))}")
            triples = verdict.stats.get("triples", 0)
            if chk.triples is not None and not 1 <= triples <= chk.triples:
                raise GateError(f"{self.work.name} {op_id}: {triples} "
                                f"triples, expected at most {chk.triples}")
            if chk.flavor in ENGINE_FLAVORS and outcome in DEFINITE:
                self._certificate(st, inst, op_id, chk, verdict)
        self._agreement(inst, outcomes)

    def _agreement(self, inst, outcomes):
        """Engine/oracle agreement and the equivalence hierarchy."""
        for flavor in ENGINE_FLAVORS:
            oracle = outcomes.get(f"oracle-{flavor}")
            engine = outcomes.get(flavor)
            if oracle in DEFINITE and engine is not None and engine != oracle:
                raise GateError(f"{self.work.name} {inst.iid}/{flavor}: engine "
                                f"says {engine}, oracle says {oracle}")
        for finer, coarser in (("cn", "fc"), ("fc", "il")):
            if outcomes.get(finer) == EQ and outcomes.get(coarser) not in (None, EQ):
                raise GateError(f"{self.work.name} {inst.iid}: {finer} "
                                f"equivalent but {coarser} "
                                f"{outcomes[coarser]}")

    def run_probes(self):
        """name -> error or None.  Each probe runs once, untimed."""
        results = {}
        for probe in self.work.probes:
            prepared = probe.prepare()
            result, secs, err = timed_call(
                probe.deadline, probe.call, prepared, probe.deadline)
            if err is None and not probe.accept(result):
                if probe.decider and result in DEFINITE:
                    raise GateError(f"{self.work.name} probe {probe.name}: "
                                    f"wrong result {result!r}")
                err = f"returned {result!r}"
            results[probe.name] = err
            status = "ok" if err is None else f"FAILED ({err})"
            print(f"probe {probe.name}: {status} after {secs:.2f} s; "
                  f"defect: {probe.defect}")
        return results


def min_passes(work) -> int:
    """MIN_PASSES, or more if needed for TAIL_SAMPLES checks beyond the
    tail percentile."""
    per_pass = sum(len(i.checks) for i in work.instances if i.timed)
    beyond = per_pass * (1 - work.tail_pct / 100)
    return max(MIN_PASSES, math.ceil(TAIL_SAMPLES / beyond - 1e-9))


def run_passes(runner, seconds, least):
    """Passes until `seconds` are used, or at least `least` of them."""
    passes, durations = [], []
    t_start = perf_counter()
    while True:
        t0 = perf_counter()
        passes.append(runner.run_pass())
        durations.append(perf_counter() - t0)
        elapsed = perf_counter() - t_start
        if (len(passes) >= least
                and elapsed + statistics.median(durations) > seconds):
            print("pass seconds, measured / scaled: " + "  ".join(
                f"{st.raw_seconds:.3f}/"
                f"{sum(secs for _, secs in st.times.values()):.3f}"
                for st in passes))
            return passes


def percentile(values, pct):
    data = sorted(values)
    pos = (len(data) - 1) * pct / 100
    lo = math.floor(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def op_medians(passes) -> dict:
    """op id -> (kind, median seconds over the passes it succeeded in)."""
    samples: dict = {}
    for st in passes:
        for op_id, (kind, secs) in st.times.items():
            samples.setdefault(op_id, (kind, []))[1].append(secs)
    return {op_id: (kind, statistics.median(v))
            for op_id, (kind, v) in samples.items()}


def total(medians, *kinds) -> float:
    """One pass's time in calls of these kinds, each call at its median."""
    return sum(secs for kind, secs in medians.values() if kind in kinds)


def end_to_end(work, passes, setup_times, probe_errors, rss_mb):
    medians = op_medians(passes)
    checks = [secs for st in passes for kind, secs in st.times.values()
              if kind == "check"]
    check_medians = [secs for kind, secs in medians.values() if kind == "check"]
    op_ids = set().union(*(st.op_ids for st in passes))
    failed = set().union(*(st.failed_ids for st in passes))
    failed |= {name for name, err in probe_errors.items() if err is not None}
    deciders = set().union(*(st.decider_ids for st in passes))
    undecided = set().union(*(st.undecided_ids for st in passes))
    decider_probes = {p.name for p in work.probes if p.decider}
    undecided |= {n for n in decider_probes if probe_errors[n] is not None}
    deciders |= decider_probes
    tail = percentile(checks, work.tail_pct)
    beyond = sum(t > tail for t in checks)
    print(f"check_tail_s is p{work.tail_pct:g} of {len(checks)} calls, "
          f"{beyond} beyond it; {len(passes)} passes")
    return {
        "setup_s": statistics.median(setup_times),
        "wall_s": total(medians, *KINDS),
        "check_p50_s": statistics.median(check_medians),
        "check_tail_s": tail,
        "certify_s": total(medians, "certify"),
        "render_s": total(medians, "render"),
        "completed_frac": 1 - len(failed) / (len(op_ids) + len(work.probes)),
        "decided_frac": 1 - len(undecided) / len(deciders),
        "peak_rss_mb": rss_mb,
    }


def _layer_values(tracer, st):
    first, last = st.span_range
    own = tracer.self_times(first, last)
    counts = st.counts

    def calls(*names):
        return sum(own.get(n, (0, 0, 0))[0] for n in names)

    def self_s(*names):
        return st.scale * sum(own.get(n, (0, 0, 0))[1] for n in names)

    def total_s(*names):
        return st.scale * sum(own.get(n, (0, 0, 0))[2] for n in names)

    searches = ("engine.decide_oim", "engine.decide_oimc")
    triples = counts.get("engine.triples", 0)
    game_s = total_s(*searches) - st.scale * tracer.inclusive_within(
        "nets.reachable", searches, first, last)
    checks = calls("engine.deleted_condition_fc", "engine.deleted_condition_cn")
    states = counts.get("oracle.states", 0)
    all_self = sum(row[1] for row in own.values())
    values = {
        "nets.enabled.calls": calls("nets.enabled"),
        "nets.enabled.self_s": self_s("nets.enabled"),
        "nets.reachable.self_s": self_s("nets.reachable"),
        "nets.reachable.markings": counts.get("nets.reachable.markings", 0),
        "indexed.im_successors.calls": calls("indexed.im_successors"),
        "indexed.im_successors.self_s": self_s("indexed.im_successors"),
        "indexed.boxminus.self_s": self_s("indexed.boxminus"),
        "indexed.boxplus.self_s": self_s("indexed.boxplus"),
        "ordered.oim_successors.calls": calls("ordered.oim_successors"),
        "ordered.oim_successors.self_s": self_s("ordered.oim_successors"),
        "ordered.oim_successors.per_triple":
            calls("ordered.oim_successors") / triples if triples else 0.0,
        "engine.triples": triples,
        "engine.passes": counts.get("engine.passes", 0),
        "engine.triples_per_s": triples / game_s if game_s > 0 else 0.0,
        "engine.search.self_s": self_s(*searches),
        "engine.deleted_condition.calls": checks,
        "engine.deleted_condition.rejected_ratio":
            counts.get("engine.deleted_condition.rejected", 0) / checks
            if checks else 0.0,
        "engine.beta_update.calls": calls("engine.beta_update"),
        "engine.beta_update.self_s": self_s("engine.beta_update"),
        "engine.validate.self_s":
            self_s("engine.validate_witness", "engine.validate_refutation"),
        "engine.render.self_s":
            self_s("engine.format_witness", "engine.format_refutation"),
        "oracle.oracle_game.self_s": self_s("oracle.oracle_game"),
        "oracle.states": states,
        "oracle.states_per_s":
            states / total_s("oracle.oracle_game") if states else 0.0,
        "trace.spans": last - first,
    }
    for module in LAYER_MODULES:
        mine = sum(row[1] for name, row in own.items()
                   if name.startswith(module + "."))
        values[f"{module}.self_share"] = mine / all_self if all_self else 0.0
    return values


def per_layer(tracer, traced, untraced, setup_ranges):
    rows = [_layer_values(tracer, st) for st in traced]
    values = {name: statistics.median(r[name] for r in rows) for name in rows[0]}
    for name in ("netio.parse_net", "randnets.corpus"):
        values[f"{name}.self_s"] = statistics.median(
            scale * tracer.self_times(a, b).get(name, (0, 0, 0))[1]
            for a, b, scale in setup_ranges)
    plain = total(op_medians(untraced), *KINDS)
    overhead = total(op_medians(traced), *KINDS) - plain
    values["trace.overhead_s"] = overhead
    values["trace.overhead_frac"] = overhead / plain
    return values


def print_share_table(workload, values):
    print(f"self-time share by module, {workload} (traced passes); "
          f"tracing overhead {values['trace.overhead_s']:.4f} s "
          f"({100 * values['trace.overhead_frac']:.1f} % of wall_s)")
    for module in LAYER_MODULES:
        print(f"  {module:<10} {100 * values[f'{module}.self_share']:6.1f} %")


def measure(workload, seed, seconds, trace, smallest=False):
    """The result object of one run; raises GateError on a wrong result."""
    meter = SpeedMeter()
    meter.start()
    try:
        if not trace:
            nb, work, setup_times, _ = setup(workload, seed, smallest, meter)
            runner = Runner(nb, work, meter)
            passes = run_passes(runner, seconds, min_passes(work))
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            probe_errors = runner.run_probes()
            metrics = end_to_end(work, passes, setup_times, probe_errors, rss_mb)
            units = END_TO_END_UNITS
        else:
            tracer = Tracer()
            nb, work, _, setup_ranges = setup(workload, seed, smallest, meter,
                                              tracer)
            tracer.uninstall()
            runner = Runner(nb, work, meter)
            untraced = run_passes(runner, seconds / 2, 1)
            tracer.install(nb)
            runner.tracer = tracer
            traced = run_passes(runner, seconds / 2, 1)
            tracer.uninstall()
            passes = untraced + traced
            metrics = per_layer(tracer, traced, untraced, setup_ranges)
            units = PER_LAYER_UNITS
            print_share_table(workload, metrics)
            OUT.mkdir(exist_ok=True)
            path = OUT / f"spans-{workload}.tsv"
            tracer.write(path)
            print(f"{len(tracer)} spans written to {path.relative_to(ROOT)}")
    finally:
        meter.stop()
    print(f"host speed: reference work took {1e3 * statistics.median(meter.samples):.3f} "
          f"ms (median of {len(meter.samples)}); times are scaled to "
          f"{1e3 * REF_NOMINAL_S:g} ms")
    for name in units:
        print(f"{name:<42} {metrics[name]:>14.6g} {units[name]}")
    return {
        "correct": True,
        "attempted": sum(st.calls for st in passes),
        "failed": sum(st.failures for st in passes),
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smallest", action="store_true",
                    help="only the smallest size of each family (for the "
                         "benchmark's own test)")
    args = ap.parse_args(argv)
    try:
        result = measure(args.workload, args.seed, args.seconds, args.trace,
                         args.smallest)
    except ImportError as exc:
        print(f"cannot import netbisim from {SRC}: {exc}", file=sys.stderr)
        return 2
    except GateError as exc:
        print(f"correctness gate failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
