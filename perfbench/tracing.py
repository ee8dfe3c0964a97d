"""Spans around netbisim's public functions, kept in memory.

`Tracer.install` replaces each traced function at every netbisim module
attribute that holds it (for example `netbisim.indexed.enabled` as well as
`netbisim.nets.enabled`), so the span wraps the call wherever the caller
resolves the name.  A span records its name, start, end, parent and the
instance it belongs to.  Counts that need a call's result (markings
explored, triples, rejected defender checks) are taken by the same
wrapper.
"""

from __future__ import annotations

import sys
from array import array
from collections import Counter
from time import perf_counter_ns

# Span fields, stored flat: FIELDS ints per span in one array('q').
NAME, PARENT, INSTANCE, START, END = range(5)
FIELDS = 5


def _count_markings(counts, result):
    counts["nets.reachable.markings"] += len(result.markings)


def _count_search(counts, verdict):
    counts["engine.triples"] += verdict.stats.get("triples", 0)
    counts["engine.passes"] += verdict.stats.get("passes", 0)


def _count_rejected(counts, ok):
    counts["engine.deleted_condition.rejected"] += not ok


def _count_states(counts, verdict):
    counts["oracle.states"] += verdict.stats.get("states", 0)


# (module, function, result counter): the public functions on the decider
# paths.  `processes` and `cli` are on none of them.
TRACED = (
    ("nets", "enabled", None),
    ("nets", "reachable", _count_markings),
    ("indexed", "im_successors", None),
    ("indexed", "boxminus", None),
    ("indexed", "boxplus", None),
    ("ordered", "oim_successors", None),
    ("engine", "decide_oim", _count_search),
    ("engine", "decide_oimc", _count_search),
    ("engine", "decide_interleaving", None),
    ("engine", "deleted_condition_fc", _count_rejected),
    ("engine", "deleted_condition_cn", _count_rejected),
    ("engine", "beta_update", None),
    ("engine", "validate_witness", None),
    ("engine", "validate_refutation", None),
    ("engine", "format_witness", None),
    ("engine", "format_refutation", None),
    ("oracle", "oracle_game", _count_states),
    ("netio", "parse_net", None),
    ("randnets", "corpus", None),
)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans = array("q")
        self.stack: list[int] = []
        self.instances: list[str] = []
        self.instance = -1
        self.counts: Counter = Counter()
        self._installed: list[tuple] = []

    def __len__(self) -> int:
        return len(self.spans) // FIELDS

    def set_instance(self, iid: str) -> None:
        self.instance = len(self.instances)
        self.instances.append(iid)

    def wrap(self, name: str, fn, count=None):
        nid = len(self.names)
        self.names.append(name)
        spans, stack, counts = self.spans, self.stack, self.counts

        def traced(*args, **kwargs):
            idx = len(spans) // FIELDS
            # One extend per span start, so an interrupt cannot leave a
            # half-written record.
            spans.extend((nid, stack[-1] if stack else -1, self.instance,
                          perf_counter_ns(), 0))
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx * FIELDS + END] = perf_counter_ns()
                stack.pop()
            if count is not None:
                count(counts, result)
            return result

        return traced

    def install(self, package) -> None:
        """Wrap every TRACED function of the imported `package`."""
        modules = [m for name, m in sys.modules.items()
                   if name == package.__name__
                   or name.startswith(package.__name__ + ".")]
        for modname, fname, count in TRACED:
            original = getattr(getattr(package, modname), fname)
            wrapper = self.wrap(f"{modname}.{fname}", original, count)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._installed.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()

    def self_times(self, first: int = 0, last: int | None = None) -> dict:
        """name -> (calls, self seconds, total seconds) over spans
        [first, last).  Self time is a span's duration minus the time its
        child spans cover; spans left open by an interrupt are skipped."""
        last = len(self) if last is None else last
        spans = self.spans
        child = {}
        for i in range(first, last):
            base = i * FIELDS
            end = spans[base + END]
            parent = spans[base + PARENT]
            if end and parent >= first:
                child[parent] = child.get(parent, 0) + end - spans[base + START]
        out: dict[str, list] = {}
        for i in range(first, last):
            base = i * FIELDS
            end = spans[base + END]
            if not end:
                continue
            dur = end - spans[base + START]
            row = out.setdefault(self.names[spans[base + NAME]], [0, 0, 0])
            row[0] += 1
            row[1] += (dur - child.get(i, 0)) / 1e9
            row[2] += dur / 1e9
        return {name: tuple(row) for name, row in out.items()}

    def inclusive_within(self, child: str, parents: tuple, first: int,
                         last: int) -> float:
        """Seconds spent in `child` spans whose parent is one of `parents`."""
        spans = self.spans
        ids = {i for i, n in enumerate(self.names) if n in parents}
        cid = {i for i, n in enumerate(self.names) if n == child}
        total = 0
        for i in range(first, last):
            base = i * FIELDS
            parent = spans[base + PARENT]
            if (spans[base + NAME] in cid and spans[base + END]
                    and parent >= first
                    and spans[parent * FIELDS + NAME] in ids):
                total += spans[base + END] - spans[base + START]
        return total / 1e9

    def write(self, path) -> None:
        """Tab-separated, one line per span: id, parent (-1 for none), name
        id, instance id, start and end in ns after the first span's start
        (end -1: left open).  `#` lines give the name and instance ids."""
        spans = self.spans
        t0 = spans[START] if len(spans) else 0
        with open(path, "w") as out:
            for i, name in enumerate(self.names):
                out.write(f"# name\t{i}\t{name}\n")
            for i, iid in enumerate(self.instances):
                out.write(f"# instance\t{i}\t{iid}\n")
            out.write("# span\tparent\tname\tinstance\tstart_ns\tend_ns\n")
            for i in range(len(self)):
                base = i * FIELDS
                end = spans[base + END]
                out.write(
                    f"{i}\t{spans[base + PARENT]}\t{spans[base + NAME]}\t"
                    f"{spans[base + INSTANCE]}\t{spans[base + START] - t0}\t"
                    f"{end - t0 if end else -1}\n"
                )
