"""Text format for nets and markings, plus DOT exporters.

Grammar (one directive per line, `#` starts a comment):

    net <name>
    places <id> <id> ...
    trans <id> <label> : <term> [+ <term>]* -> 0 | <term> [+ <term>]*
    marking <name> : <term> [+ <term>]*

where <term> ::= [<nat> *] <place> and ids match [A-Za-z_][A-Za-z0-9_]*.

There is no label directive: a parsed net's labels are those its
transitions carry, so format_net drops a declared label that no transition
uses.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .nets import Multiset, PTNet, Transition
from .ordered import OrderedIndexedMarking

_ID = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


class ParseError(ValueError):
    def __init__(self, line: int, col: int, msg: str):
        super().__init__(f"line {line}, column {col}: {msg}")
        self.line = line
        self.col = col


@dataclass(frozen=True)
class NetDocument:
    name: str
    net: PTNet
    markings: dict[str, Multiset] = field(default_factory=dict)

    def marking(self, name: str) -> Multiset:
        try:
            return self.markings[name]
        except KeyError:
            raise KeyError(f"no marking named {name!r}") from None


class _Line:
    def __init__(self, text: str, number: int):
        self.text = text
        self.number = number
        self.pos = 0

    def error(self, msg: str) -> ParseError:
        return ParseError(self.number, self.pos + 1, msg)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos] in " \t":
            self.pos += 1

    def at_end(self) -> bool:
        self.skip_ws()
        return self.pos >= len(self.text)

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def token(self) -> str:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text):
            ch = self.text[self.pos]
            if ch in " \t:+*" or self.text.startswith("->", self.pos):
                break
            self.pos += 1
        if self.pos == start:
            raise self.error("expected a token")
        return self.text[start:self.pos]

    def expect(self, lit: str):
        self.skip_ws()
        if not self.text.startswith(lit, self.pos):
            raise self.error(f"expected {lit!r}")
        self.pos += len(lit)


def _parse_ident(line: _Line, what: str) -> str:
    tok = line.token()
    if not _ID.match(tok):
        raise line.error(f"bad {what} {tok!r}")
    return tok


def _parse_terms(line: _Line, places: set[str]) -> Multiset:
    """`0` alone or a +-separated list of [nat*]place terms."""
    if re.match(r"\s*0\s*(->|\Z)", line.text[line.pos:]):
        line.expect("0")
        return Multiset()
    acc: dict[str, int] = {}
    while True:
        line.skip_ws()
        m = re.match(r"(\d+)\s*\*\s*", line.text[line.pos:])
        count = 1
        if m:
            count = int(m.group(1))
            line.pos += m.end()
        place = _parse_ident(line, "place")
        if place not in places:
            raise line.error(f"undeclared place {place!r}")
        acc[place] = acc.get(place, 0) + count
        if line.peek() != "+":
            break
        line.expect("+")
    return Multiset(acc)


def parse_net(text: str) -> NetDocument:
    name = None
    places: list[str] = []
    place_set: set[str] = set()
    transitions: list[Transition] = []
    tids: set[str] = set()
    markings: dict[str, Multiset] = {}

    for number, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0]
        if not stripped.strip():
            continue
        line = _Line(stripped, number)
        keyword = line.token()
        if keyword == "net":
            if name is not None:
                raise line.error("duplicate net directive")
            name = _parse_ident(line, "net name")
        elif keyword == "places":
            while not line.at_end():
                p = _parse_ident(line, "place")
                if p in place_set:
                    raise line.error(f"duplicate place {p!r}")
                places.append(p)
                place_set.add(p)
        elif keyword == "trans":
            tid = _parse_ident(line, "transition id")
            if tid in tids:
                raise line.error(f"duplicate transition id {tid!r}")
            label = _parse_ident(line, "label")
            line.expect(":")
            if line.text[line.pos:].lstrip().startswith("->"):
                raise line.error(f"transition {tid!r} has an empty preset")
            pre = _parse_terms(line, place_set)
            if not pre:
                raise line.error(f"transition {tid!r} has an empty preset")
            line.expect("->")
            post = _parse_terms(line, place_set)
            transitions.append(Transition(tid, label, pre, post))
            tids.add(tid)
        elif keyword == "marking":
            mname = _parse_ident(line, "marking name")
            if mname in markings:
                raise line.error(f"duplicate marking {mname!r}")
            line.expect(":")
            markings[mname] = _parse_terms(line, place_set)
        else:
            raise line.error(f"unknown directive {keyword!r}")
        if not line.at_end():
            raise line.error("trailing input")

    if name is None:
        raise ParseError(1, 1, "missing net directive")
    return NetDocument(name, PTNet.make(places, transitions), markings)


def _fmt_terms(m: Multiset) -> str:
    if not m:
        return "0"
    return " + ".join(p if n == 1 else f"{n}*{p}" for p, n in m.items())


def format_net(doc: NetDocument) -> str:
    lines = [f"net {doc.name}"]
    if doc.net.places:
        lines.append("places " + " ".join(doc.net.places))
    for t in doc.net.transitions:
        lines.append(
            f"trans {t.tid} {t.label} : {_fmt_terms(t.pre)} -> {_fmt_terms(t.post)}"
        )
    for mname, m in doc.markings.items():
        lines.append(f"marking {mname} : {_fmt_terms(m)}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# DOT export
# ---------------------------------------------------------------------------


def _q(s: str) -> str:
    return '"' + s.replace('"', r"\"") + '"'


def export_reachability_dot(markings, edges) -> str:
    """markings: iterable of Multiset; edges: iterable (m, tid, m')."""
    nodes = sorted({repr(m) for m in markings})
    lines = ["digraph reachability {"]
    for n in nodes:
        lines.append(f"  {_q(n)};")
    for m, tid, m2 in sorted(edges, key=lambda e: (repr(e[0]), e[1], repr(e[2]))):
        lines.append(f"  {_q(repr(m))} -> {_q(repr(m2))} [label={_q(tid)}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _tokens_label(k) -> str:
    return " ".join(f"({p},{i})" for p, i in sorted(k))


def _hasse(order: frozenset, tokens: frozenset) -> list:
    strict = {(a, b) for a, b in order if a != b and (b, a) not in order}
    covers = [
        (a, b) for a, b in strict
        if not any((a, c) in strict and (c, b) in strict for c in tokens)
    ]
    return sorted(covers)


def _oim_label(o: OrderedIndexedMarking) -> str:
    toks = _tokens_label(o.tokens)
    hasse = _hasse(o.order, o.tokens)
    rel = " ".join(f"({a[0]},{a[1]})<({b[0]},{b[1]})" for a, b in hasse)
    return f"{toks}\\n{rel}" if rel else toks


def _export_steps_dot(name: str, states, steps, label) -> str:
    """Nodes numbered in the order of their labels; one edge per step."""
    index = {x: i for i, x in enumerate(sorted(states, key=label))}
    lines = [f"digraph {name} {{"]
    for x, i in index.items():
        lines.append(f"  n{i} [label={_q(label(x))}];")
    rendered = sorted(
        (index[x], index[step.target],
         f"{step.tid} -{{{_tokens_label(step.removed)}}}")
        for x, step in steps
    )
    for src, dst, lbl in rendered:
        lines.append(f"  n{src} -> n{dst} [label={_q(lbl)}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def export_im_dot(ims, steps) -> str:
    """ims: iterable of IndexedMarking; steps: (im, IMStep)."""
    return _export_steps_dot("im", ims, steps, _tokens_label)


def export_oim_dot(oims, steps) -> str:
    """oims: iterable of OrderedIndexedMarking; steps: (oim, OIMStep)."""
    return _export_steps_dot("oim", oims, steps, _oim_label)

