"""Text format for nets and markings, plus DOT exporters.

Grammar (one directive per line):

    net <name>
    places <id> <id> ...
    trans <id> <label> : <term> [+ <term>]* -> 0 | <term> [+ <term>]*
    marking <name> : <term> [+ <term>]*

where <term> ::= [<nat> *] <place> and ids match [A-Za-z_][A-Za-z0-9_]*.
`#` starts a comment.  Only spaces and tabs separate tokens, also around a
count's `*` and a lone `0`; `:`, `+`, `*` and `->` need no space around
them, and any other run of characters, other whitespace included, is one
token.  A count <nat> is ASCII digits; `0` alone is the empty multiset.

There is no label directive: a parsed net's labels are those its
transitions carry, so format_net drops a declared label that no transition
uses.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .indexed import token_text, tokens_text
from .nets import Multiset, PTNet, Transition
from .ordered import OrderedIndexedMarking

# A token, as above.  Each pattern matches wherever it starts: an empty
# group marks where a token, `:` or `+` was expected and not found.
_TOK = r"([^ \t:+*-]*(?:-(?!>)[^ \t:+*-]*)*)"
_WORD = re.compile(r"[ \t]*" + _TOK)
# A line's first three tokens and the `:` after them (a marking's follows
# its name, where the third token is empty).
_HEAD = re.compile(_WORD.pattern * 3 + r"[ \t]*(:?)")
# A term's count, place and `+`.
_TERM = re.compile(
    r"[ \t]*(?:([0-9]+)[ \t]*\*[ \t]*)?" + _TOK + r"[ \t]*(\+?)")
# A lone `0`, or `->` where a term list is empty, or its first term.
_FIRST_TERM = re.compile(
    r"([ \t]*0[ \t]*(?:->|\Z))|([ \t]*->)|" + _TERM.pattern)


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


def _token(m: re.Match, g: int, number: int, what: str = "") -> str:
    """Group g of m, a token; an identifier if `what` names one."""
    tok = m.group(g)
    if not tok:
        raise ParseError(number, m.start(g) + 1, "expected a token")
    if what and not (tok.isascii() and tok.isidentifier()):
        raise ParseError(number, m.end(g) + 1, f"bad {what} {tok!r}")
    return tok


def _terms(s: str, pos: int, number: int, places: set[str],
           tid: str | None = None) -> tuple[Multiset, int]:
    """`0` alone or a +-separated list of [nat*]place terms at pos, and the
    offset past the `0` or past the list and the spaces after it.  tid
    names the transition whose preset the list is: that may not be empty,
    and an empty one that starts with `->` is reported at pos."""
    m = _FIRST_TERM.match(s, pos)
    zero, arrow = m.group(1, 2)
    acc: dict[str, int] = {}
    if zero:
        end = s.index("0", pos) + 1
    elif arrow and tid is not None:
        end = pos
    else:
        m, g = (_TERM.match(s, pos), 1) if arrow else (m, 3)
        while True:
            count, place, plus = m.group(g, g + 1, g + 2)
            if place not in places:  # declared places are identifiers
                _token(m, g + 1, number, "place")
                raise ParseError(number, m.end(g + 1) + 1,
                                 f"undeclared place {place!r}")
            n = int(count) if count else 1
            if n:
                acc[place] = acc.get(place, 0) + n
            if not plus:
                break
            m, g = _TERM.match(s, m.end()), 1
        end = m.end()
    if tid is not None and not acc:
        raise ParseError(number, end + 1,
                         f"transition {tid!r} has an empty preset")
    return Multiset._sorted(
        dict(sorted(acc.items())) if len(acc) > 1 else acc), end


def parse_net(text: str) -> NetDocument:
    name = None
    places: list[str] = []
    place_set: set[str] = set()
    transitions: list[Transition] = []
    tids: set[str] = set()
    markings: dict[str, Multiset] = {}

    for number, raw in enumerate(text.splitlines(), start=1):
        s = raw.partition("#")[0]
        if not s.strip():
            continue
        m = _HEAD.match(s)
        keyword = m.group(1)
        if keyword == "trans":
            tid = _token(m, 2, number, "transition id")
            if tid in tids:
                raise ParseError(number, m.end(2) + 1,
                                 f"duplicate transition id {tid!r}")
            label = _token(m, 3, number, "label")
            if not m.group(4):
                raise ParseError(number, m.start(4) + 1, "expected ':'")
            pre, pos = _terms(s, m.end(), number, place_set, tid)
            if not s.startswith("->", pos):
                raise ParseError(number, pos + 1, "expected '->'")
            post, pos = _terms(s, pos + 2, number, place_set)
            transitions.append(Transition(tid, label, pre, post))
            tids.add(tid)
        elif keyword == "places":
            for m in _WORD.finditer(s, m.end(1)):
                if m.start(1) == len(s):
                    break
                p = _token(m, 1, number, "place")
                if p in place_set:
                    raise ParseError(number, m.end(1) + 1,
                                     f"duplicate place {p!r}")
                places.append(p)
                place_set.add(p)
            pos = m.end()
        elif keyword == "marking":
            mname = _token(m, 2, number, "marking name")
            if mname in markings:
                raise ParseError(number, m.end(2) + 1,
                                 f"duplicate marking {mname!r}")
            if m.group(3) or not m.group(4):
                raise ParseError(number, m.start(3) + 1, "expected ':'")
            markings[mname], pos = _terms(s, m.end(), number, place_set)
        elif keyword == "net":
            if name is not None:
                raise ParseError(number, m.end(1) + 1,
                                 "duplicate net directive")
            name, pos = _token(m, 2, number, "net name"), m.end(2)
        else:
            _token(m, 1, number)
            raise ParseError(number, m.end(1) + 1,
                             f"unknown directive {keyword!r}")
        pos = _WORD.match(s, pos).start(1)  # the next token
        if pos < len(s):
            raise ParseError(number, pos + 1, "trailing input")

    if name is None:
        raise ParseError(1, 1, "missing net directive")
    return NetDocument(name, PTNet.make(places, transitions), markings)


def format_net(doc: NetDocument) -> str:
    lines = [f"net {doc.name}"]
    if doc.net.places:
        lines.append("places " + " ".join(doc.net.places))
    for t in doc.net.transitions:
        lines.append(f"trans {t.tid} {t.label} : {t.pre!r} -> {t.post!r}")
    for mname, m in doc.markings.items():
        lines.append(f"marking {mname} : {m!r}")
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


def _hasse(order: frozenset, tokens: frozenset) -> list:
    strict = {(a, b) for a, b in order if a != b and (b, a) not in order}
    covers = [
        (a, b) for a, b in strict
        if not any((a, c) in strict and (c, b) in strict for c in tokens)
    ]
    return sorted(covers)


def _oim_label(o: OrderedIndexedMarking) -> str:
    toks = tokens_text(o.tokens)
    hasse = _hasse(o.order, o.tokens)
    rel = " ".join(f"{token_text(a)}<{token_text(b)}" for a, b in hasse)
    return f"{toks}\\n{rel}" if rel else toks


def _export_steps_dot(name: str, states, steps, label, key) -> str:
    """Nodes numbered in the order of (label, key), so that states sharing
    a label still number the same whatever order they come in; one edge
    per step."""
    labels = {x: label(x) for x in states}
    index = {x: i for i, x in enumerate(
        sorted(labels, key=lambda x: (labels[x], key(x))))}
    lines = [f"digraph {name} {{"]
    for x, i in index.items():
        lines.append(f"  n{i} [label={_q(labels[x])}];")
    rendered = sorted(
        (index[x], index[step.target],
         f"{step.tid} -{{{tokens_text(step.removed)}}}")
        for x, step in steps
    )
    for src, dst, lbl in rendered:
        lines.append(f"  n{src} -> n{dst} [label={_q(lbl)}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def export_im_dot(ims, steps) -> str:
    """ims: iterable of IndexedMarking; steps: (im, IMStep)."""
    return _export_steps_dot("im", ims, steps, tokens_text, sorted)


def export_oim_dot(oims, steps) -> str:
    """oims: iterable of OrderedIndexedMarking; steps: (oim, OIMStep).
    The Hasse label drops classes of mutually ordered tokens, so distinct
    markings can share one; their sorted tokens, then their sorted
    order, tell them apart."""
    return _export_steps_dot("oim", oims, steps, _oim_label, lambda o: (
        sorted(o.tokens), sorted(o.order)))

