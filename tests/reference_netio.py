"""The net text scanner as it was before `netbisim.netio.parse_net` moved
to compiled patterns, kept unchanged as a test-side reference: the
differential test in `test_netio` checks that both give equal documents
or raise `ParseError` at the same line and column with the same message.

Two differences are intended.  Here a count may use any Unicode decimal
digit (`\\d`), there only ASCII digits.  Here any whitespace may surround
a count's `*`, a lone `0` and an empty preset's `->`, there only spaces and
tabs separate tokens, so other whitespace is part of a token.
"""

from __future__ import annotations

import re

from netbisim.nets import Multiset, PTNet, Transition
from netbisim.netio import NetDocument, ParseError

_ID = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


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
