import random

import pytest
from hypothesis import given, settings, strategies as st

from netbisim import (
    Multiset, NetSystem, enabled, fire, initial_indexed, parse_net,
    format_net, random_instance, reachable, reachable_oim,
)
from netbisim.netio import NetDocument, ParseError
from netbisim.netio import export_oim_dot, export_reachability_dot
from netbisim.ordered import oim_successors

import reference_netio
from test_oracle import par

FIG2_TEXT = """\
# fork/join example
net fig2
places s1 s2 s3
trans t1 u : s1 -> 2*s2
trans t2 v : s2 -> s3
marking m0 : s1 + 3*s2
"""

FIG1_TEXT = """\
net fig1
places s1 s2 s3
trans t1 a : s1 -> s2
trans t4 a : s3 -> 0
marking m_s1 : s1
marking m_s3 : s3
"""


def test_parse_fig2():
    doc = parse_net(FIG2_TEXT)
    assert doc.name == "fig2"
    assert doc.net.places == ("s1", "s2", "s3")
    t1 = doc.net.transition("t1")
    assert t1.label == "u"
    assert t1.pre == Multiset.of("s1")
    assert t1.post == Multiset({"s2": 2})
    assert doc.markings["m0"] == Multiset({"s1": 1, "s2": 3})


def test_parse_empty_postset():
    doc = parse_net(FIG1_TEXT)
    assert doc.net.transition("t4").post == Multiset()


def test_empty_preset_rejected():
    with pytest.raises(ParseError) as exc:
        parse_net("net n\nplaces s1\ntrans t x : -> s1\n")
    assert exc.value.line == 3
    with pytest.raises(ParseError):
        parse_net("net n\nplaces s1\ntrans t x : 0 -> s1\n")


def test_undeclared_place_rejected():
    with pytest.raises(ParseError) as exc:
        parse_net("net n\nplaces s1\ntrans t x : s9 -> s1\n")
    assert "undeclared place" in str(exc.value)
    assert exc.value.line == 3


def test_duplicate_ids_rejected():
    base = "net n\nplaces s1\n"
    with pytest.raises(ParseError):
        parse_net(base + "trans t x : s1 -> s1\ntrans t y : s1 -> s1\n")
    with pytest.raises(ParseError):
        parse_net("net n\nplaces s1 s1\n")
    with pytest.raises(ParseError):
        parse_net(base + "marking m : s1\nmarking m : s1\n")


def test_syntax_errors_carry_position():
    with pytest.raises(ParseError) as exc:
        parse_net("net n\nwhatever s1\n")
    assert exc.value.line == 2
    with pytest.raises(ParseError):
        parse_net("places s1\n")  # missing net directive


@pytest.mark.parametrize("text,line,col,msg", [
    ("net\n", 1, 4, "expected a token"),
    ("net n\nplaces s1\ntrans t x s1 -> s1\n", 3, 11, "expected ':'"),
    ("net n\nplaces 1p\n", 2, 10, "bad place '1p'"),
    ("net n\nnet m\n", 2, 4, "duplicate net directive"),
    ("net x y\n", 1, 7, "trailing input"),
    ("net n\nplaces s1 s2\ntrans t b : 0*s1 -> s2\n", 3, 18,
     "transition 't' has an empty preset"),
])
def test_parse_error_positions(text, line, col, msg):
    with pytest.raises(ParseError) as exc:
        parse_net(text)
    assert (exc.value.line, exc.value.col) == (line, col)
    assert str(exc.value).endswith(msg)


@pytest.mark.parametrize("terms,counts", [
    ("0*s1 + s2", {"s2": 1}),
    ("05*s1", {"s1": 5}),
    ("0 * s1 + 2*s2", {"s2": 2}),
    ("s1 + 0*s2", {"s1": 1}),
    ("0", {}),
])
def test_zero_is_the_empty_marking_only_alone(terms, counts):
    """A leading `0` is a count like any other unless it is the whole term
    list."""
    doc = parse_net(f"net n\nplaces s1 s2\nmarking m : {terms}\n")
    assert doc.markings["m"] == Multiset(counts)


def test_round_trip():
    for text in (FIG1_TEXT, FIG2_TEXT):
        doc = parse_net(text)
        again = parse_net(format_net(doc))
        assert again.name == doc.name
        assert again.net == doc.net
        assert again.markings == doc.markings


def test_reachability_dot(fig1_net):
    markings = reachable(NetSystem(fig1_net, Multiset.of("s1")), 4).markings
    edges = [
        (m, tid, fire(fig1_net, m, tid))
        for m in markings for tid in enabled(fig1_net, m)
    ]
    dot = export_reachability_dot(markings, edges)
    assert dot.startswith("digraph")
    assert dot.count("->") == len(edges)
    # deterministic
    assert dot == export_reachability_dot(markings, edges)


def test_reachability_dot_single_node():
    """A net with no transitions still renders its initial marking."""
    dot = export_reachability_dot([Multiset.of("p")], [])
    assert dot.startswith("digraph")
    assert dot.count(";") == 1 and "->" not in dot


def test_oim_dot_node_count(fig2_net, fig2_m0):
    k0 = initial_indexed(fig2_m0)
    oims = reachable_oim(fig2_net, k0, 8)
    steps = [(o, s) for o in oims for s in oim_successors(fig2_net, o)]
    dot = export_oim_dot(oims, steps)
    assert dot.count("[label=") == len(oims) + len(steps)
    assert sum(1 for line in dot.splitlines() if "->" in line) == len(steps)


def test_oim_dot_numbers_nodes_sharing_a_label_by_content():
    """par(2) at cap 4 has distinct markings with one Hasse label (the
    initial full order and the unordered pair of the same tokens), so
    node numbers must not follow the order the states come in: the same
    states and steps in two orders give one text."""
    net, m0 = par(2)
    oims = reachable_oim(net, initial_indexed(m0), 4)
    labels = {line.split("[label=")[1]
              for line in export_oim_dot(oims, []).splitlines()
              if "[label=" in line}
    assert len(labels) < len(oims)
    ordered = sorted(oims, key=lambda o: (sorted(o.tokens), sorted(o.order)))
    texts = set()
    for states in (ordered, ordered[::-1]):
        steps = [(o, s) for o in states for s in oim_successors(net, o)]
        texts.add(export_oim_dot(states, steps))
    assert len(texts) == 1


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_format_parse_round_trip(seed):
    """parse_net(format_net(doc)) gives doc back, except for declared labels
    that no transition carries: the format has no label directive."""
    net, m1, m2 = random_instance(random.Random(seed))
    doc = NetDocument(f"n{seed}", net, {"m1": m1, "m2": m2})
    back = parse_net(format_net(doc))
    assert back.name == doc.name
    assert back.net.places == net.places
    assert back.net.transitions == net.transitions
    assert back.markings == doc.markings
    assert back.net.labels == {t.label for t in net.transitions}


def _outcome(parse, text):
    """parse(text), or the type, line, column and message of what it
    raised."""
    try:
        return parse(text)
    except Exception as exc:
        return (type(exc), getattr(exc, "line", None),
                getattr(exc, "col", None), str(exc))


def _assert_parses_like_reference(text):
    """Both parsers give one outcome, except where a `\\x1f` touches a
    count's `*`, a lone `0` or an empty preset's `->`: the reference skipped
    any whitespace there, the scanner reads it into a token, a bad place."""
    got = _outcome(parse_net, text)
    want = _outcome(reference_netio.parse_net, text)
    if got != want and "\x1f" in text:
        assert got[0] is ParseError
        assert r"\x1f" in got[3].partition(": bad place '")[2]
    else:
        assert got == want


HEADER = "net n\nplaces s1 s2 s3\n"

# Lines around the scanner's edges: abutting punctuation, tabs, comments,
# blank lines, zero counts, a lone `-`, long `+` lists, and their errors.
LINES = [
    "trans t a : s1->s2", "trans t a:s1->s2", "trans t a : 2 * s2 -> s1",
    "trans t a :2*s2->0", "trans t\ta\t:\ts1\t->\t2 *s3",
    "trans t a : s1 -> s2 # comment", "# comment only", "", " \t ",
    "marking m : 0", "marking m : 0*s1", "marking m : 05*s1",
    "marking m : 0 * s1 + 2*s2", "marking m : 0 + s1", "marking m : 0 0",
    "marking m:s1+s2", "marking m : s1 +", "marking m : + s1",
    "marking m : s1 ++ s2", "marking m : 2*", "marking m : 2 *",
    "marking m : * s1", "marking m : 2*3*s1", "marking m : 2**s1",
    "marking m : 2 s1", "marking m : s9", "marking m s1", "marking m s1 : s2",
    "marking m", "marking", "marking m : s1 s2", "marking m : s1 -> s2",
    "trans t a : 0 -> s1", "trans t a : -> s1", "trans t a :-> s1",
    "trans t a : 0*s1 -> s2", "trans t a : s1 -> 0", "trans t a : s1 -> 0 0",
    "trans t a : s1 -> -> s1", "trans t a : s1 s2 -> s1", "trans t a : s1",
    "trans t a b : s1 -> s2", "trans t a", "trans t", "trans", "trans 1 a",
    "trans t 1 : s1 -> s1", "trans t-1 a : s1 -> s2", "trans t a- : s1 -> s2",
    "trans t a : s1 - -> s2", "trans t a : s1 -- s2", "places a-b",
    "places s4 -", "places a->b", "places s4: s5", "places s4 s4",
    "places", "places 4s", "net n", "net", "net: x", "net x y", "-", ":",
    "+", "*", "->", "0", "2*s1", "marking m : 2\x1f*\x1fs1",
    "marking m : \x1f0", "marking m : 0\x1f", "trans t a :\x1f-> s1",
    "marking m : " + " + ".join(
        ["s1", "2*s2", "s3 ", "0*s1", "\t3 * s2"] * 60),
]


@pytest.mark.parametrize("line", LINES)
def test_hand_picked_lines_parse_like_reference(line):
    _assert_parses_like_reference(HEADER + line + "\n")
    _assert_parses_like_reference(line)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from(LINES), max_size=6),
       st.sampled_from(["\n", "\r\n", "\n\n"]))
def test_hand_picked_documents_parse_like_reference(lines, sep):
    _assert_parses_like_reference(sep.join([HEADER.rstrip("\n"), *lines]))


EDIT_CHARS = st.one_of(st.sampled_from(list(" \t:+*-><0123456789#\nsp_")),
                       st.characters(max_codepoint=127))


@st.composite
def _edited_documents(draw):
    """A formatted random net with up to three one-character insertions,
    deletions or replacements."""
    seed = draw(st.integers(min_value=0, max_value=10_000))
    net, m1, m2 = random_instance(random.Random(seed))
    text = format_net(NetDocument(f"n{seed}", net, {"m1": m1, "m2": m2}))
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        i = draw(st.integers(min_value=0, max_value=len(text)))
        edit = draw(st.sampled_from(["insert", "delete", "replace"]))
        new = "" if edit == "delete" else draw(EDIT_CHARS)
        text = text[:i] + new + text[i + (edit != "insert"):]
    return text


@settings(max_examples=400, deadline=None)
@given(_edited_documents())
def test_edited_documents_parse_like_reference(text):
    """The scanner gives the reference's document, or raises ParseError at
    its line and column with its message, on ASCII text."""
    _assert_parses_like_reference(text)


@settings(max_examples=200, deadline=None)
@given(st.text(st.characters(max_codepoint=127), max_size=40))
def test_ascii_lines_parse_like_reference(line):
    _assert_parses_like_reference(HEADER + line)


@pytest.mark.parametrize("line,col,place", [
    ("marking m : 2\xa0*\xa0s1", 15, "2\xa0"),
    ("marking m :\xa00", 14, "\xa00"),
    ("marking m : 2\x1f*\x1fs1", 15, "2\x1f"),
    ("marking m : \x1f0", 15, "\x1f0"),
    ("marking m : 0\x1f", 15, "0\x1f"),
    ("trans t a :\x1f-> s1", 13, "\x1f"),
    ("marking m : s1\x1f+ s2", 16, "s1\x1f"),
])
def test_only_spaces_and_tabs_separate_tokens(line, col, place):
    """Whitespace other than spaces and tabs is part of a token, also
    around a count's `*`, a lone `0` and an empty preset's `->`; the
    reference skipped it there, and read `2\\xa0*\\xa0s1` as 2*s1."""
    with pytest.raises(ParseError) as exc:
        parse_net(HEADER + line + "\n")
    assert (exc.value.line, exc.value.col) == (3, col)
    assert str(exc.value).endswith(f"bad place {place!r}")


def test_counts_are_ascii_digits():
    """A non-ASCII decimal digit is not a count but a token, and so a bad
    place; the reference read `٣*s1` as 3 tokens on s1."""
    text = "net n\nplaces s1\nmarking m : \u0663*s1\n"
    with pytest.raises(ParseError) as exc:
        parse_net(text)
    assert (exc.value.line, exc.value.col) == (3, 14)
    assert str(exc.value).endswith("bad place '\u0663'")
    assert reference_netio.parse_net(text).markings["m"] == Multiset({"s1": 3})
