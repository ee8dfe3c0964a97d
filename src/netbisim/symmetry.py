"""Canonical game triples: symmetry reduction of the fc/cn game.

Token indices carry no meaning: the game on a triple (oim1, oim2, beta)
does not change when each side's tokens are renamed by a bijection that
keeps every token on its place.  `least_relabel` maps a triple to one
image under such a renaming, to tokens (place, 1..n), chosen from
the triple's relations alone, so that triples that differ by a renaming
share one image.  Soundness rests only on the image being a renaming of
the triple; a weaker choice costs reduction, not correctness.  The
renaming keeps each side where it is: which side goes left, the other
symmetry of the game, is chosen before it by the search
(`engine._Search.canonical`), from what no renaming changes.

The choice is a canonical labelling of a digraph (Ip & Dill, "Better
verification through symmetry", 1996; McKay & Piperno, "Practical graph
isomorphism, II", 2014): the vertices are the tokens, coloured by side and
place, and the edges are both orders and beta.  Cells of vertices are
refined by their numbers of neighbours in each cell; then the first cell
that is not a singleton splits into singletons if its vertices are twins
(their swaps are automorphisms), and otherwise by individualising one
vertex of each twin class in turn, keeping the least-coded leaf.  A
leaf's code is the digraph relabelled by its vertex order, so the least
code is the canonical triple itself, read off its rows.  Two leaves of
equal code, with orders a and b, give the automorphism a[j] -> b[j],
kept as a position map.  The search skips a vertex that the kept
automorphisms fixing the node's individualised vertices pointwise map
from a tried one, as its subtree holds the same codes; automorphisms
that move one of those vertices are not used there, as they need not
map the node onto itself.  So the least code, and the canonical triple,
are those of the search without them.

The functions here read the markings of the `ordered.OIMGraph` the search
plays on and intern the renamed markings there.  Sets of vertices are int
masks, and a renaming is a position map, as a move is, from a plan (new
position j holds old position order[j]).
"""

from __future__ import annotations

import time
from typing import Optional

from .nets import ResourceLimitReached
from .ordered import OIMGraph, image, invert, transpose


def refine(cells: list, out: list, inn: list, fresh: list) -> list:
    """Split the ordered cells (vertex masks) until every vertex of a cell
    has as many out- and in-neighbours in each cell as the others, given
    that this holds already for every cell but those in `fresh`.  A cell
    splits in the order of those counts, so the result commutes with every
    renaming of the vertices."""
    width = len(out).bit_length()  # of a count, which is at most len(out)
    while fresh:
        new = []
        split = []
        for cell in cells:
            if not cell & (cell - 1):
                new.append(cell)
                continue
            parts: dict[int, int] = {}  # the counts, packed -> vertices
            rest = cell
            while rest:
                b = rest & -rest
                rest ^= b
                o, i = out[b.bit_length() - 1], inn[b.bit_length() - 1]
                key = 0
                for c in fresh:
                    key = (key << width | (o & c).bit_count()) << width | (
                        i & c).bit_count()
                parts[key] = parts.get(key, 0) | b
            if len(parts) > 1:
                parted = [parts[k] for k in sorted(parts)]
                split += parted
                new += parted
            else:
                new.append(cell)
        cells = new
        fresh = split
    return cells


def twins(u: int, v: int, out: list, inn: list) -> bool:
    """Whether swapping vertices u and v maps every edge to an edge."""
    return (not ((out[u] ^ out[v]) | (inn[u] ^ inn[v])) & ~(1 << u | 1 << v)
            and out[u] >> v & 1 == out[v] >> u & 1)


def least_order(cells: list, out: list, inn: list,
                deadline: Optional[float] = None) -> list:
    """The code of a least-coded discrete refinement of the ordered cells:
    the rows of `out` renamed by its vertex order, in that order.  The
    first cell that is not a singleton splits: a cell of twins into
    singletons in vertex order, needing no refinement since the other
    vertices see all of it or none; any other by individualising one vertex
    per twin class in turn, with refinement, as twins have image subtrees.
    Two leaves of equal code, with orders a and b, give the automorphism
    a[j] -> b[j]; a vertex that the automorphisms fixing the individualised
    prefix map from a tried one has an image subtree too, and is skipped
    (`_visit`).  Given `deadline`, a `time.monotonic()` value, the search
    checks it every 1,024 nodes and raises
    ResourceLimitReached("max_seconds") once it has passed."""
    # [code or None while it is the only leaf, order or None,
    #  nodes counted while a deadline is set, deadline or None,
    #  automorphisms found, as the orders (a, b) of two leaves of equal
    #  code, and the same as (position map, mask of the vertices it moves),
    #  made only once a node would prune with them]
    best: list = [None, None, 0, deadline, [], []]
    _visit(cells, cells, out, inn, best, 0)
    return best[0] if best[0] is not None else _code(best[1], out)


def _code(order: list, out: list) -> list:
    to = invert(order, len(order))
    return [image(out[v], to) for v in order]


def _visit(cells: list, fresh: list, out: list, inn: list, best: list,
           prefix: int):
    """One node of `least_order`, below the individualised vertices of the
    mask `prefix`: recurses once per twin class, on its least vertex,
    unless the found automorphisms that fix `prefix` pointwise map a tried
    vertex to it.  Such an automorphism, taken with the twin swaps that
    undo it on the cells split as twins on the way, keeps every cell of
    this node, so it maps a tried child's subtree onto the skipped one,
    with the same codes."""
    if best[3] is not None:
        best[2] += 1
        if not best[2] & 1023 and time.monotonic() > best[3]:
            raise ResourceLimitReached("max_seconds")
    cells = refine(cells, out, inn, fresh)
    k = 0
    while k < len(cells):
        cell = cells[k]
        if not cell & (cell - 1):
            k += 1
            continue
        reps: list[int] = []  # the least vertex of each twin class
        bits = []
        rest = cell
        while rest:
            b = rest & -rest
            rest ^= b
            bits.append(b)
            v = b.bit_length() - 1
            if not any(twins(u, v, out, inn) for u in reps):
                reps.append(v)
        if len(reps) == 1:
            cells[k:k + 1] = bits
            k += len(bits)
            continue
        tried = 0
        for v in reps:
            b = 1 << v
            if tried and best[4] and _reached(tried, prefix, best) & b:
                continue
            _visit(cells[:k] + [b, cell ^ b] + cells[k + 1:],
                   [b, cell ^ b], out, inn, best, prefix | b)
            tried |= b
        return
    order = [c.bit_length() - 1 for c in cells]
    if best[1] is None:
        best[1] = order
        return
    if best[0] is None:
        best[0] = _code(best[1], out)
    c = _code(order, out)
    if c < best[0]:
        best[0], best[1] = c, order
    elif c == best[0]:
        best[4].append((best[1], order))


def _reached(tried: int, prefix: int, best: list) -> int:
    """The vertices that the automorphisms found by `least_order`'s search
    `best` that fix the vertices of `prefix` map the vertices of `tried`
    to, in any number of steps."""
    maps = best[5]
    for a, b in best[4][len(maps):]:
        to = [0] * len(a)
        moved = 0
        for x, y in zip(a, b):
            to[x] = 1 << y
            if x != y:
                moved |= 1 << x
        maps.append((to, moved))
    gens = [to for to, moved in maps if not moved & prefix]
    reached = front = tried
    while front and gens:
        grown = 0
        for to in gens:
            grown |= image(front, to)
        front = grown & ~reached
        reached |= front
    return reached


def least_relabel(graph: OIMGraph, left: int, right: int, beta: tuple,
                  deadline: Optional[float] = None) -> tuple:
    """The triple renamed on both sides by `least_order` on the digraph of
    both orders and beta, whose vertices are the positions v of the n left
    tokens and v + n of the right ones: out[v] is v's up-row with v's beta
    row above it, and the cells are the runs of equal places of each side,
    in place order.  Refinement and individualisation split cells in
    place, so in the least leaf position j < n still holds a left token
    and every place keeps its run: the code's rows are the renamed
    triple's, left up-rows below n and beta and right up-rows above it,
    and the renamed tokens are the closed tokens of each side's places.
    `deadline` is `least_order`'s."""
    lrows, rrows = graph.oims[left][1], graph.oims[right][1]
    n = len(lrows)
    out = [up | row << n for up, row in zip(lrows, beta)] + [
        up << n for up in rrows]
    cells: list[int] = []
    names: list[tuple] = []  # (place, 1..) per place run of each side
    for v, p in enumerate(graph.places[left] + graph.places[right]):
        if v != n and names and names[-1][0] == p:
            cells[-1] |= 1 << v
            names.append((p, names[-1][1] + 1))
        else:
            cells.append(1 << v)
            names.append((p, 1))
    code = least_order(cells, out, transpose(out, len(out)), deadline)
    low = (1 << n) - 1
    return (graph.intern(tuple(names[:n]), tuple([c & low for c in code[:n]])),
            graph.intern(tuple(names[n:]), tuple([c >> n for c in code[n:]])),
            tuple([c >> n for c in code[:n]]))
