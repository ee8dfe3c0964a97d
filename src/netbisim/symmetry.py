"""Canonical game triples: symmetry reduction of the fc/cn game.

Token indices carry no meaning: the game on a triple (oim1, oim2, beta)
does not change when each side's tokens are renamed by a bijection that
keeps every token on its place.  `least_relabel` maps a triple to one
image under such a renaming, to tokens (place, 1..n), chosen from
the triple's relations alone, so that triples that differ by a renaming
share one image.  Soundness rests only on the image being a renaming of
the triple; a weaker choice costs reduction, not correctness.

The choice is a canonical labelling of a digraph (Ip & Dill, "Better
verification through symmetry", 1996; McKay & Piperno, "Practical graph
isomorphism, II", 2014): the vertices are the tokens, coloured by side and
place, and the edges are both orders and beta.  Cells of vertices are
refined by their numbers of neighbours in each cell; then the first cell
that is not a singleton splits into singletons if its vertices are twins
(their swaps are automorphisms), and otherwise by individualising one
vertex of each twin class in turn, keeping the least-coded leaf.

The functions here read the markings of the `ordered.OIMGraph` the search
plays on and intern the renamed markings there.  The vertices are the
positions of the left tokens, then those of the right tokens offset by
the left side's size, and sets of them are int masks.  A renaming is a
position map, as a move is: an order of positions is a plan (new
position j holds old position order[j]), `ordered.invert` turns it into
a map and `ordered.image` sends masks through it.  The memo of canonical
triples is the search's own (`engine._Search.canonical`) and goes with
it.
"""

from __future__ import annotations

from .ordered import OIMGraph, image, invert


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


def least_order(cells: list, out: list, inn: list) -> list:
    """The vertex order of a least-coded discrete refinement of the ordered
    cells.  The first cell that is not a singleton splits: a cell of twins
    into singletons in vertex order, needing no refinement since the other
    vertices see all of it or none; any other by individualising one vertex
    per twin class in turn, with refinement, as twins have image subtrees."""
    best: list = []  # [code or None while it is the only leaf, order]
    _visit(cells, cells, out, inn, best)
    return best[1]


def _code(order: list, out: list) -> list:
    to = invert(order, len(order))
    return [image(out[v], to) for v in order]


def _visit(cells: list, fresh: list, out: list, inn: list, best: list):
    """One node of `least_order`: recurses once per twin class."""
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
        for v in reps:
            b = 1 << v
            _visit(cells[:k] + [b, cell ^ b] + cells[k + 1:],
                   [b, cell ^ b], out, inn, best)
        return
    order = [c.bit_length() - 1 for c in cells]
    if not best:
        best[:] = None, order
        return
    if best[0] is None:
        best[0] = _code(best[1], out)
    c = _code(order, out)
    if c < best[0]:
        best[:] = c, order


def shape(graph: OIMGraph, o: int) -> tuple:
    """(up, down, cells) of OIM o, over the positions of its tokens: up[v]
    and down[v] are the masks of the tokens above and below the token at
    v, and cells are the masks of its places' tokens, the runs of equal
    places, in place order."""
    tokens, rows = graph.oims[o]
    down = [0] * len(tokens)
    cells: list[int] = []
    for v, row in enumerate(rows):
        b = 1 << v
        while row:
            c = row & -row
            row ^= c
            down[c.bit_length() - 1] |= b
        if v and tokens[v][0] == tokens[v - 1][0]:
            cells[-1] |= b
        else:
            cells.append(b)
    return list(rows), down, cells


def relabel(graph: OIMGraph, o: int, order: list) -> tuple:
    """(id, to) of OIM o with the token at order[j] moved to position j and
    renamed to (place, 1), (place, 2), ... per place: `to` is the position
    map of the plan `order`.  Refinement and individualisation split cells
    in place, so an order of `least_order` keeps each place's tokens
    together, in place order, and position j still holds a token of the
    place of tokens[j]: the renamed tokens are the closed tokens of o's
    places, already sorted."""
    tokens, rows = graph.oims[o]
    closed = []
    for p, _ in tokens:
        closed.append((p, closed[-1][1] + 1 if closed and closed[-1][0] == p
                       else 1))
    to = invert(order, len(tokens))
    return graph.intern(tuple(closed), tuple([image(rows[v], to)
                                              for v in order])), to


def least_relabel(graph: OIMGraph, left: int, right: int, beta: tuple) -> tuple:
    """The triple relabelled on both sides by `least_order` on the digraph
    of both orders and beta, whose vertices are the positions v of the
    left tokens and v + n of the right ones, for the n left tokens."""
    (lup, ldown, lcells), (rup, rdown, rcells) = (shape(graph, left),
                                                  shape(graph, right))
    n = len(lup)
    out = lup + [x << n for x in rup]
    inn = ldown + [x << n for x in rdown]
    for v, row in enumerate(beta):
        out[v] |= row << n
        while row:
            c = row & -row
            row ^= c
            inn[n + c.bit_length() - 1] |= 1 << v
    order = least_order(lcells + [c << n for c in rcells], out, inn)
    lo, _ = relabel(graph, left, order[:n])
    ro, to = relabel(graph, right, [v - n for v in order[n:]])
    return lo, ro, tuple([image(beta[v], to) for v in order[:n]])
