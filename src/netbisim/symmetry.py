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
refined by their numbers of neighbours in each cell; cells of twins
(vertices whose swap is an automorphism) are split without branching; the
remaining cells are split by individualising a vertex at a time, keeping
the least-coded leaf and skipping the twins of tried vertices.

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


def split_twins(cells: list, out: list, inn: list) -> list:
    """The cells, with each cell of pairwise twins split into singletons in
    vertex order.  Every order of twins gives the same code, and since the
    other vertices see all of a cell of twins or none of it, no refinement
    follows."""
    new = []
    for cell in cells:
        u = (cell & -cell).bit_length() - 1
        rest = cell & (cell - 1)
        verts = []
        while rest:
            b = rest & -rest
            rest ^= b
            verts.append(b.bit_length() - 1)
        if verts and all(twins(u, v, out, inn) for v in verts):
            new += [1 << u] + [1 << v for v in verts]
        else:
            new.append(cell)
    return new


def least_order(cells: list, out: list, inn: list) -> list:
    """The vertex order of a least-coded discrete refinement of the ordered
    cells.  Cells of twins are split outright; the first other cell is
    split by individualising each of its vertices in turn, with refinement
    in between.  A twin of a tried vertex is not tried: its subtree is an
    image of the tried one's."""
    best: list = []  # [code or None while it is the only leaf, order]
    _visit(cells, cells, out, inn, best)
    return best[1]


def _code(order: list, out: list) -> list:
    to = invert(order, len(order))
    return [image(out[v], to) for v in order]


def _visit(cells: list, fresh: list, out: list, inn: list, best: list):
    """One node of `least_order`.  Recurses once per individualised
    vertex."""
    cells = split_twins(refine(cells, out, inn, fresh), out, inn)
    k = next((k for k, c in enumerate(cells) if c & (c - 1)), None)
    if k is None:
        order = [c.bit_length() - 1 for c in cells]
        if not best:
            best[:] = None, order
            return
        if best[0] is None:
            best[0] = _code(best[1], out)
        c = _code(order, out)
        if c < best[0]:
            best[:] = c, order
        return
    tried: list[int] = []
    rest = cells[k]
    while rest:
        b = rest & -rest
        rest ^= b
        v = b.bit_length() - 1
        if any(twins(u, v, out, inn) for u in tried):
            continue
        tried.append(v)
        _visit(cells[:k] + [b, cells[k] ^ b] + cells[k + 1:],
               [b, cells[k] ^ b], out, inn, best)


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
