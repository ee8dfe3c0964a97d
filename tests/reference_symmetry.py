"""The canonical search of `netbisim.symmetry` as it was before it pruned
by the automorphisms it finds, kept unchanged as a test-side reference:
the differential test in `test_symmetry` checks that `least_relabel`
returns the same triples with this `least_order` in place of its own.
It prunes twins only, so it visits every leaf the pruned search might
skip, and its least code is the canonical one by definition.
"""

from __future__ import annotations

from netbisim.ordered import image, invert
from netbisim.symmetry import refine, twins


def least_order(cells: list, out: list, inn: list, deadline=None) -> list:
    """The code of a least-coded discrete refinement of the ordered cells,
    as `symmetry.least_order` defines it; `deadline` is ignored."""
    # [code or None while it is the only leaf, order or None]
    best: list = [None, None]
    _visit(cells, cells, out, inn, best)
    return best[0] if best[0] is not None else _code(best[1], out)


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
    if best[1] is None:
        best[1] = order
        return
    if best[0] is None:
        best[0] = _code(best[1], out)
    c = _code(order, out)
    if c < best[0]:
        best[0], best[1] = c, order
