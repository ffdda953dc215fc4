"""Integer hot loops: mod-2 boundary reduction and maximum bipartite matching.

Both kernels are plain Python on plain integers, so the exact-rational
layers above them only ever see lists of ints.
"""

from __future__ import annotations

# Read by the benchmark's environment stamp; no path is compiled.
USING_NUMBA = False


# -- mod-2 column reduction with clearing (Chen-Kerber 2011) ------------------


def reduce_pairing(columns, dims) -> list[int]:
    """partner[j] = the cell paired with cell j, or -1 when j's class never dies.

    `columns` lists, per cell in filtration order, its boundary's rows and
    `dims` the cells' dimensions.  They must form a chain complex: every row
    an earlier cell one dimension down, and the boundary of a boundary zero.
    Dimensions go from the top down.  A column adds the reduced column that
    owns its low (largest) row, as a set over GF(2), until its low is new
    (it is kept, as a tuple if it changed) or it is zero.  A cell already
    paired as a low row is skipped, as its column would reduce to zero.
    Each addition cancels the low, so the low falls and the loop ends.
    """
    partner = [-1] * len(columns)
    by_dim: dict[int, list[int]] = {}
    for j, d in enumerate(dims):
        by_dim.setdefault(d, []).append(j)
    for d in sorted(by_dim, reverse=True):
        owner = {}  # low row -> the reduced column that claimed it
        for j in by_dim[d]:
            column = columns[j]
            if partner[j] >= 0 or not column:
                continue
            low = max(column)
            if low in owner:
                column = set(column)
                while low in owner:
                    column.symmetric_difference_update(owner[low])
                    low, last = max(column) if column else -1, low
                    if low >= last:
                        raise RuntimeError(f"reduce_pairing: an addition took column {j}'s low from {last} to {low}")
                column = tuple(column)
            if low >= 0:
                owner[low] = column
                partner[low], partner[j] = j, low
    return partner


# -- maximum bipartite matching (Hopcroft-Karp) -------------------------------


def max_bipartite_matching(n_left: int, n_right: int, adjacency) -> int:
    """Size of a maximum matching; `adjacency[u]` lists the right-neighbours of u."""
    INF = n_left + 1
    pair_u = [-1] * n_left
    pair_v = [-1] * n_right
    total = 0
    while True:
        # BFS from the free left vertices layers the graph by alternating paths.
        free = [u for u in range(n_left) if pair_u[u] < 0]
        dist = [INF if v >= 0 else 0 for v in pair_u]
        queue = free.copy()
        reachable_free = False
        for u in queue:
            for v in adjacency[u]:
                w = pair_v[v]
                if w < 0:
                    reachable_free = True
                elif dist[w] == INF:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        if not reachable_free:
            return total
        # DFS along the layers augments a maximal set of disjoint shortest
        # paths.  Each left vertex resumes its own iterator over its row, so
        # no edge is tried twice in a phase; a vertex that runs out of edges
        # leads nowhere and is retired for the phase.  Past the root, `path`
        # holds left vertices, each the partner of the right vertex before it.
        rest = list(map(iter, adjacency))
        before = total
        for root in free:
            path = [root]
            while path:
                u = path[-1]
                for v in rest[u]:
                    w = pair_v[v]
                    if w < 0 or dist[w] == dist[u] + 1:
                        break
                else:
                    dist[u] = INF
                    path.pop()
                    continue
                if w < 0:
                    # v is free: from the end back, each vertex on the path
                    # takes the right vertex after it and hands its partner
                    # (the one before it, -1 at the root) back down the path
                    for u in reversed(path):
                        pair_v[v] = u
                        pair_u[u], v = v, pair_u[u]
                    total += 1
                    break
                path.append(w)
        # the BFS reached a free vertex, so the phase augments at least once, and
        # no matching has more than n_left edges: the phases end
        if not before < total <= n_left:
            raise RuntimeError(f"max_bipartite_matching: a phase took the matching from {before} to {total} edges")
