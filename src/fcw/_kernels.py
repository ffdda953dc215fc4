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
                    low = max(column) if column else -1
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
    dist = [0] * n_left
    cursor = [0] * n_left
    stack_u = [0] * (n_left + 1)
    stack_v = [0] * (n_left + 1)
    total = 0
    while True:
        # BFS from the free left vertices layers the graph by alternating paths.
        queue = []
        for u in range(n_left):
            if pair_u[u] < 0:
                dist[u] = 0
                queue.append(u)
            else:
                dist[u] = INF
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
        # Iterative DFS along the layers augments a maximal set of disjoint
        # shortest paths; a vertex that leads nowhere is retired for the phase.
        for u0 in range(n_left):
            if pair_u[u0] >= 0:
                continue
            sp = 0
            stack_u[0] = u0
            cursor[u0] = 0
            while sp >= 0:
                u = stack_u[sp]
                row = adjacency[u]
                advanced = False
                while cursor[u] < len(row):
                    v = row[cursor[u]]
                    cursor[u] += 1
                    w = pair_v[v]
                    if w < 0:
                        stack_v[sp] = v
                        for i in range(sp, -1, -1):
                            pair_u[stack_u[i]] = stack_v[i]
                            pair_v[stack_v[i]] = stack_u[i]
                        total += 1
                        sp = -2
                        advanced = True
                        break
                    if dist[w] == dist[u] + 1:
                        stack_v[sp] = v
                        sp += 1
                        stack_u[sp] = w
                        cursor[w] = 0
                        advanced = True
                        break
                if sp == -2:
                    break
                if not advanced:
                    dist[u] = INF
                    sp -= 1
