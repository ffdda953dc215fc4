"""The two integer kernels, each checked against an independent oracle."""

from __future__ import annotations

import random
import tracemalloc

import pytest
from helpers import _gf2_rank, brute_max_matching, grid_document, random_complex

from fcw import parse_complex
from fcw._kernels import max_bipartite_matching, reduce_pairing


def filtration_columns(x):
    """Boundary rows and dimensions of x's cells sorted by (weight, dim, id):
    the boundary matrix of a chain complex, as barcode() reduces it."""
    order = sorted(x.cells, key=lambda c: (c.weight, c.dim, c.id))
    index = {c.id: i for i, c in enumerate(order)}
    return [[index[b] for b in c.boundary] for c in order], [c.dim for c in order]


def lemma_pairing(columns):
    """Pairs (i, j) by the pairing lemma, from GF(2) ranks of lower-left blocks.

    (i, j) is a pair exactly when r(i,j) - r(i+1,j) - r(i,j-1) + r(i+1,j-1) = 1,
    where r(i, j) is the rank of the block with rows >= i and columns <= j.
    """
    n = len(columns)
    vectors = [sum(1 << i for i in rows) for rows in columns]
    # r[i][j + 1] = r(i, j); column 0 of the table stands for the empty block
    r = [[_gf2_rank([v >> i for v in vectors[:k]]) for k in range(n + 1)] for i in range(n + 1)]
    pair = [-1] * n
    for j in range(n):
        for i in range(j):
            if r[i][j + 1] - r[i + 1][j + 1] - r[i][j] + r[i + 1][j] == 1:
                assert pair[j] == -1, "the lemma gives each column at most one row"
                pair[j] = i
    return pair


def test_reduce_pairing_on_known_pairing():
    # a loop bounding two 2-cells: the second column cancels to zero
    assert reduce_pairing([[], [0], [0]], [1, 2, 2]) == [1, 0, -1]


class Unread(list):
    """A column the reduction must not read."""

    def __iter__(self):
        raise AssertionError("a cleared column was read")


def test_clearing_skips_a_column_known_to_reduce_to_zero():
    # a filled triangle: vertices a, b, c, edges ab, bc, ca, face f.  The face
    # claims ca's row, so ca's column is never read; it would cancel to zero.
    columns = [[], [], [], [0, 1], [1, 2], Unread([2, 0]), [3, 4, 5]]
    dims = [0, 0, 0, 1, 1, 1, 2]
    assert reduce_pairing(columns, dims) == [-1, 3, 4, 1, 2, 6, 5]
    assert lemma_pairing([[], [], [], [0, 1], [1, 2], [2, 0], [3, 4, 5]]) == [-1, -1, -1, 1, 2, -1, 5]


def chain_complexes(rng):
    """Valid complexes of every size class: random ones, small lower-star
    grids, and random ones of exactly 63, 64 and 65 cells."""
    for _ in range(20):
        yield random_complex(rng)
    for side in (1, 2, 3, 4):
        yield parse_complex(grid_document(side, rng))
    for n in (63, 64, 65):
        for _ in range(2):
            yield random_complex(rng, max_cells=n - 1, min_cells=n - 1)


def test_reduce_pairing_against_pairing_lemma():
    rng = random.Random(251)
    for x in chain_complexes(rng):
        columns, dims = filtration_columns(x)
        # barcode() passes each column's rows unsorted
        shuffled = [rng.sample(rows, len(rows)) for rows in columns]
        partner = reduce_pairing(shuffled, dims)
        # the lemma names each destroyer's creator; the creator names it back
        assert [i if i < j else -1 for j, i in enumerate(partner)] == lemma_pairing(columns)
        assert all(i < 0 or partner[i] == j for j, i in enumerate(partner))


def kernel_peak(side: int) -> int:
    """Traced peak bytes of reduce_pairing on a side x side lower-star grid."""
    columns, dims = filtration_columns(parse_complex(grid_document(side, random.Random(side))))
    tracemalloc.start()
    try:
        reduce_pairing(columns, dims)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_reduce_pairing_memory_scales_with_the_input():
    # four times the cells: memory that follows the nonzeros grows about 4x,
    # while columns stored as long as their low rows grow 13x
    assert kernel_peak(70) < 8 * kernel_peak(35)


def random_graph(rng, n_left, n_right, density=0.25):
    return [
        [v for v in range(n_right) if rng.random() < density] for _ in range(n_left)
    ]


def staircase(n, width):
    """Left i is joined to right i + width, ..., i (the last ones clipped at
    n - 1), in that order.  The first phase takes each left vertex's highest
    free neighbour, which blocks the last `width` left vertices; the later
    phases' augmenting paths run back down about n / width steps."""
    return [list(range(min(i + width, n - 1), i - 1, -1)) for i in range(n)]


def relabelled(rng, adjacency, n_right):
    """The same graph with the vertices of both sides renumbered at random."""
    right = rng.sample(range(n_right), n_right)
    rows = [[right[v] for v in row] for row in adjacency]
    rng.shuffle(rows)
    return rows


def matching_inputs(rng):
    """Small random graphs, then graphs of up to 200 vertices per side that
    need deep augmenting paths and several phases: staircases (up to n
    steps deep and 5 phases), relabelled staircases, and sparse random
    graphs (3 to 5 phases)."""
    for _ in range(60):
        nl, nr = rng.randint(0, 9), rng.randint(0, 9)
        yield nl, nr, random_graph(rng, nl, nr, density=rng.uniform(0.1, 0.7))
    for n in (1, 2, 20, 200):
        for width in (1, 2, 5, 8):
            yield n, n, staircase(n, width)
            yield n, n, relabelled(rng, staircase(n, width), n)
    for n in (100, 150, 200):
        for degree in (1.5, 2, 3):
            yield n, n, random_graph(rng, n, n, density=degree / n)


def test_matching_against_kuhn_oracle():
    for nl, nr, adjacency in matching_inputs(random.Random(257)):
        assert max_bipartite_matching(nl, nr, adjacency) == brute_max_matching(nl, nr, adjacency)


def bottleneck_shaped_graph(rng, n1, n2, density):
    """The reference oracle's diagonal-augmented graph (the library does not
    build it): bars1 and diagonal copies of bars2 on the left, bars2 and
    diagonal copies of bars1 on the right, with every diagonal copy joined
    to every other (a complete n2 x n1 block)."""
    adjacency = []
    for i in range(n1):
        row = [j for j in range(n2) if rng.random() < density]
        if rng.random() < density:
            row.append(n2 + i)
        adjacency.append(row)
    for j in range(n2):
        row = list(range(n2, n2 + n1))
        if rng.random() < density:
            row.append(j)
        adjacency.append(row)
    return adjacency


def test_matching_on_bottleneck_shaped_graphs():
    rng = random.Random(263)
    perfect = 0
    for _ in range(150):
        n1, n2 = rng.randint(0, 12), rng.randint(0, 12)
        adjacency = bottleneck_shaped_graph(rng, n1, n2, rng.uniform(0.05, 0.6))
        n = n1 + n2
        expected = brute_max_matching(n, n, adjacency)
        assert max_bipartite_matching(n, n, adjacency) == expected
        perfect += expected == n
    assert 0 < perfect < 150  # both outcomes of the feasibility test occur


def test_perfect_matching_detected():
    adjacency = [[0], [1], [2]]
    assert max_bipartite_matching(3, 3, adjacency) == 3


class Flickering(list):
    """A row whose edges show on odd iterations only, so the BFS of a phase
    sees them and its DFS does not.  Past 20 iterations it fails the test
    instead of letting the kernel repeat such phases forever."""

    seen = 0

    def __iter__(self):
        self.seen += 1
        assert self.seen <= 20, "the kernel repeats a phase that augments nothing"
        return super().__iter__() if self.seen % 2 else iter(())


def test_a_phase_that_augments_nothing_is_an_error():
    with pytest.raises(RuntimeError, match="max_bipartite_matching"):
        max_bipartite_matching(1, 1, [Flickering([0])])


class FirstOnly(list):
    """A column whose low row shows on its first iteration only, so adding it
    to another column never cancels that row.  Past 20 iterations it fails the
    test instead of letting the kernel add it forever."""

    seen = 0

    def __iter__(self):
        self.seen += 1
        assert self.seen <= 20, "the kernel adds a column that does not lower the low"
        return super().__iter__() if self.seen == 1 else iter(self[:-1])


def test_an_addition_that_keeps_the_low_is_an_error():
    # both dimension-1 columns have low row 1; the second adds the first, which
    # by then shows only row 0, so the low stays at 1
    with pytest.raises(RuntimeError, match="reduce_pairing"):
        reduce_pairing([[], [], FirstOnly([0, 1]), [0, 1]], [0, 0, 1, 1])
