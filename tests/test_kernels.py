"""The two integer kernels, each checked against an independent oracle."""

from __future__ import annotations

import random

from helpers import _gf2_rank

from fcw._kernels import max_bipartite_matching, reduce_pairing


def random_columns(rng: random.Random, n: int, density: float = 0.3):
    """Strictly lower-triangular random columns (enough for the reduction)."""
    columns = []
    for j in range(n):
        rows = [i for i in range(j) if rng.random() < density]
        columns.append(rows)
    return columns


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
    # two 2-cells sharing one edge: second column cancels to zero
    assert reduce_pairing([[], [0], [0]]) == [-1, 0, -1]


def test_reduce_pairing_against_pairing_lemma():
    rng = random.Random(251)
    for n in (0, 1, 2, 17, 63, 64, 65):
        for density in (0.05, 0.3):
            columns = random_columns(rng, n, density)
            # barcode() passes each column's rows unsorted
            shuffled = [rng.sample(rows, len(rows)) for rows in columns]
            assert reduce_pairing(shuffled) == lemma_pairing(columns)


def brute_max_matching(n_left, n_right, adjacency):
    """Kuhn's augmenting-path algorithm, recursion-based (independent oracle)."""
    pair_v = [-1] * n_right

    def augment(u, seen):
        for v in adjacency[u]:
            if v in seen:
                continue
            seen.add(v)
            if pair_v[v] < 0 or augment(pair_v[v], seen):
                pair_v[v] = u
                return True
        return False

    return sum(1 for u in range(n_left) if augment(u, set()))


def random_graph(rng, n_left, n_right, density=0.25):
    return [
        [v for v in range(n_right) if rng.random() < density] for _ in range(n_left)
    ]


def test_matching_against_kuhn_oracle():
    rng = random.Random(257)
    for _ in range(60):
        nl, nr = rng.randint(0, 9), rng.randint(0, 9)
        adjacency = random_graph(rng, nl, nr, density=rng.uniform(0.1, 0.7))
        assert max_bipartite_matching(nl, nr, adjacency) == brute_max_matching(nl, nr, adjacency)


def bottleneck_shaped_graph(rng, n1, n2, density):
    """The bottleneck's feasibility graph: bars1 and diagonal copies of bars2 on
    the left, bars2 and diagonal copies of bars1 on the right, with every
    diagonal copy joined to every other (a complete n2 x n1 block)."""
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
