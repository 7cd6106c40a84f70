"""Seeded benchmark inputs and their known answers, as plain data.

This module never imports matroidkit. Every expected answer is fixed by how
its input was built (a row-operated twin is the same matroid, a binary
matroid has no U(2,4) minor, relabeling a clique changes no tangle count),
so no answer can come from the code under test. The reference rank helpers
at the bottom are used only to spot-check outputs outside the timed region.
"""

from __future__ import annotations

import itertools
import random

WORKLOADS = ("tangle-sweep", "oracle-sweep", "minor-search")

# Maximal-member counts of T_k(clique(v)), k = ceil(2(v-1)/3), frozen from
# the tangles suite; clique(7) has no frozen count.
TK_MAXIMAL = {4: 1, 5: 10, 6: 65}


def tangle_order(n: int) -> int:
    """Order ceil(2n/3) of the tangle of a clique(n + 1) minor."""
    return (2 * n + 2) // 3


# ---------------------------------------------------------------------------
# matrices over GF(p), as lists of rows


def identity_plus(rng: random.Random, p: int, r: int, n: int,
                  connected: bool = False) -> list[list[int]]:
    """[I_r | A] with A drawn at random. connected=True redraws A until its
    support is a connected bipartite graph with no zero row or column, which
    makes the matroid connected."""
    while True:
        a = [[rng.randrange(p) for _ in range(n - r)] for _ in range(r)]
        if not connected or _support_connected(a):
            break
    return [[int(i == j) for j in range(r)] + a[i] for i in range(r)]


def simple_matrix(rng: random.Random, p: int, r: int, n: int
                  ) -> list[list[int]]:
    """r x n matrix of rank r whose columns are distinct projective points
    (no loops, no parallel pairs), the r unit vectors among them."""
    points = [list(v) for v in itertools.product(range(p), repeat=r)
              if any(v) and v[next(i for i, x in enumerate(v) if x)] == 1]
    units = [[int(i == k) for k in range(r)] for i in range(r)]
    cols = units + rng.sample([v for v in points if v not in units], n - r)
    rng.shuffle(cols)
    return [[c[i] for c in cols] for i in range(r)]


def _support_connected(a: list[list[int]]) -> bool:
    r, c = len(a), len(a[0])
    if any(not any(row) for row in a) or any(
            not any(a[i][j] for i in range(r)) for j in range(c)):
        return False
    seen, todo = {("row", 0)}, [("row", 0)]
    while todo:
        side, i = todo.pop()
        if side == "row":
            nxt = [("col", j) for j in range(c) if a[i][j]]
        else:
            nxt = [("row", k) for k in range(r) if a[k][i]]
        for node in nxt:
            if node not in seen:
                seen.add(node)
                todo.append(node)
    return len(seen) == r + c


def row_twin(rng: random.Random, p: int, rows: list[list[int]]
             ) -> list[list[int]]:
    """The same matroid by invertible row operations: row additions,
    nonzero scalings and a row permutation."""
    out = [list(row) for row in rows]
    r = len(out)
    for _ in range(3 * r):
        i, j = rng.sample(range(r), 2)
        c = rng.randrange(1, p)
        out[j] = [(x + c * y) % p for x, y in zip(out[j], out[i])]
    for i in range(r):
        c = rng.randrange(1, p)
        out[i] = [(c * x) % p for x in out[i]]
    rng.shuffle(out)
    return out


def dual_rows(p: int, rows: list[list[int]]) -> list[list[int]]:
    """[-A^T | I_{n-r}] for rows = [I_r | A]: the dual, same element order."""
    r, n = len(rows), len(rows[0])
    return [[(-rows[i][r + j]) % p for i in range(r)]
            + [int(j == k) for k in range(n - r)] for j in range(n - r)]


def block_diagonal(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    na, nb = len(a[0]), len(b[0])
    return [row + [0] * nb for row in a] + [[0] * na + row for row in b]


def permute_columns(rows: list[list[int]], order: list[int]
                    ) -> list[list[int]]:
    """Column i of the result is column order[i] of rows."""
    return [[row[k] for k in order] for row in rows]


def incidence(n_vertices: int, edges: list[list[int]]) -> list[list[int]]:
    """GF(2) vertex-edge incidence matrix of a loopless graph."""
    return [[int(v in e) for e in edges] for v in range(n_vertices)]


# ---------------------------------------------------------------------------
# graphs, as vertex counts and edge lists


def clique_edges(nv: int) -> list[list[int]]:
    return [[u, v] for u, v in itertools.combinations(range(nv), 2)]


def relabel(rng: random.Random, nv: int, edges: list[list[int]]
            ) -> list[list[int]]:
    """Permute vertex labels, edge order and edge orientation."""
    perm = list(range(nv))
    rng.shuffle(perm)
    out = [[perm[u], perm[v]] for u, v in edges]
    rng.shuffle(out)
    for e in out:
        if rng.random() < 0.5:
            e.reverse()
    return out


def connected_graph(rng: random.Random, nv: int, ne: int,
                    simple: bool = True) -> list[list[int]]:
    """Random spanning tree plus random extra edges, no loops."""
    order = list(range(nv))
    rng.shuffle(order)
    edges = [[order[i], order[rng.randrange(i)]] for i in range(1, nv)]
    have = {frozenset(e) for e in edges}
    while len(edges) < ne:
        u, v = rng.sample(range(nv), 2)
        if simple and frozenset((u, v)) in have:
            continue
        have.add(frozenset((u, v)))
        edges.append([u, v])
    rng.shuffle(edges)
    return edges


def square_ext5_rows() -> list[list[int]]:
    """Binary incidence of clique(5) plus a column on vertices 0..3."""
    cols = [[int(v in e) for v in range(5)] for e in clique_edges(5)]
    cols.append([1, 1, 1, 1, 0])
    return [[c[i] for c in cols] for i in range(5)]


def triangle_ext5_rows() -> list[list[int]]:
    """Reduced signed incidence of clique(5) over GF(3) plus b_1 + b_2."""
    cols = []
    for i, j in itertools.combinations(range(5), 2):
        col = [0] * 4
        if i == 0:
            col[j - 1] = 1
        else:
            col[i - 1], col[j - 1] = 1, 2
        cols.append(col)
    cols.append([1, 1, 0, 0])
    return [[c[i] for c in cols] for i in range(4)]


def _shuffled_matrix(rng: random.Random, rows: list[list[int]]
                     ) -> list[list[int]]:
    order = list(range(len(rows[0])))
    rng.shuffle(order)
    out = permute_columns(rows, order)
    rng.shuffle(out)
    return out


def planted(rng: random.Random, p: int, r: int, n: int,
            block: list[list[int]]) -> list[list[int]]:
    """r x n matrix of rank r whose columns include the given columns
    (written in the first rows), shuffled. The restriction to those columns
    is the planted matroid."""
    cols = [c + [0] * (r - len(c)) for c in block]
    for i in range(r):
        unit = [int(i == k) for k in range(r)]
        if unit not in cols:
            cols.append(unit)
    while len(cols) < n:
        cols.append([rng.randrange(p) for _ in range(r)])
    rng.shuffle(cols)
    return [[c[i] for c in cols] for i in range(r)]


F7_COLUMNS = [[(k >> i) & 1 for i in range(3)] for k in range(1, 8)]
U24_COLUMNS = [[1, 0], [0, 1], [1, 1], [1, 2]]

# Minor-search targets: the Fano plane and the four-point line.
TARGETS = {"U24": {"kind": "linear", "prime": 3,
                   "rows": [[c[i] for c in U24_COLUMNS] for i in range(2)]},
           "F7": {"kind": "linear", "prime": 2,
                  "rows": [[c[i] for c in F7_COLUMNS] for i in range(3)]}}


# ---------------------------------------------------------------------------
# workload specs


def _tangle_host(rng: random.Random, name: str) -> dict:
    if name.startswith("clique"):
        nv = int(name[len("clique")])
        return {"kind": "graph", "n_vertices": nv,
                "edges": relabel(rng, nv, clique_edges(nv))}
    if name == "square-ext5":
        return {"kind": "linear", "prime": 2,
                "rows": _shuffled_matrix(rng, square_ext5_rows())}
    if name == "triangle-ext5":
        return {"kind": "linear", "prime": 3,
                "rows": _shuffled_matrix(rng, triangle_ext5_rows())}
    if name == "free-ext5":
        return {"kind": "free-extension", "n_vertices": 5,
                "edges": relabel(rng, 5, clique_edges(5))}
    assert name == "biclique33"
    return {"kind": "graph", "n_vertices": 6,
            "edges": relabel(rng, 6, [[i, 3 + j] for i in range(3)
                                      for j in range(3)])}


TANGLE_K7_EVERY = 8
TANGLE_K7_REPEAT = 2
TANGLE_CHEAP_REPEAT = 8
TANGLE_CHEAP = ("tk.clique4", "tk.clique5", "matroid-axioms.clique4",
                "matroid-axioms.clique5", "induced.clique5-c4",
                "induced.clique5-c5", "induced.square-ext5-c5",
                "induced.free-ext5-c5", "induced.biclique33-c4")

# (host, clique minor size - 1) of the tangles suite's induced checks; the
# suite's clique7-c5 and clique7-c6 are left out (see README)
INDUCED_HOSTS = (("clique5", 3), ("clique5", 4), ("clique6", 4),
                 ("clique6", 5), ("square-ext5", 4), ("triangle-ext5", 4),
                 ("free-ext5", 4), ("biclique33", 3))


def tangle_sweep(rng: random.Random) -> list[dict]:
    """The tangles suite's checks, each on a relabeled host. T_k(clique(7))
    takes about four times as long as all other checks together and its cost
    does not depend on the labeling, so it runs TANGLE_K7_REPEAT times in
    every TANGLE_K7_EVERY-th pass: twice in a run, so that one slow run sets
    only half of its median. The cost of the searches does depend on the
    labeling; the checks that take under 0.1 s run TANGLE_CHEAP_REPEAT times
    per pass, each on another labeling, so that their medians settle within
    one run."""
    ops = []
    for n in range(3, 7):
        k = tangle_order(n)
        ops.append({"op": f"tk.clique{n + 1}", "kind": "tk",
                    "host": _tangle_host(rng, f"clique{n + 1}"), "order": k,
                    "expect": {"ok": True, "order": k,
                               "maximal": TK_MAXIMAL.get(n + 1)}})
    ops[-1]["every"] = TANGLE_K7_EVERY
    ops[-1]["repeat"] = TANGLE_K7_REPEAT
    for n in (3, 4):
        k = tangle_order(n)
        ops.append({"op": f"matroid-axioms.clique{n + 1}",
                    "kind": "tangle-matroid",
                    "host": _tangle_host(rng, f"clique{n + 1}"), "order": k,
                    "expect": {"rank": k - 1, "elements": n * (n + 1) // 2}})
    for name, n in INDUCED_HOSTS:
        ops.append({"op": f"induced.{name}-c{n + 1}", "kind": "induced",
                    "host": _tangle_host(rng, name), "n": n,
                    "expect": {"ok": True, "order": tangle_order(n)}})
    for op in ops:
        if op["op"] in TANGLE_CHEAP:
            op["repeat"] = TANGLE_CHEAP_REPEAT
    return ops


def oracle_sweep(rng: random.Random) -> list[dict]:
    """Exhaustive subset sweeps on matroids without graph provenance."""
    ops = []

    def pair(p, r, n):
        rows = identity_plus(rng, p, r, n)
        return rows, row_twin(rng, p, rows)

    rows, twin = pair(2, 8, 16)
    ops.append({"op": "rank-table.gf2.n16", "kind": "rank-table", "prime": 2,
                "rows": rows, "twin": twin, "expect": {"rank": 8}})
    rows, twin = pair(3, 6, 13)
    ops.append({"op": "rank-table.gf3.n13", "kind": "rank-table", "prime": 3,
                "rows": rows, "twin": twin, "expect": {"rank": 6}})
    rows, twin = pair(2, 9, 17)
    ops.append({"op": "same-rank.gf2.n17", "kind": "same-rank", "prime": 2,
                "rows": rows, "twin": twin, "expect": True})
    rows, twin = pair(3, 6, 13)
    ops.append({"op": "same-rank.gf3.n13", "kind": "same-rank", "prime": 3,
                "rows": rows, "twin": twin, "expect": True})
    edges = connected_graph(rng, 8, 15, simple=False)
    ops.append({"op": "even-cycle.n15", "kind": "even-cycle",
                "n_vertices": 8, "edges": edges,
                "odd": sorted(rng.sample(range(15), 6)), "expect": True})
    edges = connected_graph(rng, 6, 12, simple=False)
    ops.append({"op": "signed-graph.n12", "kind": "signed-graph",
                "n_vertices": 6, "edges": edges,
                "odd": sorted(rng.sample(range(12), 5)), "expect": True})
    rows = identity_plus(rng, 2, 7, 15)
    ops.append({"op": "recipe.dual.gf2.n15", "kind": "dual", "prime": 2,
                "rows": rows, "dual": dual_rows(2, rows), "expect": True})
    rows, twin = pair(3, 6, 12)
    ops.append({"op": "recipe.truncation.gf3.n12", "kind": "truncation",
                "prime": 3, "rows": rows, "twin": twin, "expect": True})
    rows, twin = pair(2, 7, 14)
    ops.append({"op": "recipe.principal-extension.gf2.n15",
                "kind": "principal-extension", "prime": 2, "rows": rows,
                "twin": twin, "expect": True})
    a, a_twin = pair(2, 4, 8)
    b, b_twin = pair(2, 4, 7)
    ops.append({"op": "recipe.direct-sum.gf2.n15", "kind": "direct-sum",
                "prime": 2, "a": a, "b": b,
                "sum_twin": block_diagonal(a_twin, b_twin), "expect": True})
    rows = identity_plus(rng, 2, 9, 18)
    steps = []
    for size in (18, 16):  # each step removes two elements, in its own labels
        c, d = rng.sample(range(size), 2)
        steps.append({"contract": [c], "delete": [d]})
    ops.append({"op": "minor-chain.dual.gf2.n18", "kind": "minor-chain",
                "prime": 2, "rows": rows, "steps": steps, "expect": True})
    rows, twin = pair(2, 9, 18)
    cd = rng.sample(range(18), 4)
    ops.append({"op": "validate-certificate.gf2.n18",
                "kind": "validate-certificate", "prime": 2, "rows": rows,
                "twin": twin, "contract": sorted(cd[:2]),
                "delete": sorted(cd[2:]), "expect": True})
    blocks = block_diagonal(identity_plus(rng, 2, 4, 9, connected=True),
                            identity_plus(rng, 2, 5, 9, connected=True))
    order = list(range(18))
    rng.shuffle(order)
    x = rng.randrange(18)
    side = sorted(i for i in range(18) if (order[i] < 9) == (order[x] < 9))
    ops.append({"op": "kappa.free17.gf2.n18", "kind": "kappa", "prime": 2,
                "rows": permute_columns(blocks, order), "x": [x], "y": [],
                "expect": {"value": 0, "side": side}})
    edges = connected_graph(rng, 7, 15)
    ops.append({"op": "is-graphic.incidence.n15", "kind": "is-graphic",
                "prime": 2, "rows": incidence(7, edges), "expect": True})
    return ops


def minor_search(rng: random.Random) -> list[dict]:
    """CLI queries with answers known from how each host was built.

    Binary hosts have no U(2,4) minor; ternary and graphic hosts have no F7
    minor; planted hosts contain the planted matroid as a restriction. Two
    construct commands write documents through the exchange format.
    """
    ops = []

    def minor(host, target, exit_code):
        ops.append({"op": f"minor-test.{host['tag']}.{target}",
                    "kind": "minor-test", "host": host, "target": target,
                    "expect": {"exit": exit_code}})

    def graphic(host, exit_code):
        ops.append({"op": f"graphic-test.{host['tag']}",
                    "kind": "graphic-test", "host": host,
                    "expect": {"exit": exit_code}})

    # simple hosts: a search's cost varies less between random instances
    for _ in range(3):
        minor({"tag": "binary", "kind": "linear", "prime": 2,
               "rows": simple_matrix(rng, 2, 5, 14)}, "U24", 1)
    for _ in range(6):
        minor({"tag": "ternary", "kind": "linear", "prime": 3,
               "rows": simple_matrix(rng, 3, 4, 10)}, "F7", 1)
    for _ in range(2):
        minor({"tag": "graph", "kind": "graph", "n_vertices": 6,
               "edges": connected_graph(rng, 6, 13)}, "F7", 1)
    for _ in range(2):
        host = {"tag": "planted-f7", "kind": "linear", "prime": 2,
                "rows": planted(rng, 2, 4, 12, F7_COLUMNS)}
        minor(host, "F7", 0)
        graphic(host, 1)
    for _ in range(2):
        host = {"tag": "planted-u24", "kind": "linear", "prime": 3,
                "rows": planted(rng, 3, 4, 12, U24_COLUMNS)}
        minor(host, "U24", 0)
        graphic(host, 1)
    for _ in range(4):
        edges = connected_graph(rng, 6, 12)
        graphic({"tag": "incidence", "kind": "linear", "prime": 2,
                  "rows": incidence(6, edges)}, 0)
    for _ in range(2):
        rows = identity_plus(rng, 3, 4, 10, connected=True)
        x, y = rng.sample(range(10), 2)
        ops.append({"op": "query.kappa", "kind": "query",
                    "host": {"tag": "connected", "kind": "linear", "prime": 3,
                             "rows": rows},
                    "argv": ["kappa", "--x", str(x), "--y", str(y)],
                    "expect": {"exit": 0, "value": 1}})
    ops.append({"op": "query.tangle", "kind": "query",
                "host": {"tag": "clique5", "kind": "graph", "n_vertices": 5,
                         "edges": relabel(rng, 5, clique_edges(5))},
                "argv": ["tangle", "--order", str(tangle_order(4))],
                "expect": {"exit": 0, "value": "valid tangle",
                           "maximal-members": TK_MAXIMAL[5]}})
    ops.append({"op": "query.vertical", "kind": "query",
                "host": {"tag": "connected", "kind": "linear", "prime": 2,
                         "rows": identity_plus(rng, 2, 5, 10, connected=True)},
                "argv": ["vertical", "--k", "2"],
                "expect": {"exit": 0, "value": True}})
    order = list(range(10))
    rng.shuffle(order)
    blocks = block_diagonal(identity_plus(rng, 2, 2, 5, connected=True),
                            identity_plus(rng, 2, 3, 5, connected=True))
    ops.append({"op": "query.vertical", "kind": "query",
                "host": {"tag": "two-blocks", "kind": "linear", "prime": 2,
                         "rows": permute_columns(blocks, order)},
                "argv": ["vertical", "--k", "2"],
                "expect": {"exit": 0, "value": False}})
    ops.append({"op": "construct.clique", "kind": "construct",
                "argv": ["--family", "clique", "--n", "6"],
                "expect": {"exit": 0, "rank": 5, "elements": 15,
                           "epsilon": 15}})
    ops.append({"op": "construct.uniform", "kind": "construct",
                "argv": ["--family", "uniform", "--rank", "3", "--n", "7"],
                "expect": {"exit": 0, "rank": 3, "elements": 7, "epsilon": 7}})
    return ops


SPECS = {"tangle-sweep": tangle_sweep, "oracle-sweep": oracle_sweep,
         "minor-search": minor_search}


# Input variants per run; pass i runs variant i % VARIANTS, so one run
# averages over many random instances where instance cost varies.
VARIANTS = {"tangle-sweep": 32, "oracle-sweep": 8, "minor-search": 16}


def specs(workload: str, seed: int) -> list[list[dict]]:
    """The workload's input variants, each a list of operation specs. Slot i
    holds the same kind of operation in every variant."""
    return [SPECS[workload](random.Random(f"{workload}:{seed}:{v}"))
            for v in range(VARIANTS[workload])]


# ---------------------------------------------------------------------------
# reference ranks for spot checks


def gf_rank(p: int, columns: list[list[int]]) -> int:
    """Rank of a list of columns over GF(p), by plain elimination."""
    rows = [list(c) for c in columns]
    rank = 0
    width = len(rows[0]) if rows else 0
    for col in range(width):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], p - 2, p)
        rows[rank] = [(x * inv) % p for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                c = rows[i][col]
                rows[i] = [(x - c * y) % p for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def matrix_rank_of(p: int, rows: list[list[int]], subset) -> int:
    return gf_rank(p, [[row[e] for row in rows] for e in subset])


def graph_rank_of(n_vertices: int, edges, subset) -> int:
    parent = list(range(n_vertices))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    rank = 0
    for e in subset:
        a, b = find(edges[e][0]), find(edges[e][1])
        if a != b:
            parent[a] = b
            rank += 1
    return rank
