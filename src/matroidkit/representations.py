"""Concrete matroid representations: GF(p) matrices and (decorated) graphs.

Each representation object can build its Matroid (it becomes the matroid's
provenance) and, where the class is closed under the operation, produce a
reduced representation of a minor so that derived matroids stay concrete
and serializable.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Optional, Sequence

import numpy as np

from ._bits import (bits, element_steps, find, mask_of, popcount_table,
                    subset_sums, union)
from .core import TABLE_BUDGET, Matroid, check_size, rank_table
from .errors import DomainError, GroundSetError

SUPPORTED_PRIMES = (2, 3, 5, 7)

# Bytes of support flags one step of the codeword enumeration compares.
_WORD_BLOCK = 1 << 22


def _inverses(p: int) -> list[int]:
    return [0] + [pow(a, p - 2, p) for a in range(1, p)]


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _pack(col: Sequence[int]) -> int:
    """A GF(2) column as an int: bit j is entry j."""
    return sum(1 << j for j, x in enumerate(col) if x)


def _unpack(packed: Iterable[int], n_rows: int) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple((c >> j) & 1 for j in range(n_rows)) for c in packed)


def _gf2_rank(packed: tuple[int, ...]):
    """Rank oracle of GF(2) columns packed into ints, by elimination on
    their leading bits.

    The oracle's batch attribute ranks an array of masks at once: each
    mask's columns, as uint64, are reduced in turn against the ones it
    kept so far by v = min(v, v ^ b), which clears b's leading bit from v.
    A kept v has no leading bit of an earlier one, so one pass in keeping
    order reduces fully; LinearRep.rank_table_fast takes the same step.
    Columns past 64 bits are ranked one mask at a time.

    A single read keeps a dict from leading bit to kept column instead: v
    meets only the kept columns whose leading bit it reaches, one lookup
    each, where the min form xors every kept column into v. On Python
    ints that form measured 1.7-2.6 times slower per read, from 3 x 7 to
    10 x 22 random matrices (2-core machine).
    """

    def rank_mask(mask: int) -> int:
        lead: dict[int, int] = {}
        r = 0
        for e in bits(mask):
            v = packed[e]
            while v:
                h = v.bit_length() - 1
                w = lead.get(h)
                if w is None:
                    lead[h] = v
                    r += 1
                    break
                v ^= w
        return r

    def rank_masks(masks: np.ndarray) -> np.ndarray:
        if max(packed, default=0) >> 64:
            return np.fromiter(map(rank_mask, masks.tolist()), np.uint8,
                               len(masks))
        cols = np.array((0, *packed), dtype=np.uint64)  # 1 + e is column e
        rank = np.zeros(len(masks), dtype=np.uint8)
        kept: list[np.ndarray] = []
        for step in element_steps(masks):
            v = cols[step]
            for b in kept:
                np.minimum(v, v ^ b, out=v)
            rank += v != 0
            kept.append(v)
        return rank

    rank_mask.batch = rank_masks
    return rank_mask


def _eliminate(a: list[list[int]], p: int, columns: Iterable[int]
               ) -> list[int]:
    """Row-reduce the GF(p) rows a in place, pivoting on the given columns
    in turn, and return the columns that took a pivot. The i-th pivot row
    is moved up to row i; it is 1 in the i-th pivot column, where every
    other row is 0. The rows without a pivot follow in their own order.
    The one GF(p) list elimination, shared by _code_basis,
    LinearRep.dual_rep, LinearRep.minor_rep and _fix_ternary."""
    inv = _inverses(p)
    piv: list[int] = []
    for j in columns:
        r = len(piv)
        if r == len(a):
            break
        i = next((i for i in range(r, len(a)) if a[i][j]), None)
        if i is None:
            continue
        c = inv[a[i][j]]
        top = [x * c % p for x in a.pop(i)]
        a.insert(r, top)
        for i, row in enumerate(a):
            if i != r and (c := row[j]):
                a[i] = [(x - c * y) % p for x, y in zip(row, top)]
        piv.append(j)
    return piv


def _dual_basis(a: list[list[int]], piv: list[int], m: int) -> np.ndarray:
    """Rows spanning the dual of the row space of a GF(p) matrix with m
    columns, given as the lists a that _eliminate reduced on every column,
    with pivots piv: a[:r] is [I_r | A] (columns permuted), and its dual
    code is the row space of [-A^T | I_{m-r}] (Oxley, Matroid Theory,
    2.2.8), here [A^T | I] in the same columns, as negating the pivot
    columns changes no word's support and no rank."""
    r = len(piv)
    free = [j for j in range(m) if j not in piv]
    dual = np.zeros((m - r, m), dtype=np.uint8)
    dual[:, piv] = np.array(a[:r], dtype=np.uint8).reshape(r, m)[:, free].T
    dual[range(m - r), free] = 1
    return dual


def _code_basis(rows: np.ndarray, p: int) -> tuple[np.ndarray, bool]:
    """A basis of the row space C of a GF(p) matrix with m columns, or of
    its dual code when dim C > m / 2, and whether it is the dual's: the
    rows reduced to [I | A] (columns permuted) by _eliminate on every
    column, else their _dual_basis. The elimination runs on Python lists,
    which beat numpy calls on the small matrices most tables come from."""
    a = rows.tolist()
    m = rows.shape[1]
    piv = _eliminate(a, p, range(m))
    r = len(piv)
    if 2 * r <= m:
        return np.array(a[:r], dtype=np.uint8).reshape(r, m), False
    return _dual_basis(a, piv, m), True


def _span(basis: np.ndarray, p: int) -> np.ndarray:
    """The p^k words of k GF(p) basis rows, one per row of a uint8 array."""
    words = np.zeros((1, basis.shape[1]), dtype=np.uint8)
    scale = np.arange(p, dtype=np.uint8)[:, None, None]
    for b in basis:
        words = ((words + scale * b) % p).reshape(-1, basis.shape[1])
    return words


def _support_table(basis: np.ndarray, p: int, dual: bool) -> np.ndarray:
    """The rank table read off the supports of the words basis spans: k
    rows of a matrix when dual is False, so r(S) = k - log_p of the words
    vanishing on S, else of its dual code, so r(T) = |T| - log_p of the
    words with support inside T.

    Each word is a - b once, a in the span of one half of the basis and b
    in the other's, and it is nonzero at column j exactly when a_j != b_j,
    so one broadcast comparison of the two spans gives a block of
    supports, _WORD_BLOCK bytes at a time. g counts the supports, and
    subset sums turn g[T] into the words with support inside T."""
    k, m = basis.shape
    words = p ** k
    g = np.zeros(1 << m, dtype=np.min_scalar_type(words))
    one = g.dtype.type(1)
    first, second = _span(basis[k // 2:], p), _span(basis[:k // 2], p)
    # a word takes m bytes of flags, m / 8 packed and 8 as an index; a
    # block takes at most four times the table's bytes, as the DP's state
    step = max(1, min(_WORD_BLOCK, 4 << m) // (len(second) * (m + 16)))
    for lo in range(0, len(first), step):
        differ = first[lo:lo + step, None, :] != second
        packed = np.packbits(differ, axis=-1, bitorder="little")
        support = np.zeros(packed.shape[:2] + (8,), dtype=np.uint8)
        support[..., :packed.shape[2]] = packed
        np.add.at(g, support.view(np.int64).ravel(), one)
    subset_sums(g)
    exponent = np.arange(k + 1)
    lookup = np.zeros(words + 1, dtype=np.uint8)
    if dual:
        lookup[p ** exponent] = exponent
        table = popcount_table(m)
        table -= lookup[g]
        return table
    lookup[p ** exponent] = k - exponent
    return lookup[g[::-1]]  # the words vanishing on S have support in E - S


# ---------------------------------------------------------------------------
# linear representations


@dataclass(frozen=True)
class LinearRep:
    """Column vectors over GF(prime); element i is column i."""

    prime: int
    n_rows: int
    columns: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.prime not in SUPPORTED_PRIMES:
            raise DomainError(f"prime must be one of {SUPPORTED_PRIMES}")
        if not _is_int(self.n_rows) or self.n_rows < 0:
            raise DomainError("n_rows must be a non-negative integer")
        if set(map(len, self.columns)) - {self.n_rows}:
            raise DomainError("ragged matrix")
        # two passes in C over the entries: their types, then their values
        flat = chain.from_iterable
        kinds = set(map(type, flat(self.columns)))
        if (any(not issubclass(t, int) or issubclass(t, bool) for t in kinds)
                or not set(flat(self.columns)) <= set(range(self.prime))):
            raise DomainError("entries must be integers reduced mod p")

    def matroid(self, name: str = "") -> Matroid:
        if self.prime == 2:
            rank_mask = _gf2_rank(tuple(_pack(col) for col in self.columns))
        else:
            p = self.prime
            nr = self.n_rows
            cols = self.columns
            inv = _inverses(p)

            def rank_mask(mask: int) -> int:
                pivots: list[tuple[int, list[int]]] = []
                r = 0
                for e in bits(mask):
                    v = list(cols[e])
                    for prow, pvec in pivots:
                        c = v[prow]
                        if c:
                            for j in range(nr):
                                v[j] = (v[j] - c * pvec[j]) % p
                    h = next((j for j in range(nr) if v[j]), -1)
                    if h >= 0:
                        iv = inv[v[h]]
                        pivots.append((h, [(x * iv) % p for x in v]))
                        r += 1
                return r

            def rank_masks(masks: np.ndarray) -> np.ndarray:
                """The same elimination over an array of masks, each
                column a uint8 vector scaled to 1 at its pivot, the
                first nonzero entry."""
                rank = np.zeros(len(masks), dtype=np.uint8)
                if nr == 0:  # every set has rank 0, and no entry to pivot at
                    return rank
                vecs = np.zeros((len(cols) + 1, nr), dtype=np.uint8)
                vecs[1:] = np.reshape(cols, (-1, nr))  # 1 + e is column e
                inv_p = np.array(inv, dtype=np.uint8)
                rows = np.arange(len(masks))
                pivots: list[tuple[np.ndarray, np.ndarray]] = []
                for step in element_steps(masks):
                    v = vecs[step]
                    for prow, pvec in pivots:
                        # v - c * pvec = v + (p - c) * pvec, at most 48
                        v += (p - v[rows, prow])[:, None] * pvec
                        v %= p
                    h = (v != 0).argmax(axis=1)
                    rank += v[rows, h] != 0
                    v *= inv_p[v[rows, h]][:, None]  # a dead v stays 0
                    v %= p
                    pivots.append((h, v))
                return rank

            rank_mask.batch = rank_masks

        return Matroid(len(self.columns), rank_mask, provenance=self, name=name)

    def rank_table_fast(self) -> Optional[np.ndarray]:
        """Rank of every column subset: from codeword supports over an odd
        prime or past 64 GF(2) rows, else by doubling over the columns.

        Over GF(p), the combinations of a matrix's n rows whose word
        vanishes on S number p^(n - r(S)), and the words of its dual code
        (the vectors orthogonal to every row, m - r of them independent)
        with support inside T number p^(|T| - r(T)) (Greene 1976). So one
        histogram of word supports and one subset-sum pass per column give
        every rank. The words come from the matrix's own rows when there
        are at most m / 2 of them and p^n <= 2^m; else from its rows
        reduced to [I | A], of rank r, or from the dual code's basis
        [-A^T | I] when 2r > m.
        That is p^k words, k = min(r, m - r), and this path is taken
        whenever p^k <= 2^m: always over GF(3), so GF(3) builds every
        table up to TABLE_CAP, and over GF(2) past 64 rows (k <= m / 2).

        Otherwise (64 GF(2) rows or fewer; GF(5)/GF(7) with more words than
        subsets) the table doubles over the columns. Before step i, row x
        of the state holds columns i..m-1 reduced modulo span(x), x a
        subset of columns 0..i-1, each as the coset representative that is
        zero at every pivot. Step i reads w, column i reduced: subsets with
        i gain rank where w != 0, and their rows are the remaining columns
        reduced by w. Over GF(2), with columns packed into one unsigned
        int, the pivot is w's leading bit and the step is the batch
        oracle's v = min(v, v ^ w), two contiguous passes: it clears that
        bit from v and sets no earlier pivot's, as w has none of them, so
        a reduced column is 0 exactly when it lies in the span. Over GF(p)
        (columns as uint8 vectors) the pivot is w's first nonzero entry.

        Either path returns None, before allocating, when its workspace
        would exceed TABLE_BUDGET bytes.
        """
        m = len(self.columns)
        p, nr = self.prime, self.n_rows
        if p != 2 or nr > 64:
            basis = np.reshape(self.columns, (m, nr)).T.astype(np.uint8)
            dual = False
            if 2 * nr > m or p ** nr > 1 << m:
                basis, dual = _code_basis(basis, p)
            words = p ** len(basis)
            if words <= 1 << m:
                count = np.min_scalar_type(words).itemsize
                # counts, table, exponent lookup, one temporary; one block
                if (1 << m) * (3 + count) + _WORD_BLOCK > TABLE_BUDGET:
                    return None
                return _support_table(basis, p, dual)
        packed = p == 2
        if packed:
            dtype = np.min_scalar_type((1 << nr) - 1)
            col_bytes = dtype.itemsize
        else:
            col_bytes = max(nr, 1)
        # Per subset: the table's byte, and col_bytes each for the old and
        # the new state, which hold at most 2^m columns between them. The
        # GF(2) step allocates nothing more; the third col_bytes bounds the
        # GF(p) step's one-byte arrays per state row (c and p - c).
        if (1 << m) * (1 + 3 * col_bytes) > TABLE_BUDGET:
            return None
        rank = np.zeros(1 << m, dtype=np.uint8)
        if packed:
            state = np.array([_pack(col) for col in self.columns],
                             dtype=dtype)[:, None]
        else:
            state = np.zeros((m, 1, col_bytes), dtype=np.uint8)
            state[:, 0, :nr] = np.reshape(self.columns, (m, nr))
            inv = np.array(_inverses(p), dtype=np.uint8)
        for i in range(m):
            half = 1 << i
            w = state[0]
            live = w != 0 if packed else (w != 0).any(axis=1)
            np.add(rank[:half], live, out=rank[half:2 * half])
            if i + 1 == m:
                break
            rest = state[1:]
            state = np.empty((m - i - 1, 2 * half) + rest.shape[2:], rest.dtype)
            state[:, :half] = rest
            hi = state[:, half:]
            if packed:
                np.bitwise_xor(rest, w, out=hi)
                np.minimum(hi, rest, out=hi)
            else:
                piv = (w != 0).argmax(axis=1)
                cols = np.arange(half)
                # c = rest[piv] / w[piv]; hi = rest - c * w = rest + (p - c) * w
                c = rest[:, cols, piv] * inv[w[cols, piv]] % p
                np.multiply((p - c)[:, :, None], w, out=hi)
                hi += rest
                hi %= p
        return rank

    def to_linear(self) -> "LinearRep":
        return self

    def dual_rep(self) -> "LinearRep":
        """Matrix of the dual matroid, column i still element i: the
        _dual_basis of the rows."""
        m = len(self.columns)
        a = [[col[j] for col in self.columns] for j in range(self.n_rows)]
        dual = _dual_basis(a, _eliminate(a, self.prime, range(m)), m)
        return LinearRep(self.prime, len(dual),
                         tuple(map(tuple, dual.T.tolist())))

    def minor_rep(self, contract: tuple[int, ...], delete: tuple[int, ...]
                  ) -> "LinearRep":
        """Matrix of the minor: _eliminate pivots on the contracted
        columns, and their pivot rows go with them. A contracted column
        left without a pivot is a loop by then, so it is just deleted."""
        a = [[col[j] for col in self.columns] for j in range(self.n_rows)]
        rest = a[len(_eliminate(a, self.prime, sorted(contract))):]
        gone = set(contract) | set(delete)
        return LinearRep(self.prime, len(rest), tuple(
            tuple(row[d] for row in rest)
            for d in range(len(self.columns)) if d not in gone))


def from_matrix(rows: Sequence[Sequence[int]], prime: int,
                name: str = "") -> Matroid:
    """Matroid of the column vectors of a matrix over GF(prime)."""
    if prime not in SUPPORTED_PRIMES:
        raise DomainError(f"prime must be one of {SUPPORTED_PRIMES}")
    if rows:
        width = len(rows[0])
        if any(len(row) != width for row in rows):
            raise DomainError("ragged matrix")
    else:
        width = 0
    check_size(width)
    columns = tuple(
        tuple(int(rows[i][j]) % prime for i in range(len(rows)))
        for j in range(width)
    )
    return LinearRep(prime, len(rows), columns).matroid(name=name)


def standard_rep(table: np.ndarray, prime: int) -> Optional[LinearRep]:
    """A matrix [I | A] over GF(prime), prime 2 or 3, whose rank table is
    table, or None when the matroid has no GF(prime) representation.

    B is the greedy basis off the table, and row i belongs to its i-th
    element. Column e outside B is supported on e's fundamental circuit:
    b is in it exactly when B - b + e is a basis. Binary and ternary
    matroids are uniquely representable (Oxley, Matroid Theory, 2nd ed.,
    6.6), so over GF(2) the supports fix the matrix, and over GF(3) they
    do once the entries on a spanning forest of the supports' row-column
    graph are 1 (the Brylawski-Lucas normalization, Oxley 6.4). Each other
    entry, column by column, closes a cycle through the entries placed
    before it; on a chordless one the cycle's square submatrix has two
    nonzero diagonals, so exactly one of the values 1 and 2 makes it
    nonsingular, and the table says whether it is: B minus the cycle's
    rows plus its columns is a basis. A matrix is returned only when its
    whole rank table equals table.
    """
    if prime not in (2, 3):
        raise DomainError("standard_rep needs prime 2 or 3")
    t = table.tobytes()
    n, r = table.size.bit_length() - 1, t[-1]
    basis, bmask = [], 0
    for e in range(n):
        if t[bmask | 1 << e] > len(basis):
            basis.append(e)
            bmask |= 1 << e
    entry = {(i, e): 1 for e in range(n) if not bmask >> e & 1
             for i, b in enumerate(basis) if t[bmask ^ 1 << b | 1 << e] == r}
    if prime == 3:
        _fix_ternary(t, basis, bmask, entry)
    columns = [tuple(entry.get((i, e), int(b == e))
                     for i, b in enumerate(basis)) for e in range(n)]
    rep = LinearRep(prime, r, tuple(columns))
    return rep if np.array_equal(rank_table(rep.matroid()), table) else None


def _fix_ternary(t: bytes, basis: list[int], bmask: int,
                 entry: dict[tuple[int, int], int]) -> None:
    """Set the GF(3) entries of standard_rep off a spanning forest.

    Vertex i is row i and ~e is column e. An entry joining two components
    keeps its 1 and joins the forest. Any other entry (i, e) is pending:
    the shortest path from i to ~e through the placed entries has no
    placed chord, and a pending entry (k, e) with k on it is a chord whose
    own path is shorter, so it goes first.
    """
    r = len(basis)
    parent = {v: v for i, e in entry for v in (i, ~e)}
    adj: dict[int, list[int]] = {v: [] for v in parent}

    def place(i: int, e: int) -> None:
        adj[i].append(~e)
        adj[~e].append(i)

    for e in sorted({e for _, e in entry}):
        pending = []
        for i in range(r):
            if (i, e) in entry:
                if union(parent, i, ~e):
                    place(i, e)
                else:
                    pending.append(i)
        while pending:
            i = pending[0]
            path = _shortest_path(adj, i, ~e)
            while chord := next((k for k in pending
                                 if k != i and k in path), None):
                i, path = chord, _shortest_path(adj, chord, ~e)
            rows = [v for v in path if v >= 0]
            cols = [~v for v in path if v < 0]
            basic = t[bmask ^ mask_of(basis[k] for k in rows)
                      | mask_of(cols)] == r
            sub = [[entry.get((k, c), 0) for c in cols] for k in rows]
            singular = len(_eliminate(sub, 3, range(len(cols)))) < len(rows)
            if singular == basic:
                entry[i, e] = 2
            pending.remove(i)
            place(i, e)


def _shortest_path(adj: dict[int, list[int]], start: int, goal: int
                   ) -> list[int]:
    """Vertices of a shortest start-goal path, by breadth-first search;
    goal must be reachable."""
    prev = {start: start}
    queue = [start]
    for v in queue:
        for w in adj[v]:
            if w not in prev:
                prev[w] = v
                queue.append(w)
    path = [goal]
    while path[-1] != start:
        path.append(prev[path[-1]])
    return path


# ---------------------------------------------------------------------------
# graphs


def _check_graph(n_vertices: int, edges: tuple[tuple[int, int], ...]) -> None:
    if not _is_int(n_vertices) or n_vertices < 0:
        raise GroundSetError("n_vertices must be a non-negative integer")
    check_size(len(edges))
    for u, v in edges:
        if not (_is_int(u) and _is_int(v)
                and 0 <= u < n_vertices and 0 <= v < n_vertices):
            raise GroundSetError("edge endpoint out of range")


def _incidence(edges: tuple[tuple[int, int], ...]
               ) -> tuple[dict[int, int], tuple[int, ...]]:
    """A graph's GF(2) incidence matrix over only the vertices its edges
    touch: the row of each touched vertex, in ascending vertex order, and
    each edge's column packed into an int. A loop is the zero column. Its
    cost never depends on the number of vertices."""
    row = {v: k for k, v in enumerate(sorted({x for e in edges for x in e}))}
    return row, tuple((1 << row[u]) ^ (1 << row[v]) for u, v in edges)


@dataclass(frozen=True)
class GraphRep:
    """Multigraph; element i is edge i. Loops (u == u) allowed."""

    n_vertices: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        _check_graph(self.n_vertices, self.edges)

    def matroid(self, name: str = "") -> Matroid:
        return Matroid(len(self.edges), _gf2_rank(_incidence(self.edges)[1]),
                       provenance=self, name=name)

    def to_linear(self) -> LinearRep:
        row, packed = _incidence(self.edges)
        return LinearRep(2, len(row), _unpack(packed, len(row)))

    def minor_rep(self, contract: tuple[int, ...], delete: tuple[int, ...]
                  ) -> "GraphRep":
        """Graph of the minor: merge endpoints of contracted edges. A root's
        label is its rank among the roots, over the touched vertices only."""
        parent = {x: x for x in _incidence(self.edges)[0]}
        for c in contract:
            union(parent, *self.edges[c])
        merged = [x for x in parent if find(parent, x) != x]  # ascending
        rename = {x: x - bisect_left(merged, x) for x in parent}
        gone = set(contract) | set(delete)
        new_edges = tuple(
            (rename[find(parent, u)], rename[find(parent, v)])
            for i, (u, v) in enumerate(self.edges)
            if i not in gone
        )
        return GraphRep(self.n_vertices - len(merged), new_edges)

    # Not shared with _DecoratedGraphRep: perfbench's Tracer.install() wraps
    # it from this class's own __dict__ and reports a shared function object
    # as a missed binding.
    def rank_table_fast(self) -> Optional[np.ndarray]:
        return self.to_linear().rank_table_fast()


def from_graph(n_vertices: int, edges: Iterable[tuple[int, int]],
               name: str = "") -> Matroid:
    """Cycle matroid of a multigraph."""
    return GraphRep(n_vertices, tuple((u, v) for u, v in edges)
                    ).matroid(name=name)


# ---------------------------------------------------------------------------
# decorated graphs: even-cycle and signed-graphic


@dataclass(frozen=True)
class _DecoratedGraphRep:
    """Graph plus a set of odd edges, represented through to_linear."""

    n_vertices: int
    edges: tuple[tuple[int, int], ...]
    odd: frozenset[int]

    def __post_init__(self):
        _check_graph(self.n_vertices, self.edges)
        if any(not (0 <= i < len(self.edges)) for i in self.odd):
            raise GroundSetError("odd set must index edges")

    def matroid(self, name: str = "") -> Matroid:
        inner = self.to_linear().matroid()
        return Matroid(len(self.edges), inner._rank_mask, provenance=self,
                       name=name)

    def rank_table_fast(self) -> Optional[np.ndarray]:
        return self.to_linear().rank_table_fast()

    def _minor(self, contract: tuple[int, ...], delete: tuple[int, ...]):
        if contract:  # contractions leave the class but not its matrix
            return self.to_linear().minor_rep(contract, delete)
        gone = set(delete)
        keep = [i for i in range(len(self.edges)) if i not in gone]
        renum = {old: new for new, old in enumerate(keep)}
        return type(self)(
            self.n_vertices,
            tuple(self.edges[i] for i in keep),
            frozenset(renum[i] for i in self.odd if i in renum),
        )


# Each subclass defines its own minor_rep: perfbench's Tracer.install()
# reads it from the class's own __dict__ and raises KeyError on an inherited
# one.


@dataclass(frozen=True)
class EvenCycleRep(_DecoratedGraphRep):
    """Graph plus a set W of odd edges; the matroid of the GF(2) matrix whose
    columns are edge incidence vectors, over the vertices the edges touch,
    stacked with the characteristic row of W. A loop in W is a nonloop of the matroid (its column is the w-row
    unit); a loop outside W is a matroid loop.
    """

    def to_linear(self) -> LinearRep:
        row, packed = _incidence(self.edges)
        w = 1 << len(row)  # the characteristic row of W comes last
        packed = (c | w if i in self.odd else c for i, c in enumerate(packed))
        return LinearRep(2, len(row) + 1, _unpack(packed, len(row) + 1))

    def minor_rep(self, contract: tuple[int, ...], delete: tuple[int, ...]):
        return self._minor(contract, delete)


@dataclass(frozen=True)
class SignedGraphRep(_DecoratedGraphRep):
    """Graph plus odd edges over GF(3): column b_u + b_v for odd edges,
    b_u - b_v otherwise. Odd loops give +-b_v (a nonloop); even loops are
    matroid loops. Swapping an edge's end order negates its column, so the
    matroid is orientation-independent.
    """

    def to_linear(self) -> LinearRep:
        row = _incidence(self.edges)[0]
        columns = []
        for i, (u, v) in enumerate(self.edges):
            col = [0] * len(row)
            sign = 1 if i in self.odd else -1
            col[row[u]] = (col[row[u]] + 1) % 3
            col[row[v]] = (col[row[v]] + sign) % 3
            columns.append(tuple(col))
        return LinearRep(3, len(row), tuple(columns))

    def minor_rep(self, contract: tuple[int, ...], delete: tuple[int, ...]):
        return self._minor(contract, delete)


def even_cycle(n_vertices: int, edges: Iterable[tuple[int, int]],
               odd: Iterable[int], name: str = "") -> Matroid:
    return EvenCycleRep(n_vertices, tuple((u, v) for u, v in edges),
                        frozenset(odd)).matroid(name=name)


def signed_graphic(n_vertices: int, edges: Iterable[tuple[int, int]],
                   odd: Iterable[int], name: str = "") -> Matroid:
    return SignedGraphRep(n_vertices, tuple((u, v) for u, v in edges),
                          frozenset(odd)).matroid(name=name)


def has_blocking_pair(rep) -> Optional[tuple[int, int]]:
    """Least vertex pair (u, v) meeting every odd edge, or None.

    Inclusive reading: one vertex covering everything still yields a pair.
    Loops count as incident to their single endpoint. An empty odd set is
    covered by the least pair.
    """
    if not isinstance(rep, _DecoratedGraphRep):
        raise DomainError("blocking pairs are defined for decorated graphs")
    nv = rep.n_vertices
    odd_edges = [rep.edges[i] for i in sorted(rep.odd)]
    # the least pair (u, v) has u = 0 or u on an odd edge: otherwise v
    # alone meets every odd edge, and so does the smaller pair (0, v)
    for u in sorted({0}.union(*odd_edges)):
        ends = [set(e) for e in odd_edges if u not in e] or [{u + 1}]
        v = min((x for x in set.intersection(*ends) if x > u), default=nv)
        if v < nv:
            return (u, v)
    return (0, 0) if nv == 1 else None  # every edge is a loop at 0
