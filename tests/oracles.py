"""Reference implementations used to cross-check library results.

Everything here is written from the definitions with no pruning and no
shared code with the package, so agreement is meaningful evidence.
"""

from __future__ import annotations

import itertools

import numpy as np


def eps_oracle(m) -> int:
    """Point count as the number of rank-1 flats."""
    seen = set()
    for e in range(m.size):
        if m.r(1 << e) == 0:
            continue
        cl = 0
        for f in range(m.size):
            if m.r((1 << e) | (1 << f)) == 1:
                cl |= 1 << f
        seen.add(cl)
    return len(seen)


def gf_rank(cols, p: int) -> int:
    """Rank of a list of GF(p) vectors by plain Gaussian elimination on
    them as rows (row rank equals column rank)."""
    rows = [[x % p for x in c] for c in cols]
    rank = 0
    for j in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(rank, len(rows)) if rows[i][j]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][j], p - 2, p)
        for i in range(len(rows)):
            if i != rank and rows[i][j]:
                c = rows[i][j] * inv
                rows[i] = [(x - c * y) % p for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def linear_rep_brute(m, p: int):
    """Columns of a matrix [I | A] over GF(p) with m's rank function, or
    None, trying every A for the greedy basis B of m: B's columns are the
    unit vectors, every other column runs over all p^r vectors whose first
    nonzero entry is 1, and a choice of the first columns is dropped as
    soon as some subset of them ranks otherwise than in m. Every GF(p)
    representation of m is such an [I | A] after row operations and column
    scaling, so None means m is not GF(p)-representable.
    """
    n, r = m.size, m.full_rank()
    basis = []
    for e in range(n):
        if m.r(sum(1 << b for b in basis) | 1 << e) > len(basis):
            basis.append(e)
    unit = {b: tuple(int(i == j) for j in range(r))
            for i, b in enumerate(basis)}
    vectors = [v for v in itertools.product(range(p), repeat=r)
               if next((x for x in v if x), 1) == 1]
    cols = []

    def fits(e):
        return all(gf_rank([cols[i] for i in range(e) if s >> i & 1]
                           + [cols[e]], p) == m.r(s | 1 << e)
                   for s in range(1 << e))

    def place(e):
        if e == n:
            return True
        for v in [unit[e]] if e in unit else vectors:
            cols.append(v)
            if fits(e) and place(e + 1):
                return True
            cols.pop()
        return False

    return tuple(cols) if place(0) else None


def graph_rank(n_vertices: int, edges, mask: int) -> int:
    """Rank of an edge subset: vertices minus components, via union-find."""
    parent = list(range(n_vertices))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    rank = 0
    for i, (u, v) in enumerate(edges):
        if not (mask >> i) & 1:
            continue
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
            rank += 1
    return rank


def graph_minor_walk(n_vertices: int, edges, contract, delete):
    """(vertex count, edges) of a graph minor: union-find over every vertex,
    hanging u's root under v's root for each contracted edge (u, v), then
    numbering all roots in ascending order."""
    parent = list(range(n_vertices))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for c in contract:
        u, v = edges[c]
        if find(u) != find(v):
            parent[find(u)] = find(v)
    roots = sorted({find(x) for x in range(n_vertices)})
    rename = {root: i for i, root in enumerate(roots)}
    return len(roots), tuple((rename[find(u)], rename[find(v)])
                             for i, (u, v) in enumerate(edges)
                             if i not in contract and i not in delete)


def blocking_pair_walk(n_vertices: int, odd_edges):
    """Least vertex pair u < v meeting every odd edge, trying every pair;
    (0, 0) on a single vertex."""
    if n_vertices == 1:
        return (0, 0)
    for u, v in itertools.combinations(range(n_vertices), 2):
        if all(u in e or v in e for e in odd_edges):
            return (u, v)
    return None


def lam(m, z: int) -> int:
    return m.r(z) + m.r(m.full_mask & ~z) - m.full_rank()


def _closure(m, x: int) -> int:
    """x plus every element whose addition keeps the rank."""
    rx = m.r(x)
    return x | sum(1 << e for e in range(m.size)
                   if m.r(x | 1 << e) == rx)


def flats_bfs(m) -> list[int]:
    """All flats as masks, ascending: a breadth-first search of oracle
    closures from cl(empty), one element added at a time."""
    start = _closure(m, 0)
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for f in frontier:
            for e in range(m.size):
                if not f >> e & 1:
                    g = _closure(m, f | 1 << e)
                    if g not in seen:
                        seen.add(g)
                        nxt.append(g)
        frontier = nxt
    return sorted(seen)


def _kappa_sides(m, xs, ys):
    """Every Z with X <= Z <= E - Y, by walking the submasks of E - X - Y."""
    xm, ym = m.mask(xs), m.mask(ys)
    free = m.full_mask & ~(xm | ym)
    sub = free
    while True:
        yield xm | sub
        if sub == 0:
            return
        sub = (sub - 1) & free


def kappa_brute(m, xs, ys) -> int:
    """Minimum lambda over every Z with X <= Z <= E - Y. No pruning."""
    return min(lam(m, z) for z in _kappa_sides(m, xs, ys))


def least_kappa_witness(m, xs, ys, value: int) -> int:
    """The least Z with X <= Z <= E - Y and lambda(Z) = value."""
    return min(z for z in _kappa_sides(m, xs, ys) if lam(m, z) == value)


def kappa_sweep(m, xs, ys) -> tuple[int, int]:
    """Least lambda over X <= Z <= E - Y and the least Z attaining it, read
    for every Z at once by two gathers on the rank table: r(Z) and r(E-Z)."""
    from matroidkit import rank_table

    xm, ym = m.mask(xs), m.mask(ys)
    z = np.array([xm], dtype=np.int64)
    for e in range(m.size):
        if not (xm | ym) >> e & 1:
            z = np.concatenate([z, z | (1 << e)])
    z.sort()
    table = rank_table(m).astype(np.int64)
    lam = table[z] + table[m.full_mask ^ z] - m.full_rank()
    i = int(np.argmin(lam))  # z ascends, so argmin is the least mask
    return int(lam[i]), int(z[i])


def minor_brute(host, target) -> bool:
    """Unpruned minor test: all contract/keep splits, all bijections."""
    n, t = host.size, target.size
    if t > n:
        return False
    els = range(n)
    for csize in range(n - t + 1):
        for contract in itertools.combinations(els, csize):
            cm = host.mask(contract)
            base = host.r(cm)
            rest = [e for e in els if e not in contract]
            for keep in itertools.combinations(rest, t):
                for perm in itertools.permutations(keep):
                    if _rank_agrees(host, cm, base, perm, target):
                        return True
    return False


def _rank_agrees(host, cm, base, perm, target) -> bool:
    t = len(perm)
    for mask in range(1 << t):
        hm = cm
        for i in range(t):
            if (mask >> i) & 1:
                hm |= 1 << perm[i]
        if host.r(hm) - base != target.r(mask):
            return False
    return True


def iso_brute(a, b):
    """Exhaustive isomorphism search over all permutations (n <= 8)."""
    if a.size != b.size or a.full_rank() != b.full_rank():
        return None
    n = a.size
    for perm in itertools.permutations(range(n)):
        if all(a.r(mask) == b.r(_image(mask, perm, n))
               for mask in range(1 << n)):
            return dict(enumerate(perm))
    return None


def embedding_all_subsets(host, target, candidates=None):
    """The embedding search that compares ranks on every subset of the
    placed prefix, through host.r and target.r. It places the elements in
    the order of isomorphism._constraint_order and tries candidates in the
    same order, so it returns the same first embedding, or None."""
    n = target.size
    small = [set(c) for k in (2, 3)
             for c in itertools.combinations(range(n), k)
             if target.r(sum(1 << e for e in c)) < k]
    order, placed = [], set()
    while len(order) < n:
        best = min((e for e in range(n) if e not in placed), key=lambda e: (
            -sum(1 for s in small if e in s and s - {e} <= placed), e))
        order.append(best)
        placed.add(best)
    if candidates is None:
        candidates = [list(range(host.size))] * n
    phi = {}

    def extend(depth):
        if depth == n:
            return True
        t = order[depth]
        for h in candidates[t]:
            if h in phi.values():
                continue
            phi[t] = h
            if all(target.r(sum(1 << e for e in x + (t,)))
                   == host.r(sum(1 << phi[e] for e in x + (t,)))
                   for k in range(depth + 1)
                   for x in itertools.combinations(order[:depth], k)) \
                    and extend(depth + 1):
                return True
            del phi[t]
        return False

    return dict(phi) if extend(0) else None


def _image(mask: int, perm, n: int) -> int:
    img = 0
    for i in range(n):
        if (mask >> i) & 1:
            img |= 1 << perm[i]
    return img


def certificate_walk(cert, host, target) -> bool:
    """Minor certificate check subset by subset through host.r and target.r.

    contract, delete and the mapping's image must partition E(host), the
    mapping must be a bijection onto the image, and for every target subset
    X: r_host(C + image(X)) - r_host(C) == r_target(X).
    """
    contract, delete = set(cert.contract), set(cert.delete)
    pairs = dict(cert.mapping)
    if sorted(pairs) != list(range(target.size)):
        return False
    image = set(pairs.values())
    if len(image) != target.size:
        return False
    if contract & delete or contract & image or delete & image:
        return False
    if contract | delete | image != set(range(host.size)):
        return False
    cm = sum(1 << c for c in contract)
    base = host.r(cm)
    for mask in range(1 << target.size):
        hm = cm
        for t, h in pairs.items():
            if (mask >> t) & 1:
                hm |= 1 << h
        if host.r(hm) - base != target.r(mask):
            return False
    return True


def is_clique(m) -> bool:
    """m is the cycle matroid of a complete graph.

    A simple graphic matroid of rank r with r(r+1)/2 elements is M(K_{r+1}):
    a connected realization has r + 1 vertices, and a simple graph on them
    with that many edges is complete. The graphic test is the package's
    is_graphic, which reads vertex stars off cocircuits and shares no code
    with its clique labelling.
    """
    from matroidkit import is_graphic

    n, r = m.size, m.full_rank()
    if any(m.r(1 << e) != 1 for e in range(n)):
        return False
    if any(m.r((1 << e) | (1 << f)) != 2
           for e, f in itertools.combinations(range(n), 2)):
        return False
    return n == r * (r + 1) // 2 and is_graphic(m) is not None


def graphic_tree_search(m):
    """(vertex count, edges) of a graph realizing m, or None, by trying
    every labelled spanning tree for a basis (at most 10 elements).

    A graphic matroid has a connected realization on r + 1 vertices, so a
    fixed basis of the parallel-class representatives is placed as a
    spanning tree with vertices numbered by first use; every other
    representative must then close a path of the tree, its fundamental
    circuit, and its parallel copies and the loops follow. The first
    placement whose graph ranks every subset as m does is returned.
    """
    n, r = m.size, m.full_rank()
    assert n <= 10, "the tree search is a reference for small inputs"
    reps, rep_of = [], {}
    for e in range(n):
        if m.r(1 << e) == 0:
            continue
        twin = next((f for f in reps if m.r((1 << e) | (1 << f)) == 1), e)
        if twin == e:
            reps.append(e)
        rep_of[e] = twin
    basis, bmask = [], 0
    for e in reps:
        if m.r(bmask | (1 << e)) > len(basis):
            basis.append(e)
            bmask |= 1 << e
    rest = [e for e in reps if e not in basis]
    circuit = {e: [b for b in basis
                   if m.r((bmask ^ (1 << b)) | (1 << e)) == r] for e in rest}

    def close_paths(placed):
        out, used = dict(placed), set(placed.values())
        for e in rest:
            degree = {}
            for b in circuit[e]:
                for v in placed[b]:
                    degree[v] = degree.get(v, 0) + 1
            odd = sorted(v for v, d in degree.items() if d % 2)
            if len(odd) != 2 or any(d != 2 for v, d in degree.items()
                                    if v not in odd):
                return None
            if tuple(odd) in used:
                return None
            used.add(tuple(odd))
            out[e] = tuple(odd)
        edges = tuple(out[rep_of[e]] if e in rep_of else (0, 0)
                      for e in range(n))
        if all(graph_rank(r + 1, edges, s) == m.r(s) for s in range(1 << n)):
            return r + 1, edges
        return None

    def place(i, comp, used, placed):
        if i == len(basis):
            return close_paths(placed)
        options = list(itertools.combinations(range(used), 2))
        if used < r + 1:
            options += [(a, used) for a in range(used)]
        if used + 1 < r + 1:
            options.append((used, used + 1))
        for a, b in options:
            if comp[a] == comp[b]:
                continue  # the tree edges must stay a forest
            merged = [comp[a] if c == comp[b] else c for c in comp]
            got = place(i + 1, merged, max(used, b + 1),
                        {**placed, basis[i]: (a, b)})
            if got is not None:
                return got
        return None

    return place(0, list(range(r + 1)), 0, {})


def tangle_rank_walk(t, xmask: int) -> int:
    """kappa_T(X): theta - 1, lowered to the least lambda(Y) < theta - 1 over
    every Y with X <= Y <= M for a maximal member M, walking the submasks
    of M - X one by one."""
    m, best = t.matroid, t.theta - 1
    for mx in t.maximal:
        if xmask & ~mx:
            continue
        extra = mx & ~xmask
        sub = extra
        while True:
            best = min(best, lam(m, xmask | sub))
            if sub == 0:
                break
            sub = (sub - 1) & extra
    return best


def rank_axioms_hold(m) -> bool:
    """r(empty) = 0, 0 <= r(X + e) - r(X) <= 1, and r(X | Y) + r(X & Y) <=
    r(X) + r(Y) for every pair of subsets X, Y: O(4^n) rank reads."""
    n = m.size
    r = [m.r(x) for x in range(1 << n)]
    if r[0] != 0:
        return False
    for x in range(1 << n):
        for e in range(n):
            if not 0 <= r[x | 1 << e] - r[x] <= 1:
                return False
        for y in range(1 << n):
            if r[x | y] + r[x & y] > r[x] + r[y]:
                return False
    return True


def trace_shift(n: int, mapping) -> np.ndarray:
    """Target mask of every host subset's trace, for (target element, host
    element) pairs, by shifting bits of an int64 index array."""
    idx = np.arange(1 << n, dtype=np.int64)
    trace = np.zeros(1 << n, dtype=np.int64)
    for t_elem, h_elem in mapping:
        trace |= ((idx >> h_elem) & 1) << t_elem
    return trace


# ---------------------------------------------------------------------------
# tangle families as bool flag arrays of length 2^n, one byte per subset,
# with lambda in int16 from a per-subset oracle walk: the plain form of the
# packed families of matroidkit.tangles. Verdicts are (ok, axiom, witness).


def lambda_flags(m) -> np.ndarray:
    ranks = np.array([m.r(x) for x in range(1 << m.size)], dtype=np.int16)
    return ranks + ranks[::-1] - m.full_rank()


def down_closure_flags(flags: np.ndarray, n: int) -> np.ndarray:
    """Every subset of a member: X is in when X + e is, element by element."""
    under = flags.copy()
    for e in range(n):
        v = under.reshape(-1, 2, 1 << e)
        v[:, 0, :] |= v[:, 1, :]
    return under


def maximal_members_loop(flags: np.ndarray, n: int) -> tuple[int, ...]:
    """The members with no member X + e, one member at a time."""
    out = []
    for x in np.flatnonzero(flags).tolist():
        if all((x >> e) & 1 or not flags[x | (1 << e)] for e in range(n)):
            out.append(x)
    return tuple(out)


def small_flags(t) -> np.ndarray:
    """The members of a tangle stored by its maximal members."""
    n = t.matroid.size
    under = np.zeros(1 << n, dtype=bool)
    under[list(t.maximal)] = True
    return (lambda_flags(t.matroid) < t.theta - 1) & down_closure_flags(under, n)


def family_axioms_flags(m, flags: np.ndarray, theta: int):
    """The tangle axioms on a flag array: (verdict, maximal members or ())."""
    n, full = m.size, m.full_mask
    sep = lambda_flags(m) < theta - 1
    for bad in (flags & ~sep, sep & ~(flags | flags[::-1])):
        if bad.any():
            return (False, 1, (int(np.argmax(bad)),)), ()
    for e in range(n):
        if flags[full ^ (1 << e)]:
            return (False, 3, (full ^ (1 << e),)), ()
    maximal = maximal_members_loop(flags, n)
    sizes = [mx.bit_count() for mx in maximal]
    biggest = max(sizes, default=0)
    order = sorted(range(len(maximal)), key=lambda i: -sizes[i])
    for ii, i in enumerate(order):
        a = maximal[i]
        if a.bit_count() + 2 * biggest < n:
            break
        for j in order[ii:]:
            ab = a | maximal[j]
            if ab.bit_count() + biggest < n:
                continue
            for k in order:
                if ab | maximal[k] == full:
                    return (False, 2, (a, maximal[j], maximal[k])), ()
    return (True, None, ()), maximal


def tangle_tk_flags(m, k: int):
    """T_k: (k-1)-separating sets that neither span nor cospan."""
    n, rm = m.size, m.full_rank()
    ranks = np.array([m.r(x) for x in range(1 << n)], dtype=np.int16)
    pc = np.array([x.bit_count() for x in range(1 << n)], dtype=np.int16)
    flags = ((lambda_flags(m) < k - 1) & (ranks < rm)
             & (pc[::-1] > ranks[::-1]))
    return family_axioms_flags(m, flags, k)


def is_tangle_flags(m, family, theta: int):
    """is_tangle on a Tangle (by its members) or a list of member masks."""
    if hasattr(family, "maximal"):
        flags = small_flags(family)
    else:
        flags = np.zeros(1 << m.size, dtype=bool)
        flags[list(family)] = True
    return family_axioms_flags(m, flags, theta)[0]


def induced_tangle_flags(m, cert, t_n):
    """The host family of an induced tangle: lambda_M(X) < theta - 1 and the
    trace of X on the minor's elements small in t_n."""
    flags = ((lambda_flags(m) < t_n.theta - 1)
             & small_flags(t_n)[trace_shift(m.size, cert.mapping)])
    return family_axioms_flags(m, flags, t_n.theta)


def tangle_matroid_flags(t) -> np.ndarray:
    """kappa_T's table: lambda on small sets, theta - 1 elsewhere, then the
    superset minimum, one element at a time."""
    table = np.where(small_flags(t), lambda_flags(t.matroid),
                     t.theta - 1).astype(np.uint8)
    for e in range(t.matroid.size):
        v = table.reshape(-1, 2, 1 << e)
        np.minimum(v[:, 0], v[:, 1], out=v[:, 0])
    return table


# ---------------------------------------------------------------------------
# spikes read through minors: every candidate is a restriction of a
# contraction, a Matroid that ranks through the host's oracle. The plain
# form of matroidkit's spike recognition, which reads the host's ranks in
# its own labels.


def is_spike_minors(m):
    """A SpikeDecomposition of m, or None: every parallel class tried as
    the tip set T, the rest paired by the rank-2 flats through T, then
    every leg orientation until both transversals are circuits of M/T."""
    from matroidkit import SpikeDecomposition, loops_mask, parallel_classes
    from matroidkit.core import closure_mask

    if m.size == 0 or loops_mask(m):
        return None
    classes = parallel_classes(m)
    rm = m.full_rank()
    for t_idx, tip_class in enumerate(classes):
        if any(len(c) != 1 for i, c in enumerate(classes) if i != t_idx):
            continue
        t_mask = sum(1 << t for t in tip_class)
        lines = {}
        for e in range(m.size):
            if (t_mask >> e) & 1:
                continue
            line = closure_mask(m, t_mask | (1 << e))
            lines.setdefault(line & ~t_mask, []).append(e)
        pairs = []
        for outside, members in sorted(lines.items()):
            if bin(outside).count("1") != 2 or len(members) != 2:
                break
            pairs.append(tuple(members))
        else:
            if pairs and rm == len(pairs):
                legs = _orient_legs_walk(m, t_mask, pairs)
                if legs is not None:
                    return SpikeDecomposition(tuple(tip_class), legs, rm)
    return None


def _orient_legs_walk(m, t_mask: int, pairs):
    """One leg per pair so both transversals are circuits of M/T, trying
    every orientation with the first pair fixed."""
    k, rt = len(pairs), m.r(t_mask)

    def is_circuit(elems) -> bool:
        mask = sum(1 << e for e in elems)
        if m.r(mask | t_mask) - rt != len(elems) - 1:
            return False
        return all(m.r((mask ^ (1 << e)) | t_mask) - rt == len(elems) - 1
                   for e in elems)

    for choice in range(1 << (k - 1)):
        legs = [pairs[0]] + [pairs[i][::-1] if (choice >> (i - 1)) & 1
                             else pairs[i] for i in range(1, k)]
        if is_circuit([a for a, _ in legs]) and is_circuit([b for _, b in legs]):
            return tuple(legs)
    return None


def spike_split_minors(m, spike_elements, e):
    """spike_split_witness by building m / e and testing is_spike_minors
    on its restriction to every subset of E(S) - e of at least 7
    elements; the first covering pair in mask order, in m's labels."""
    from matroidkit import PreconditionError, minor_with_map, restriction

    s_elems = sorted(set(spike_elements))
    decomp = is_spike_minors(restriction(m, s_elems))
    if decomp is None:
        raise PreconditionError("the given set is not a spike restriction")
    tips = {s_elems[i] for i in decomp.tips}
    if m.r(1 << e) == 0 or e in tips \
            or any(m.r((1 << e) | (1 << t)) == 1 for t in tips):
        raise PreconditionError("e is a loop, a tip or parallel to a tip")
    mc, keep = minor_with_map(m, [e], ())
    pool = [keep.index(x) for x in s_elems if x != e]
    goal = sum(1 << x for x in pool)
    found = [sum(1 << x for x in sub)
             for size in range(len(pool), 6, -1)
             for sub in itertools.combinations(pool, size)
             if is_spike_minors(restriction(mc, sub)) is not None]
    for i, s1 in enumerate(found):
        for s2 in found[i:]:
            if s1 | s2 == goal:
                return (tuple(keep[x] for x in range(mc.size) if s1 >> x & 1),
                        tuple(keep[x] for x in range(mc.size) if s2 >> x & 1))
    return None
