"""Rank-oracle matroids over dense integer ground sets.

A matroid is a ground set {0..n-1} plus a rank function. Subsets travel as
bitmasks (ints); every derived query (closure, minors, duality, simplification)
is phrased against the rank oracle, so anything that can answer rank questions
plugs into the rest of the package.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional

import numpy as np

from ._bits import (bits, elements_of, mask_of, popcount, popcount_table,
                    reversed_bytes, spread, spread_at, spread_choose)
from .errors import (
    DomainError,
    GroundSetError,
    PreconditionError,
    ResourceLimitError,
)

GROUND_SET_CAP = 64

# Memo entries per matroid; beyond this, rank queries stop caching. Only
# Matroid.r reads it (rank_reader with no table, the scalar call sites);
# oracle_view and table reads pass it by. It stays because perfbench's
# tracer reads m._cache to count memo hits.
_CACHE_LIMIT = 1 << 20

# Exhaustive subset sweeps (rank tables, axiom checks) refuse above this.
TABLE_CAP = 22

# Masks a bulk read (certificate bases, an oracle walk) takes at a time.
READ_BLOCK = 1 << 16

# oracle_view sends fewer masks to the scalar oracle even when it has a
# batch form, whose fixed numpy cost outweighs that many scalar reads.
BATCH_MIN = 32

# Scratch bytes one rank-table builder may allocate. A builder whose
# workspace would exceed it returns None before allocating, and rank_table
# walks the oracle instead.
TABLE_BUDGET = 1 << 27


def check_size(n: int) -> int:
    """n, once it is known to be a ground set size within GROUND_SET_CAP.

    Every builder calls this before it allocates anything that grows with
    n, so an oversized request is refused at no cost.
    """
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        raise GroundSetError(f"ground set size {n!r} is not a non-negative "
                             "integer")
    if n > GROUND_SET_CAP:
        raise ResourceLimitError(
            f"ground set size {n} exceeds cap {GROUND_SET_CAP}")
    return n


def check_table_size(n: int) -> int:
    """n, once a rank table over n elements is within TABLE_CAP."""
    if n > TABLE_CAP:
        raise ResourceLimitError(
            f"rank table needs |E| <= {TABLE_CAP}, got {n}")
    return n


@dataclass(frozen=True)
class Recipe:
    """Provenance node for oracle-built matroids (transformers, families).

    args holds operand matroids; params holds plain data (ints, tuples).
    Serialization walks this tree.
    """

    op: str
    args: tuple = ()
    params: dict = field(default_factory=dict)

    def to_linear(self):
        """A GF(p) matrix of the recipe's matroid when it is the dual of a
        represented matroid: one whose provenance has a to_linear matrix
        (a GF(p) matrix, a graph or decorated graph, or such a dual), whose
        dual_rep this is. None for any other recipe."""
        to_linear = (getattr(self.args[0].provenance, "to_linear", None)
                     if self.op == "dual" else None)
        rep = None if to_linear is None else to_linear()
        return None if rep is None else rep.dual_rep()

    def minor_rep(self, contract: tuple[int, ...], delete: tuple[int, ...]):
        """The minor_rep of the to_linear matrix, or None without one."""
        rep = self.to_linear()
        return None if rep is None else rep.minor_rep(contract, delete)

    def rank_table_fast(self) -> Optional[np.ndarray]:
        """Rank table of the recipe's matroid by array transforms of its
        operands' tables.

        An operand's table is used only when it is cached or its own
        provenance builds it; otherwise, or over TABLE_BUDGET, this returns
        None, so no operand's oracle is ever walked.
        """
        op, params, args = self.op, self.params, self.args
        if op == "uniform":
            n = params["n"]
        elif op == "whirl":
            n = 2 * params["r"]
        elif op == "minor":
            n = args[0].size - len(params["contract"]) - len(params["delete"])
        else:
            n = sum(a.size for a in args)
            n += op in ("free-extension", "principal-extension")
        # an int32 index, the uint8 result and one uint8 temporary per subset
        if 6 << n > TABLE_BUDGET:
            return None
        tables = [_built_table(a) for a in args]
        if any(t is None for t in tables):
            return None
        if op == "uniform":
            return np.minimum(popcount_table(n), params["r"])
        if op == "whirl":
            from .constructions import _wheel

            r = params["r"]
            out = _wheel(r).rank_table_fast()
            if out is not None:
                out[((1 << r) - 1) << r] += 1  # the rim is independent
            return out
        if op == "direct-sum":
            return np.add.outer(tables[1], tables[0]).ravel()
        t = tables[0]
        r = int(t[-1])
        if op == "dual":
            out = reversed_bytes(t)
            # |X| is the count of X's low 8 bits plus that of the rest,
            # added by rows of 2^low so no temporary is table-sized
            low = min(n, 8)
            rows = out.reshape(-1, 1 << low)
            rows += popcount_table(low)
            rows += popcount_table(n - low)[:, None]
            out -= r
            return out
        if op == "truncation":
            return np.minimum(t, r - 1)
        if op == "free-extension":
            return np.concatenate([t, np.minimum(t + 1, r)])
        if op == "principal-extension":
            idx = np.arange(len(t), dtype=np.int32)
            idx |= mask_of(params["flat"])
            return np.concatenate([t, np.minimum(t + 1, t[idx])])
        if op == "minor":
            cmask = mask_of(params["contract"])
            gone = cmask | mask_of(params["delete"])
            keep = [e for e in range(args[0].size) if not (gone >> e) & 1]
            out = t[spread(cmask, [1 << e for e in keep])]
            out -= t[cmask]
            return out
        return None


class Matroid:
    """A matroid on the elements 0..size-1, given by a rank oracle on
    bitmask subsets.

    rank_mask(mask) must satisfy the rank axioms; validate_rank_axioms
    checks them exhaustively for small ground sets. The size is checked by
    check_size.
    """

    __slots__ = ("size", "full_mask", "_rank_mask", "_cache", "_full_rank",
                 "_table", "_lambda", "provenance", "name")

    def __init__(self, size: int, rank_mask: Callable[[int], int],
                 provenance=None, name: str = ""):
        self.size = check_size(size)
        self.full_mask = (1 << size) - 1
        self._rank_mask = rank_mask
        self._cache: dict[int, int] = {}
        self._full_rank: Optional[int] = None
        self._table: Optional[np.ndarray] = None
        self._lambda: Optional[np.ndarray] = None
        self.provenance = provenance
        self.name = name

    def r(self, mask: int) -> int:
        """Rank of a bitmask subset. Memoized."""
        cache = self._cache
        v = cache.get(mask)
        if v is None:
            v = self._rank_mask(mask)
            if len(cache) < _CACHE_LIMIT:
                cache[mask] = v
        return v

    def rank(self, subset: Optional[Iterable[int]] = None) -> int:
        if subset is None:
            return self.full_rank()
        return self.r(self.mask(subset))

    def full_rank(self) -> int:
        if self._full_rank is None:
            self._full_rank = self.r(self.full_mask)
        return self._full_rank

    def mask(self, elements: Iterable[int]) -> int:
        elements = tuple(elements)
        bad = sorted({e for e in elements if not 0 <= e < self.size})
        if bad:
            raise GroundSetError(
                f"elements {bad} not within 0..{self.size - 1}")
        return mask_of(elements)

    def __repr__(self):
        tag = f" {self.name!r}" if self.name else ""
        return f"<Matroid{tag} n={self.size} r={self.full_rank()}>"


# ---------------------------------------------------------------------------
# basic queries


def independent(m: Matroid, subset: Iterable[int]) -> bool:
    mask = m.mask(subset)
    return m.r(mask) == popcount(mask)


def closure(m: Matroid, subset: Iterable[int]) -> frozenset[int]:
    mask = m.mask(subset)
    return frozenset(elements_of(closure_mask(m, mask)))


def closure_mask(m: Matroid, mask: int) -> int:
    r0 = m.r(mask)
    out = mask
    rest = m.full_mask & ~mask
    for e in bits(rest):
        if m.r(mask | (1 << e)) == r0:
            out |= 1 << e
    return out


def circuits(m: Matroid, bound: Optional[int] = None) -> list[frozenset[int]]:
    """All circuits of size <= bound, sorted by (size, elements).

    X is a circuit iff dependent with every one-element deletion independent.
    Over 2^18 subsets of size <= bound (2^n with no bound) raise
    ResourceLimitError before any read. Ranks come through rank_reader, so
    a rank table answers them when m has one, and m's memo keeps none.
    """
    n = m.size
    bound = n if bound is None else bound
    subsets = sum(math.comb(n, k) for k in range(bound + 1))
    if subsets > 1 << 18:
        raise ResourceLimitError(f"circuits up to size {bound} of {n} "
                                 f"elements read {subsets} subsets, over 2^18")
    r = rank_reader(m)
    out = []  # combinations come by size, and in element order within one
    for k in range(1, bound + 1):
        for combo in itertools.combinations(range(n), k):
            mask = mask_of(combo)
            if r(mask) < k and all(r(mask ^ (1 << e)) == k - 1
                                   for e in combo):
                out.append(frozenset(combo))
    return out


def loops_mask(m: Matroid) -> int:
    out = 0
    for e in range(m.size):
        if m.r(1 << e) == 0:
            out |= 1 << e
    return out


def parallel_classes(m: Matroid) -> list[tuple[int, ...]]:
    """Parallel classes of nonloops, each sorted, list sorted by least element."""
    return _point_classes(m.r, 0, range(m.size))[0]


def _point_classes(r: Callable[[int], int], cmask: int, elements: Iterable[int]
                   ) -> tuple[list[tuple[int, ...]], list[int]]:
    """Parallel classes and loops of m / cmask among the given elements
    (ascending), in m's labels, where r reads m's ranks.

    e is a loop when r(C + e) = r(C); nonloops e and f are parallel when
    r(C + e + f) = r(C) + 1. Classes are sorted, listed by least element.
    """
    rc = r(cmask)
    classes: list[list[int]] = []
    loops: list[int] = []
    for e in elements:
        ce = cmask | 1 << e
        if r(ce) == rc:
            loops.append(e)
            continue
        for cls in classes:
            if r(ce | 1 << cls[0]) == rc + 1:
                cls.append(e)
                break
        else:
            classes.append([e])
    return [tuple(cls) for cls in classes], loops


def epsilon(m: Matroid) -> int:
    """Number of points (rank-1 flats): |si(M)|."""
    return len(parallel_classes(m))


# ---------------------------------------------------------------------------
# minors, duality, sums


def minor_with_map(m: Matroid, contract: Iterable[int], delete: Iterable[int],
                   name: str = "") -> tuple[Matroid, tuple[int, ...]]:
    """Minor m / contract \\ delete plus the kept-element map.

    Returns (N, keep) where N's element i corresponds to host element keep[i].
    A minor of a represented matroid, or of the dual of one, is its
    representation: when the host's provenance yields a representation of
    the minor (a dual's through the dual's matrix, see Recipe.to_linear),
    N is that representation's matroid and never reads the host's oracle
    or builds the host's table. Otherwise N ranks through the host, with a
    minor recipe as provenance (or none).
    """
    cmask = m.mask(contract)
    dmask = m.mask(delete)
    if cmask & dmask:
        raise DomainError("contract and delete sets overlap")
    keep = tuple(e for e in range(m.size) if not ((cmask | dmask) >> e) & 1)
    prov = m.provenance
    minor_rep = getattr(prov, "minor_rep", None)
    if minor_rep is not None:
        rep = minor_rep(elements_of(cmask), elements_of(dmask))
        if rep is not None:
            return rep.matroid(name=name), keep
    if prov is not None:
        prov = Recipe("minor", args=(m,),
                      params={"contract": elements_of(cmask),
                              "delete": elements_of(dmask)})
    rc = m.r(cmask)
    host_bit = [1 << h for h in keep]

    def rank_mask(mask: int) -> int:
        host = cmask
        for i in bits(mask):
            host |= host_bit[i]
        return m.r(host) - rc

    return Matroid(len(keep), rank_mask, provenance=prov, name=name), keep


def delete(m: Matroid, subset: Iterable[int]) -> Matroid:
    n, _ = minor_with_map(m, (), subset)
    return n

def contract(m: Matroid, subset: Iterable[int]) -> Matroid:
    n, _ = minor_with_map(m, subset, ())
    return n


def restriction(m: Matroid, subset: Iterable[int]) -> Matroid:
    keep = m.mask(subset)
    return delete(m, elements_of(m.full_mask & ~keep))


def dual(m: Matroid) -> Matroid:
    """Dual matroid: r*(X) = |X| + r(E-X) - r(E).

    Its provenance is a dual recipe over m: exchange documents record it,
    and it builds the rank table from m's. When m is represented, so is
    the dual, through Recipe.to_linear, and its minors are matrices. Its
    oracle reads m.r; its batch form reads m's oracle_view of the
    complements, plus |X| counted byte by byte, minus r(E).
    """
    full = m.full_mask
    rm = m.full_rank()

    def rank_mask(mask: int) -> int:
        return popcount(mask) + m.r(full & ~mask) - rm

    def rank_masks(masks: np.ndarray) -> np.ndarray:
        wide = masks.astype(np.uint64)
        ranks = oracle_view(m, wide ^ np.uint64(full))
        ranks += popcount_table(8)[wide.view(np.uint8)].reshape(-1, 8).sum(
            axis=1, dtype=np.uint8)
        ranks -= rm
        return ranks

    rank_mask.batch = rank_masks

    return Matroid(m.size, rank_mask, provenance=Recipe("dual", args=(m,)),
                   name=f"{m.name}*" if m.name else "")


def direct_sum(a: Matroid, b: Matroid) -> Matroid:
    na = a.size
    mask_a = a.full_mask

    def rank_mask(mask: int) -> int:
        return a.r(mask & mask_a) + b.r(mask >> na)

    return Matroid(na + b.size, rank_mask,
                   provenance=Recipe("direct-sum", args=(a, b)))


def simplify(m: Matroid) -> tuple[Matroid, dict[int, Optional[int]]]:
    """Simplification: drop loops, keep the least element of each parallel class.

    Returns (si, mapping) where mapping[e] is e's element in si (None for loops).
    """
    classes, loops = _point_classes(m.r, 0, range(m.size))
    reps = sorted(cls[0] for cls in classes)
    rep_index = {e: i for i, e in enumerate(reps)}
    si, keep = minor_with_map(m, (), [e for e in range(m.size) if e not in rep_index])
    assert keep == tuple(reps)
    mapping: dict[int, Optional[int]] = dict.fromkeys(loops)
    for cls in classes:
        target = rep_index[cls[0]]
        for e in cls:
            mapping[e] = target
    si.name = f"si({m.name})" if m.name else ""
    return si, mapping


# ---------------------------------------------------------------------------
# certificates


@dataclass(frozen=True)
class MinorCertificate:
    """Witness that a target matroid is a minor of a host.

    contract/delete are host elements; mapping pairs (target element, host
    element) cover exactly the remaining host elements.
    """

    contract: frozenset[int]
    delete: frozenset[int]
    mapping: tuple[tuple[int, int], ...]


def validate_certificate(cert: MinorCertificate, host: Matroid,
                         target: Matroid) -> bool:
    """Check a minor certificate by rank and bases.

    Verifies that the mapping holds exactly one pair per target element,
    and the contract/delete/image partition of E(host), then that
    N = (host / C) | image has the target's rank and bases, so N is the
    target (Oxley, 1.2): r(C + image(X)) - r(C) = r(target) for X = E(target),
    and for each r(target)-subset X exactly when X is a target basis. That
    is C(k, r(target)) + 2 reads through the host's own oracle, never
    through its table or its provenance, nor a representation of the
    minor: r(C) and r(C + image) through host.r, and the C(k, r(target))
    others through oracle_view, READ_BLOCK masks at a time, around host.r's
    memo. A bijection is the certificate with nothing contracted or
    deleted. A target over TABLE_CAP elements raises ResourceLimitError
    from its rank table.
    """
    cmask = host.mask(cert.contract)
    dmask = host.mask(cert.delete)
    pairs = dict(cert.mapping)
    if sorted(t for t, _ in cert.mapping) != list(range(target.size)):
        return False
    if any(not 0 <= h < host.size for h in pairs.values()):
        return False
    image = mask_of(pairs.values())
    if popcount(image) != target.size:
        return False
    if cmask & dmask or cmask & image or dmask & image:
        return False
    if (cmask | dmask | image) != host.full_mask:
        return False
    table = rank_table(target)
    rt = int(table[-1])
    rc = host.r(cmask)
    if host.r(cmask | image) - rc != rt:
        return False
    # C + image(X) for every target subset X of size r(target)
    sized = spread_choose(0, [1 << t for t in range(target.size)], rt)
    weights = [1 << pairs[t] for t in range(target.size)]
    for lo in range(0, len(sized), READ_BLOCK):
        block = sized[lo:lo + READ_BLOCK]
        ranks = oracle_view(host, spread_at(cmask, weights, block))
        if not np.array_equal(ranks == rc + rt, table[block] == rt):
            return False
    return True


# ---------------------------------------------------------------------------
# whole-matroid checks


def same_rank_function(a: Matroid, b: Matroid) -> bool:
    """Exact equality of rank functions (same ground set size)."""
    if a.size != b.size:
        return False
    return np.array_equal(rank_table(a), rank_table(b))


def rank_table(m: Matroid) -> np.ndarray:
    """Rank of every subset, indexed by mask. uint8 array of length 2^n.

    The table is built at most once per matroid and cached on it by
    cache_table, so it costs 2^n bytes for as long as the matroid lives.
    Every provenance kind builds it with a few numpy passes: odd-prime and
    over-64-row GF(2) matrices from a histogram of their codewords'
    supports when there are at most 2^n codewords (always over GF(3) and
    for those GF(2) ones, so they never decline up to TABLE_CAP), other
    GF(p) matrices by a doubling DP over the elements, graphs and decorated
    graphs through their GF(2) or GF(3) incidence matrix over the vertices
    their edges touch, recipes by array transforms of their operands'
    tables.
    A matroid with no provenance, a recipe over one, or a builder whose
    workspace would exceed TABLE_BUDGET bytes walks the oracle instead,
    READ_BLOCK subsets at a time through oracle_view, so a batch form
    reads them in bulk and the memo keeps none.
    """
    n = check_table_size(m.size)
    table = _built_table(m)
    if table is None:
        table = cache_table(m, np.concatenate([
            oracle_view(m, np.arange(lo, min(lo + READ_BLOCK, 1 << n)))
            for lo in range(0, 1 << n, READ_BLOCK)]))
    return table


def _built_table(m: Matroid) -> Optional[np.ndarray]:
    """m's cached rank table, else the one its provenance builds without
    walking an oracle (then cached on m), else None."""
    if m._table is None and m.size <= TABLE_CAP:
        fast = getattr(m.provenance, "rank_table_fast", None)
        table = fast() if fast is not None else None
        if table is not None:
            cache_table(m, table)
    return m._table


def cache_table(m: Matroid, table: np.ndarray) -> np.ndarray:
    """Cache m's uint8 rank table on m as a read-only view of its bytes,
    made here once; rank_reader reads those bytes, the view's base."""
    m._table = np.frombuffer(table.tobytes(), np.uint8)
    return m._table


def rank_reader(m: Matroid) -> Callable[[int], int]:
    """m's ranks by mask: the bytes of its rank table, with no copy, when it
    is cached or m's provenance builds it, else m.r and its memo."""
    table = _built_table(m)
    return m.r if table is None else table.base.__getitem__


def rank_gather(m: Matroid, masks: np.ndarray) -> np.ndarray:
    """m's ranks of an array of masks: a gather of its rank table when it
    is cached or m's provenance builds it, else oracle_view(m, masks)."""
    table = _built_table(m)
    return oracle_view(m, masks) if table is None else table[masks]


def oracle_view(m: Matroid, masks: np.ndarray) -> np.ndarray:
    """m's ranks of an array of masks, as uint8, from m's own oracle, never
    its table or its memo: by the oracle's batch form (an attribute of the
    oracle function, as representations and dual give it) for a block of
    at least BATCH_MIN masks, else one oracle call per mask."""
    batch = getattr(m._rank_mask, "batch", None)
    if batch is not None and len(masks) >= BATCH_MIN:
        return batch(masks)
    return np.fromiter(map(m._rank_mask, memoryview(masks)), np.uint8)


def closed_flags(table: np.ndarray) -> np.ndarray:
    """Which masks are flats, as a bool array indexed by mask: X is closed
    when r(X + e) > r(X) for every e outside X. One pass per element."""
    closed = np.ones(table.size, dtype=bool)
    for e in range(table.size.bit_length() - 1):
        v, c = table.reshape(-1, 2, 1 << e), closed.reshape(-1, 2, 1 << e)
        c[:, 0] &= v[:, 1] > v[:, 0]
    return closed


def lambda_table(t: np.ndarray) -> np.ndarray:
    """lambda(X) = r(X) + r(E - X) - r(M) for every mask, in uint8, where t
    is M's rank table (t reversed holds t[E - X] at X; submodularity
    keeps lambda at least 0)."""
    lam = reversed_bytes(t)
    lam += t
    lam -= t[-1]
    return lam


def lambda_of(m: Matroid) -> np.ndarray:
    """lambda_table of m's rank table, built at most once per matroid,
    cached on it and returned read-only, as the table is."""
    if m._lambda is None:
        lam = lambda_table(rank_table(m))
        lam.setflags(write=False)
        m._lambda = lam
    return m._lambda


def validate_rank_axioms(m: Matroid) -> None:
    """Exhaustive rank-axiom check on m's rank table; raises
    PreconditionError on violation.

    Checks r(empty) = 0, unit increase r(S) <= r(S+e) <= r(S) + 1, and
    submodularity in its equivalent local form r(S+e) + r(S+f) >=
    r(S+e+f) + r(S), with one pass over the table per element and one per
    pair e < f. The table's own cap, TABLE_CAP, is the only size limit.
    """
    n = m.size
    table = rank_table(m).astype(np.int16)
    if table[0] != 0:
        raise PreconditionError("rank of empty set is not 0")
    for e in range(n):
        v = table.reshape(-1, 2, 1 << e)
        diff = v[:, 1] - v[:, 0]
        if diff.min() < 0 or diff.max() > 1:
            raise PreconditionError(f"unit-increase axiom fails at element {e}")
    for f in range(n):
        for e in range(f):
            # axis 1 holds f's bit and axis 3 holds e's
            v = table.reshape(-1, 2, 1 << (f - e - 1), 2, 1 << e)
            bad = v[:, 1, :, 0] + v[:, 0, :, 1] < v[:, 1, :, 1] + v[:, 0, :, 0]
            if bad.any():
                hi, mid, lo = np.unravel_index(np.argmax(bad), bad.shape)
                s = int(hi) << (f + 1) | int(mid) << (e + 1) | int(lo)
                raise PreconditionError(
                    f"submodularity fails at X={elements_of(s | 1 << e)} "
                    f"Y={elements_of(s | 1 << f)}")
