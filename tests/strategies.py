"""Hypothesis strategies for represented matroids, shared by the tests."""

from hypothesis import strategies as st

from matroidkit.representations import GraphRep, LinearRep


@st.composite
def linear_reps(draw, max_rows=4, max_cols=8, primes=(2, 3, 5, 7)):
    """Entries are drawn from all of GF(p), so nonzero ones are as common
    as in a uniform draw. Zero columns (loops) and repeated columns both
    occur: up to two columns are then replaced by the zero column or by a
    copy of a drawn column."""
    p = draw(st.sampled_from(primes))
    nr = draw(st.integers(0, max_rows))
    col = st.tuples(*[st.integers(0, p - 1)] * nr)
    cols = draw(st.lists(col, min_size=1, max_size=max_cols))
    swap = st.tuples(st.integers(0, len(cols) - 1),
                     st.sampled_from([(0,) * nr] + cols))
    for i, c in draw(st.lists(swap, max_size=2)):
        cols[i] = c
    return LinearRep(p, nr, tuple(cols))


@st.composite
def graph_reps(draw, max_vertices=5, max_edges=8):
    """Multigraphs: loops and parallel edges both occur."""
    nv = draw(st.integers(1, max_vertices))
    edge = st.tuples(st.integers(0, nv - 1), st.integers(0, nv - 1))
    return GraphRep(nv, tuple(draw(st.lists(edge, min_size=1,
                                            max_size=max_edges))))


# F7 and F7* are binary and not ternary; U(2,4) is ternary and not binary
PLANTS = {2: [((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (1, 0, 1),
               (0, 1, 1), (1, 1, 1)),
              ((1, 1, 0, 1), (1, 0, 1, 1), (0, 1, 1, 1), (1, 0, 0, 0),
               (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))],
          3: [((1, 0), (0, 1), (1, 1), (1, 2))]}


@st.composite
def planted_reps(draw, primes=(2, 3), max_rows=4, max_cols=8):
    """Matrices with a restriction outside the other prime's class: F7 or
    F7* over GF(2), U(2,4) over GF(3), plus random columns, shuffled. At
    most max_rows rows and max_cols columns, but never fewer than a plant
    needs: F7 takes 3 rows and 7 columns, F7* 4 and 7, U(2,4) 2 and 4."""
    p = draw(st.sampled_from(primes))
    plant = draw(st.sampled_from([c for c in PLANTS[p]
                                  if len(c[0]) <= max(max_rows, 3)]))
    nr = len(plant[0]) + draw(st.integers(0, max(0, max_rows - len(plant[0]))))
    col = st.tuples(*[st.integers(0, p - 1)] * nr)
    cols = [c + (0,) * (nr - len(c)) for c in plant]
    cols += draw(st.lists(col, max_size=max_cols - len(cols)))
    return LinearRep(p, nr, tuple(draw(st.permutations(cols))))
