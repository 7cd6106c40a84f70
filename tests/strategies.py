"""Hypothesis strategies for represented matroids, shared by the tests."""

from hypothesis import strategies as st

from matroidkit.representations import GraphRep, LinearRep


@st.composite
def linear_reps(draw, max_rows=4, max_cols=8, primes=(2, 3, 5, 7)):
    """Zero columns (loops) and repeated columns both occur."""
    p = draw(st.sampled_from(primes))
    nr = draw(st.integers(0, max_rows))
    col = st.tuples(*[st.integers(0, p - 1)] * nr)
    cols = draw(st.lists(st.one_of(col, st.just((0,) * nr)),
                         min_size=1, max_size=max_cols))
    return LinearRep(p, nr, tuple(cols))


@st.composite
def graph_reps(draw, max_vertices=5, max_edges=8):
    """Multigraphs: loops and parallel edges both occur."""
    nv = draw(st.integers(1, max_vertices))
    edge = st.tuples(st.integers(0, nv - 1), st.integers(0, nv - 1))
    return GraphRep(nv, tuple(draw(st.lists(edge, min_size=1,
                                            max_size=max_edges))))
