"""
Minor search, graphicness, and the extension dichotomy
======================================================

has_minor runs a pruned exhaustive search and returns a certificate that
replays as contractions and deletions. Many negatives are decided by class
before any search: minors of a graph are graphic and minors of a GF(2) or
GF(3) matrix are representable over that field, so a target that is not
(the four-point line in a binary host, say) is answered "no" at once.
is_graphic reads a graph realization off the rank table, with no search:
it splits the matroid at its 1- and 2-separations and takes each
3-connected part's vertices to be its non-separating cocircuits.
Together they drive the one-element dichotomy: a point added to a clique
either keeps the matroid graphic for a trivial reason, or the extension
reduces to a member of one of three canonical families.
"""

from matroidkit import (
    classify_clique_extension,
    clique,
    dual,
    fano,
    free_ext_clique,
    has_minor,
    is_graphic,
    reduce_clique_extension,
    square_ext,
    triangle_ext,
    uniform,
    validate_certificate,
    whirl,
)

# K_4 contains the three-point line but not the four-point line
host = clique(4)
cert = has_minor(host, uniform(2, 3))
print("U(2,3) inside K_4:", cert is not None,
      "- contract", sorted(cert.contract), "delete", sorted(cert.delete))
print("U(2,4) inside K_4:", has_minor(host, uniform(2, 4)) is not None)

# minors of a graph are graphic, so the dual Fano plane is ruled out in K_7
# by its class, where a search would try all 210 contraction pairs
print("F7* inside K_7:", has_minor(clique(7), dual(fano())) is not None)

# certificates replay independently of the search that produced them
print("certificate revalidates:",
      validate_certificate(cert, host, uniform(2, 3)))

# the whirl is ternary, so it carries a four-point line
print("U(2,4) inside whirl(3):",
      has_minor(whirl(3), uniform(2, 4)) is not None)

# graphicness: cliques yes, the binary plane no
print("\nK_4 graphic:", is_graphic(clique(4)) is not None)
print("fano graphic:", is_graphic(fano()) is not None)

# the dichotomy: adding a point to a clique
for label, m in (("square point", square_ext(5)),
                 ("triangle point", triangle_ext(5)),
                 ("free point", free_ext_clique(5))):
    cls = classify_clique_extension(m, m.size - 1)
    print(f"{label}: graphic={cls.graphic}, reason={cls.reason}")

# nongraphic extensions reduce to a canonical family member, with a
# replayable transcript of the flats and contractions used
host = triangle_ext(6)
res = reduce_clique_extension(host, host.size - 1, 4)
print(f"\ntriangle_ext(6) reduces to {res.target.name} ({res.kind} leaf)")
for ev in res.transcript:
    print("  ", {k: v for k, v in ev.items() if k != "depth"})
print("reduction certificate revalidates:",
      validate_certificate(res.certificate, host, res.target))
