"""Cross-validating the poset engine against the brute-force oracle.

Three independent ZZ computations must coincide for every strip:

  * the poset engine (extensions + descent/fixed statistics),
  * the Clar covers of the explicit graph, counted by ring number,
  * the proper-sextet histogram of its perfect matchings.

Both graph routes are transfer-matrix DPs over the vertices, which
count without listing; the matchings are listed only for their count
and for the per-matching check at the end.

The sextet pattern's left/right orientation is invisible in those
aggregates, for two reasons:

  * reflection: the strip's left-right reflection is a graph
    isomorphism carrying the mirrored pattern onto the proper one of
    the mirror-image strip, whose ZZ polynomial is the same;
  * rotation: within one hexagon the mirrored pattern (left vertical,
    NE, SE) is the ring's other Kekule configuration, the proper one
    (right vertical, NW, SW) turned by 60 degrees. Swapping the double
    bonds of every ring in a disjoint set S maps the matchings with all
    of S proper onto those with all of S mirrored, so both number the
    perfect matchings of G - S. This works ring by ring within the one
    graph, so it needs neither the mirror-image strip nor any symmetry
    of the strip: the aggregates coincide on every strip, mirror-symmetric
    or not.

The last section shows the per-matching check that does pin the
orientation.
"""

import itertools

from zzstrips import (
    StripSpec,
    build_graph,
    build_poset,
    count_clar_covers,
    count_proper_sextets,
    count_sextet_matchings,
    enumerate_perfect_matchings,
    extract_ki,
    map_from_kekule,
    validate,
    zz_polynomial,
)


def small_catalog(max_tiers: int, lengths) -> list[StripSpec]:
    specs = []
    for m in range(1, max_tiers + 1):
        for interior in itertools.product("WNRL", repeat=m - 1):
            shapes = ("W",) + interior + ("N",)
            for n in lengths:
                spec = StripSpec(shapes, n)
                report = validate(spec)
                if report.is_valid and report.is_kekulean:
                    specs.append(spec)
    return specs


print(f"{'strip':10} {'n':>2} {'matchings':>9}  ZZ (three routes must agree)")
print("-" * 64)
for spec in small_catalog(3, (1, 2)):
    graph = build_graph(spec)
    matchings = enumerate_perfect_matchings(graph)
    routes = {
        zz_polynomial(spec),
        count_clar_covers(graph),
        count_sextet_matchings(graph),
    }
    assert len(routes) == 1, f"disagreement on {spec}"
    (zz,) = routes
    print(f"{''.join(spec.shapes):10} {spec.n:>2} {len(matchings):>9}  {zz}")

print("\nPer-matching orientation check on [W,L,R,N], n=2")
print("-" * 64)
spec = StripSpec(tuple("WLRN"), 2)
graph = build_graph(spec)
poset = build_poset(spec)
rows = []
for matching in enumerate_perfect_matchings(graph):
    om = map_from_kekule(spec, extract_ki(graph, matching), poset=poset)
    rows.append((
        count_proper_sextets(graph, matching),
        # the mirrored pattern: left vertical bond, NE and SE slants
        sum(1 for h in graph.hexagons if {h.edges[1], h.edges[5], h.edges[3]} <= matching),
        om.size,
    ))
print("proper counts:  ", [r[0] for r in rows])
print("mirrored counts:", [r[1] for r in rows])
print("|A| per matching:", [r[2] for r in rows])
print("proper == |A| everywhere:", all(r[0] == r[2] for r in rows))
print("mirrored differs somewhere:", any(r[1] != r[2] for r in rows))
