"""Road network tests: grid construction, file format, routing."""

import logging
import math

import numpy as np
import pytest

from vancast.roadnet import (
    MAX_FACTOR,
    Edge,
    RoadGraph,
    Route,
    generate_manhattan_grid,
    load_road_graph,
    main_road_route,
    random_route,
    save_road_graph,
    shortest_path,
)


def floyd_warshall(g):
    """Dense all-pairs shortest distances, independent of the package."""
    n = g.n_nodes
    dist = [[math.inf] * n for _ in range(n)]
    for i in range(n):
        dist[i][i] = 0.0
    for e in g.edges:
        dist[e.a][e.b] = min(dist[e.a][e.b], e.length)
        dist[e.b][e.a] = min(dist[e.b][e.a], e.length)
    for k in range(n):
        dk = dist[k]
        for i in range(n):
            dik = dist[i][k]
            if dik == math.inf:
                continue
            di = dist[i]
            for j in range(n):
                alt = dik + dk[j]
                if alt < di[j]:
                    di[j] = alt
    return dist


def check_route_wellformed(g, route, src, dst):
    assert route.src == src
    assert route.dst == dst
    assert len(route.nodes) == len(route.edge_ids) + 1
    assert route.cum_length[0] == 0.0
    for i, eid in enumerate(route.edge_ids):
        e = g.edges[eid]
        assert {route.nodes[i], route.nodes[i + 1]} == {e.a, e.b}
        assert route.cum_length[i + 1] == pytest.approx(
            route.cum_length[i] + e.length
        )


# --- grid generation --------------------------------------------------------


def test_grid_counts_reference_layout():
    g = generate_manhattan_grid(10, 10, 200.0, [2, 5, 8])
    assert g.n_nodes == 100
    assert g.n_edges == 180
    assert sum(1 for e in g.edges if e.main) == 27  # 9 rows x 3 columns


@pytest.mark.parametrize("rows", [1, 2, 3, 7, 12])
@pytest.mark.parametrize("cols", [1, 2, 5, 12])
def test_grid_counts_closed_form(rows, cols):
    if rows == 1 and cols == 1:
        with pytest.raises(ValueError):
            generate_manhattan_grid(rows, cols, 100.0)
        return
    g = generate_manhattan_grid(rows, cols, 100.0)
    assert g.n_nodes == rows * cols
    assert g.n_edges == rows * (cols - 1) + (rows - 1) * cols


def test_grid_coordinates_and_ids():
    g = generate_manhattan_grid(3, 4, 50.0)
    # row-major ids: node (row 2, col 3) is 2*4+3
    assert (g.node_x[11], g.node_y[11]) == (150.0, 100.0)
    assert (g.node_x[0], g.node_y[0]) == (0.0, 0.0)


def test_grid_main_flags_only_on_vertical_edges():
    g = generate_manhattan_grid(4, 4, 100.0, main_cols=[1])
    for e in g.edges:
        if e.main:
            # vertical edges connect ids differing by a full row
            assert abs(e.a - e.b) == 4
            assert e.a % 4 == 1
    assert sum(1 for e in g.edges if e.main) == 3


def test_grid_argument_validation():
    with pytest.raises(ValueError):
        generate_manhattan_grid(0, 5, 100.0)
    with pytest.raises(ValueError):
        generate_manhattan_grid(5, 5, 0.0)
    with pytest.raises(ValueError):
        generate_manhattan_grid(5, 5, 100.0, main_cols=[5])
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="block_len must be positive and finite"):
            generate_manhattan_grid(5, 5, bad)


def test_grid_refuses_a_block_len_whose_far_side_overflows():
    # 1e308 is finite, but the third column of nodes would sit at 2e308 = inf
    with pytest.raises(ValueError, match="block_len must be positive and finite"):
        generate_manhattan_grid(1, 3, 1e308)
    with pytest.raises(ValueError, match="block_len"):
        generate_manhattan_grid(3, 1, 1e308)
    # one block of 1e308 has a finite far side, but a route may weigh it
    # 3 times over (test_grid_refuses_a_block_len_whose_road_sums_overflow)
    with pytest.raises(ValueError, match="block_len"):
        generate_manhattan_grid(1, 2, 1e308)
    assert generate_manhattan_grid(1, 2, 5e307).node_x == [0.0, 5e307]


def test_grid_refuses_a_block_len_whose_road_sums_overflow():
    # a 10x10 grid of 1.5e307 m blocks: its far side, 9 blocks out, is a
    # finite 1.35e308, but its 180 blocks sum past the largest float
    with pytest.raises(ValueError, match="block_len must be positive and finite"):
        generate_manhattan_grid(10, 10, 1.5e307)
    # 3 times the sum, with 4 n eps of rounding, must be finite: one block
    # of 5.99e307 m passes, one of 6e307 does not
    top = 1.7976931348623157e308 / 3 / (1 + 8 * 2.0**-52)
    assert generate_manhattan_grid(1, 2, 5.99e307).node_x == [0.0, 5.99e307]
    assert 5.99e307 < top < 6e307
    with pytest.raises(ValueError, match="block_len"):
        generate_manhattan_grid(1, 2, 6e307)


def test_graph_validation():
    with pytest.raises(ValueError):
        RoadGraph([0.0], [0.0], [])  # no edges
    with pytest.raises(ValueError):
        RoadGraph([0.0, 1.0], [0.0, 0.0], [Edge(0, 0, 0, 5.0)])  # self-loop
    with pytest.raises(ValueError):
        RoadGraph([0.0, 1.0], [0.0, 0.0], [Edge(0, 0, 7, 5.0)])  # bad node
    with pytest.raises(ValueError):
        RoadGraph([0.0, 1.0], [0.0, 0.0], [Edge(0, 0, 1, -2.0)])


def test_graph_rejects_edge_ids_that_are_not_list_positions():
    """Adjacency and weight tables index by edge id, so the ids must
    number the edge list; a gap or a repeat is refused at construction."""
    xs, ys = [0.0, 1.0, 2.0], [0.0, 0.0, 0.0]
    with pytest.raises(ValueError, match="edge 5 sits at position 0"):
        RoadGraph(xs, ys, [Edge(5, 0, 1, 1.0)])
    with pytest.raises(ValueError, match="edge 0 sits at position 1"):
        RoadGraph(xs, ys, [Edge(0, 0, 1, 1.0), Edge(0, 1, 2, 1.0)])


def test_graph_rejects_non_finite_coordinates_and_lengths():
    with pytest.raises(ValueError, match="node 1 has non-finite"):
        RoadGraph([0.0, math.inf], [0.0, 0.0], [Edge(0, 0, 1, 5.0)])
    with pytest.raises(ValueError, match="node 0 has non-finite"):
        RoadGraph([0.0, 1.0], [math.nan, 0.0], [Edge(0, 0, 1, 5.0)])
    for length in (math.nan, math.inf):
        with pytest.raises(ValueError, match=f"edge 0 length {length} is not positive"):
            RoadGraph([0.0, 1.0], [0.0, 0.0], [Edge(0, 0, 1, length)])


# --- file format -------------------------------------------------------------


def test_save_load_roundtrip(tmp_path):
    g = generate_manhattan_grid(5, 7, 123.5, [0, 6])
    path = tmp_path / "grid.txt"
    save_road_graph(g, str(path))
    h = load_road_graph(str(path))
    assert h.n_nodes == g.n_nodes
    assert h.n_edges == g.n_edges
    assert h.node_x == g.node_x
    assert h.node_y == g.node_y
    assert h.edges == g.edges


def test_save_load_roundtrip_keeps_floats_that_g_would_round(tmp_path):
    # :g keeps six significant digits: these would reload as 1000020,
    # 0.123457, 1e+06 and 0.333333.
    g = RoadGraph(
        [0.0, 1000015.0, 1000001.0], [0.1234567, 0.0, -1 / 3],
        [Edge(0, 0, 1, 1000015.0), Edge(1, 1, 2, 1 / 3, True), Edge(2, 0, 2, 0.1234567)],
    )
    path = tmp_path / "g.txt"
    save_road_graph(g, str(path))
    h = load_road_graph(str(path))
    assert (h.node_x, h.node_y, h.edges) == (g.node_x, g.node_y, g.edges)
    assert "node 0 0 0.1234567\n" in path.read_text()  # exact values stay short


def test_load_accepts_comments_and_blank_lines(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text(
        "# tiny triangle\n"
        "nodes 3 edges 3\n"
        "\n"
        "node 0 0 0\n"
        "node 1 100 0\n"
        "node 2 0 100\n"
        "# edges below\n"
        "edge 0 0 1 100 0\n"
        "edge 1 1 2 141.4 1\n"
        "edge 2 2 0 100 0\n"
    )
    g = load_road_graph(str(path))
    assert g.n_nodes == 3
    assert g.edges[1].main is True


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("bogus header\n", "header"),
        ("nodes 2 edges 1\nnode 0 0 0\nnode 5 1 1\nedge 0 0 1 10 0\n", "sequential"),
        ("nodes 2 edges 1\nnode 0 0 0\nnode 1 1 1\nedge 0 0 1 -3 0\n", "positive"),
        ("nodes 2 edges 1\nnode 0 0 0\nnode 1 1 1\nedge 0 0 1 10 7\n", "main flag"),
        ("nodes 2 edges 1\nnode 0 0 0\nnode 1 1 1\nedge 0 0 9 10 0\n", "outside"),
        ("nodes 2 edges 2\nnode 0 0 0\nnode 1 1 1\nedge 0 0 1 10 0\n", "record lines"),
        ("nodes 2 edges 1\nnode 0 0 0\nnode 1 nan 0\nedge 0 0 1 10 0\n", "node 1 has non-finite"),
        ("nodes 2 edges 1\nnode 0 0 0\nnode 1 1 inf\nedge 0 0 1 10 0\n", "node 1 has non-finite"),
        ("nodes 2 edges 1\nnode 0 0 0\nnode 1 1 1\nedge 0 0 1 nan 0\n", "edge 0 length"),
        # refused at their line, in the graph's own words
        ("nodes 2 edges 1\nnode 0 0 0\n# x\nnode 1 nan 0\nedge 0 0 1 10 0\n",
         "bad.txt:4: node 1 has non-finite coordinates (nan, 0.0)"),
        ("nodes 2 edges 1\nnode 0 0 0\nnode 1 1 1\n\nedge 0 1 1 10 0\n",
         "bad.txt:5: edge 0 is a self-loop"),
        ("nodes 2 edges 1\nnode 0 0 0\nnode 1 1 1\nedge 0 0 1 -5 0\n",
         "bad.txt:4: edge 0 length -5.0 is not positive"),
        ("", "empty"),
    ],
)
def test_load_rejects_malformed_files(tmp_path, text, fragment):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    with pytest.raises(ValueError) as err:
        load_road_graph(str(path))
    assert fragment in str(err.value)


def test_load_error_names_line_number(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("nodes 2 edges 1\nnode 0 0 0\nnode one 1 1\nedge 0 0 1 10 0\n")
    with pytest.raises(ValueError) as err:
        load_road_graph(str(path))
    assert ":3:" in str(err.value)


# --- shortest paths ----------------------------------------------------------


def test_shortest_path_matches_floyd_warshall():
    rng = np.random.default_rng(42)
    g = generate_manhattan_grid(5, 6, 100.0)
    # perturb the lengths so paths are not all degenerate ties
    edges = [
        Edge(e.edge_id, e.a, e.b, float(rng.uniform(50, 250)), e.main)
        for e in g.edges
    ]
    g = RoadGraph(g.node_x, g.node_y, edges)
    ref = floyd_warshall(g)
    for _ in range(200):
        src = int(rng.integers(g.n_nodes))
        dst = int(rng.integers(g.n_nodes))
        route = shortest_path(g, src, dst)
        check_route_wellformed(g, route, src, dst)
        assert route.total_length == pytest.approx(ref[src][dst])


def test_shortest_path_manhattan_closed_form():
    g = generate_manhattan_grid(8, 8, 150.0)
    for (r1, c1), (r2, c2) in [((0, 0), (7, 7)), ((2, 5), (6, 1)), ((3, 3), (3, 3))]:
        src, dst = r1 * 8 + c1, r2 * 8 + c2
        route = shortest_path(g, src, dst)
        assert route.total_length == pytest.approx(
            150.0 * (abs(r1 - r2) + abs(c1 - c2))
        )


def test_shortest_path_is_deterministic():
    g = generate_manhattan_grid(6, 6, 100.0)
    r1 = shortest_path(g, 0, 35)
    r2 = shortest_path(g, 0, 35)
    assert r1.nodes == r2.nodes
    assert r1.edge_ids == r2.edge_ids


def test_trivial_and_invalid_endpoints():
    g = generate_manhattan_grid(3, 3, 100.0)
    r = shortest_path(g, 4, 4)
    assert r.nodes == (4,)
    assert r.total_length == 0.0
    with pytest.raises(ValueError):
        shortest_path(g, 0, 99)
    with pytest.raises(ValueError):
        shortest_path(g, -1, 0)


def test_no_path_between_components(tmp_path):
    # two disconnected segments
    g = RoadGraph(
        [0.0, 1.0, 5.0, 6.0],
        [0.0] * 4,
        [Edge(0, 0, 1, 1.0), Edge(1, 2, 3, 1.0)],
    )
    with pytest.raises(ValueError):
        shortest_path(g, 0, 3)


# --- randomized routes --------------------------------------------------------


def test_random_route_unit_factor_equals_shortest():
    g = generate_manhattan_grid(5, 5, 100.0)
    rng = np.random.default_rng(3)
    for _ in range(25):
        src = int(rng.integers(25))
        dst = int(rng.integers(25))
        r = random_route(g, src, dst, rng, max_factor=1.0)
        s = shortest_path(g, src, dst)
        assert r.nodes == s.nodes
        assert r.edge_ids == s.edge_ids


def test_random_route_spread_on_uniform_grid():
    """Corner to corner on a 4x4 unit grid: every inflated-weight optimum
    is still a 6-block monotone staircase, but different staircases
    should appear across draws."""
    g = generate_manhattan_grid(4, 4, 100.0)
    rng = np.random.default_rng(11)
    seen = set()
    for _ in range(300):
        r = random_route(g, 0, 15, rng)
        check_route_wellformed(g, r, 0, 15)
        assert r.total_length == pytest.approx(600.0)
        seen.add(r.nodes)
    assert len(seen) >= 2
    assert len(seen) <= 20  # C(6, 3) monotone staircases exist


def test_random_route_reports_true_lengths():
    rng = np.random.default_rng(8)
    g = generate_manhattan_grid(6, 6, 100.0)
    for _ in range(50):
        src = int(rng.integers(36))
        dst = int(rng.integers(36))
        r = random_route(g, src, dst, rng)
        s = shortest_path(g, src, dst)
        assert r.total_length >= s.total_length - 1e-9
        # cumulative profile must use true edge lengths, not inflated ones
        for i, eid in enumerate(r.edge_ids):
            step = r.cum_length[i + 1] - r.cum_length[i]
            assert step == pytest.approx(g.edges[eid].length)


def test_random_route_same_seed_same_route():
    g = generate_manhattan_grid(5, 5, 100.0)
    a = random_route(g, 0, 24, np.random.default_rng(77))
    b = random_route(g, 0, 24, np.random.default_rng(77))
    assert a.nodes == b.nodes


def test_random_route_rejects_bad_factor():
    g = generate_manhattan_grid(3, 3, 100.0)
    with pytest.raises(ValueError):
        random_route(g, 0, 8, np.random.default_rng(0), max_factor=0.5)


def test_random_route_refuses_a_factor_past_max_factor_before_any_draw():
    # Factors past MAX_FACTOR would escape check_road_sums' bound: at 1e306
    # the weights overflow, and at 1e307 a connected grid has "no path".
    g = generate_manhattan_grid(3, 3, 200.0)
    assert random_route(g, 0, 8, np.random.default_rng(0), max_factor=MAX_FACTOR).dst == 8
    rng = np.random.default_rng(0)
    before = rng.bit_generator.state
    for bad in (np.nextafter(MAX_FACTOR, np.inf), 1e306, 1e307, math.inf, math.nan):
        with pytest.raises(ValueError, match="max_factor"):
            random_route(g, 0, 8, rng, max_factor=bad)
        assert rng.bit_generator.state == before
    assert random_route(g, 0, 8, rng, max_factor=1.0) == shortest_path(g, 0, 8)


# --- main-road routing ---------------------------------------------------------


def test_main_road_route_uses_main_edges_in_middle():
    g = generate_manhattan_grid(10, 10, 200.0, [2, 5, 8])
    route = main_road_route(g, 0, 99)
    check_route_wellformed(g, route, 0, 99)
    # between first and last main-edge use, the route must stay on main roads
    flags = [g.edges[eid].main for eid in route.edge_ids]
    assert any(flags)
    first = flags.index(True)
    last = len(flags) - 1 - flags[::-1].index(True)
    assert all(flags[first : last + 1])


def test_main_road_route_visits_a_main_node_even_on_detour():
    g = generate_manhattan_grid(6, 6, 100.0, main_cols=[3])
    main_nodes = {e.a for e in g.edges if e.main} | {e.b for e in g.edges if e.main}
    # src and dst both sit left of the arterial, so this is a pure detour
    route = main_road_route(g, 0, 30)
    assert main_nodes & set(route.nodes)
    assert route.total_length >= shortest_path(g, 0, 30).total_length


def test_main_road_route_without_main_edges_is_an_error():
    g = generate_manhattan_grid(4, 4, 100.0, main_cols=[])
    for src, dst in ((1, 14), (5, 5)):
        with pytest.raises(ValueError, match="graph has no main roads"):
            main_road_route(g, src, dst)


def test_main_road_route_endpoints_on_main():
    g = generate_manhattan_grid(6, 6, 100.0, main_cols=[2])
    # both endpoints already on the arterial: route should just ride it
    route = main_road_route(g, 2, 32)
    assert all(g.edges[eid].main for eid in route.edge_ids)
    assert route.total_length == pytest.approx(500.0)


def test_main_road_route_stays_in_entry_component_and_breaks_ties():
    # Main component A is a diamond 1-{2,3}-4 whose two main-only paths
    # from 1 to 4 tie at 20 m; a non-main shortcut 1-4 must not be
    # taken on the middle leg.  Main component B (5-6) holds the main
    # node nearest dst 7, but src 0 enters A at node 1, so the exit is
    # A's node nearest dst (4), not B's.
    main = [(1, 2), (1, 3), (2, 4), (3, 4), (5, 6)]
    plain = [(0, 1, 5.0), (4, 7, 50.0), (6, 7, 5.0), (0, 5, 100.0), (1, 4, 5.0)]
    edges = [Edge(i, a, b, 10.0, main=True) for i, (a, b) in enumerate(main)]
    edges += [Edge(len(edges) + i, a, b, w) for i, (a, b, w) in enumerate(plain)]
    g = RoadGraph([float(i) for i in range(8)], [0.0] * 8, edges)
    route = main_road_route(g, 0, 7)
    check_route_wellformed(g, route, 0, 7)
    assert route.nodes == (0, 1, 2, 4, 7)
    assert route.edge_ids == (5, 0, 2, 6)
    assert route.cum_length == (0.0, 5.0, 15.0, 25.0, 75.0)


def test_memoized_main_road_routes_match_a_fresh_graph_for_every_pair():
    """Entries, components and exits read back from the memo give the
    route a graph with an empty memo gives, for every (src, dst), on a
    grid whose arterials are three main components and on a graph of two;
    the exit memo holds at most one exit a node per main component."""
    main = [(1, 2), (1, 3), (2, 4), (3, 4), (5, 6)]
    plain = [(0, 1, 5.0), (4, 7, 50.0), (6, 7, 5.0), (0, 5, 100.0), (1, 4, 5.0)]
    edges = [Edge(i, a, b, 10.0, main=True) for i, (a, b) in enumerate(main)]
    edges += [Edge(len(edges) + i, a, b, w) for i, (a, b, w) in enumerate(plain)]
    split = RoadGraph([float(i) for i in range(8)], [0.0] * 8, edges)
    for g, parts in ((generate_manhattan_grid(5, 6, 100.0, main_cols=[0, 2, 4]), 3), (split, 2)):
        def fresh():
            return RoadGraph(g.node_x, g.node_y, g.edges)

        for _ in range(2):  # the second pass reads every choice off the memo
            for src in range(g.n_nodes):
                for dst in range(g.n_nodes):
                    assert main_road_route(g, src, dst) == main_road_route(fresh(), src, dst)
        assert len(g._entries) == g.n_nodes
        assert len({part for part, _ in g._exits}) == parts
        assert len(g._exits) <= parts * g.n_nodes


def test_main_road_route_searches_main_roads_once_per_main_node(monkeypatch):
    g = generate_manhattan_grid(6, 6, 100.0, main_cols=[1, 4])
    searches, real = [], g.dijkstra
    monkeypatch.setattr(g, "dijkstra", lambda src, weights=None, target=None: (
        searches.append((src, weights is g.main_weights, target))
        or real(src, weights, target)))
    for src in range(g.n_nodes):
        for dst in range(g.n_nodes):
            main_road_route(g, src, dst)
            shortest_path(g, src, dst)
    full = [(src, on_main) for src, on_main, target in searches if target is None]
    # one full search per (node, weights), never run again: later reads hit the memo
    assert len(full) == len(set(full))
    assert {src for src, on_main in full if not on_main} == set(range(g.n_nodes))
    main_searches = [src for src, on_main in full if on_main]
    # one main-only field per entry or exit
    assert set(main_searches) <= set(g.main_nodes)


def test_main_road_route_warns_once_per_graph_off_the_main_roads(caplog):
    # main roads join 0-1-2; nodes 3-4-5 form a second component without any
    edges = [Edge(0, 0, 1, 100.0, True), Edge(1, 1, 2, 100.0, True),
             Edge(2, 3, 4, 100.0), Edge(3, 4, 5, 100.0)]
    g = RoadGraph([0.0, 100.0, 200.0, 0.0, 100.0, 200.0], [0.0] * 3 + [500.0] * 3, edges)
    with caplog.at_level(logging.WARNING, logger="vancast.roadnet"):
        for src, dst in ((4, 3), (3, 5), (5, 4)) * 20:
            assert main_road_route(g, src, dst) == shortest_path(g, src, dst)
        main_road_route(g, 0, 2)  # on the main roads: nothing to warn of
    warnings = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
    assert len(warnings) == 1
    assert warnings[0].startswith("main roads unreachable from node 4; using shortest path")
    other = RoadGraph(g.node_x, g.node_y, edges)  # a new graph warns afresh
    with caplog.at_level(logging.WARNING, logger="vancast.roadnet"):
        main_road_route(other, 5, 3)
    assert len([r for r in caplog.records if r.levelno == logging.WARNING]) == 2


# --- misc graph queries --------------------------------------------------------


def test_nodes_within_excludes_self_and_sorts():
    g = generate_manhattan_grid(5, 5, 100.0)
    near = g.nodes_within(12, 100.0)
    assert near == (7, 11, 13, 17)
    assert g.nodes_within(12, 50.0) == ()
    everywhere = g.nodes_within(12, 10_000.0)
    assert len(everywhere) == 24


def test_nodes_within_caches_one_tuple_per_origin_and_radius():
    g = generate_manhattan_grid(6, 7, 100.0, main_cols=[3])
    for src in range(g.n_nodes):
        for max_dist in (0.0, 100.0, 250.0, 450.0, 10_000.0):
            near = g.nodes_within(src, max_dist)
            assert isinstance(near, tuple)
            assert near is g.nodes_within(src, max_dist)
            dist = g.dijkstra(src)
            # every node at a distance in (0, max_dist], in id order
            assert list(near) == [v for v in range(g.n_nodes) if 0 < dist[v] <= max_dist]
    # keyed on both: same origin at another radius, another origin at this one
    assert g.nodes_within(0, 100.0) == (1, 7)
    assert g.nodes_within(0, 200.0) == (1, 2, 7, 8, 14)
    assert g.nodes_within(8, 100.0) == (1, 7, 9, 15)


def test_dijkstra_cache_does_not_leak_into_custom_weights():
    g = generate_manhattan_grid(4, 4, 100.0)
    base = g.dijkstra(0)
    heavy = g.dijkstra(0, [1000.0] * g.n_edges)
    assert base[15] == pytest.approx(600.0)
    assert heavy[15] == pytest.approx(6000.0)
    assert g.dijkstra(0)[15] == pytest.approx(600.0)


def random_connected_graph(rng, n):
    """Random tree plus extra edges, integer lengths 1-3 (to force ties),
    about a third of the edges main."""
    xs = rng.uniform(0, 1_000, n).tolist()
    ys = rng.uniform(0, 1_000, n).tolist()
    pairs = {(int(rng.integers(v)), v) for v in range(1, n)}
    while len(pairs) < min(2 * n, n * (n - 1) // 2):
        a, b = sorted(int(v) for v in rng.choice(n, size=2, replace=False))
        pairs.add((a, b))
    edges = [Edge(i, a, b, float(rng.integers(1, 4)), bool(rng.random() < 0.35))
             for i, (a, b) in enumerate(sorted(pairs))]
    return RoadGraph(xs, ys, edges)


def test_dijkstra_stopped_at_the_target_walks_the_same_routes():
    from vancast.roadnet import _walk_route

    rng = np.random.default_rng(404)
    checked = 0
    for _ in range(40):
        g = random_connected_graph(rng, int(rng.integers(3, 30)))
        for weights in (g.lengths, [w * f for w, f in
                                    zip(g.lengths, rng.uniform(1, 3, g.n_edges))],
                        g.main_weights):
            for dst in range(g.n_nodes):
                full = g.dijkstra(dst, weights)
                for src in range(g.n_nodes):
                    if src == dst or not np.isfinite(full[src]):
                        continue
                    stopped = g.dijkstra(dst, weights, target=src)
                    assert stopped[src] == full[src]
                    assert (_walk_route(g, src, [(dst, stopped, weights)])
                            == _walk_route(g, src, [(dst, full, weights)]))
                    checked += 1
    assert checked > 10_000


def test_random_route_walks_the_untargeted_search_on_the_default_grid():
    """A* toward the origin walks what a full search on the same draw walks."""
    from vancast.config import ExperimentConfig
    from vancast.engine import build_graph
    from vancast.roadnet import _walk_route

    g = build_graph(ExperimentConfig())
    assert (g.n_nodes, len(g.main_nodes)) == (100, 30)
    rng = np.random.default_rng(2979)
    checked = 0
    while checked < 3_000:
        src, dst = (int(v) for v in rng.integers(g.n_nodes, size=2))
        if src == dst:
            continue
        draw = np.random.default_rng()
        draw.bit_generator.state = rng.bit_generator.state
        factors = draw.uniform(1.0, 3.0, size=g.n_edges)
        weights = [length * f for length, f in zip(g.lengths, factors)]
        reference = _walk_route(g, src, [(dst, g.dijkstra(dst, weights), weights)])
        assert random_route(g, src, dst, rng) == reference
        assert rng.bit_generator.state == draw.bit_generator.state
        checked += 1


@pytest.mark.parametrize("lengths, src, dst, nodes", [
    # 3-2 and 3-0-1-2 are both 0.6 long, but node 1's key in the search
    # from 2, 0.3 + (0.1 + 0.2), rounds one ulp above 0.6: the drain must
    # still reach node 0, which the walk from 3 tries first.
    ([(1, 2, 0.3), (0, 1, 0.2), (0, 3, 0.1), (2, 3, 0.6)], 3, 2, (3, 0, 1, 2)),
    # In the search from 3, node 1 is expanded at 0.6 + 0.2 = 0.8 before
    # 0.7 + 0.1 = 0.7999999999999999 lowers it; only its second expansion
    # puts node 4 at the full search's 1.0999999999999999, below 1.1.
    ([(0, 1, 0.2), (0, 2, 0.6), (0, 3, 0.6), (0, 4, 0.6), (1, 2, 0.1),
      (1, 3, 1.1), (1, 4, 0.3), (2, 3, 0.7), (2, 4, 0.7), (3, 4, 1.1)], 4, 3, (4, 1, 2, 3)),
], ids=["key-rounds-above-target", "distance-drops-after-expansion"])
def test_targeted_search_walks_the_full_search_route_under_rounding(lengths, src, dst, nodes):
    n = 1 + max(max(a, b) for a, b, _ in lengths)
    g = RoadGraph([float(v) for v in range(n)], [0.0] * n,
                  [Edge(i, a, b, length, True) for i, (a, b, length) in enumerate(lengths)])
    assert shortest_path(g, src, dst).nodes == nodes
    assert random_route(g, src, dst, np.random.default_rng(0), max_factor=1.0).nodes == nodes
    assert main_road_route(g, src, dst).nodes == nodes  # every edge is main


def test_dijkstra_with_a_target_is_not_cached():
    g = generate_manhattan_grid(4, 4, 100.0)
    part = g.dijkstra(0, target=1)
    assert part[1] == 100.0 and not np.isfinite(part).all()
    assert np.isfinite(g.dijkstra(0)).all()


def test_route_shape_validation():
    with pytest.raises(ValueError):
        Route((0, 1), (), (0.0, 1.0))
    with pytest.raises(ValueError):
        Route((0, 1), (0,), (0.0,))
