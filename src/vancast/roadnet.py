"""Road graphs, grid generation, and route selection.

A road network is an undirected weighted graph: nodes are
intersections with planar coordinates, edges are road segments with a
positive length in meters.  Edges carry a ``main`` flag marking
high-capacity roads; routing policies can prefer those.

All route selection is deterministic for a given graph and random
state.  Ties inside Dijkstra are broken toward the smaller node id, so
two runs of the same experiment walk identical paths.  Every policy
hands its legs, each a destination with a distance field rooted there,
to one walk that builds the Route.  ``RoadGraph.dijkstra`` is the one
search and memoizes nothing; ``RoadGraph.field`` is the one memo of
distance fields, shared by every reader, who must not edit them.
"""

from __future__ import annotations

import heapq
import logging
import math
import sys
from array import array
from dataclasses import dataclass
from itertools import compress, product

import numpy as np

log = logging.getLogger(__name__)

# The most random_route inflates an edge's length by, so the most a search
# weighs it: every road sum is bounded through it (check_road_sums).
MAX_FACTOR = 3.0


@dataclass(frozen=True)
class Edge:
    """Undirected road segment between intersections a and b."""

    edge_id: int
    a: int
    b: int
    length: float
    main: bool = False


class RoadGraph:
    """Immutable-by-convention road network with cached routing tables."""

    def __init__(self, xs: list[float], ys: list[float], edges: list[Edge]):
        if len(xs) != len(ys):
            raise ValueError("coordinate lists differ in length")
        if len(xs) == 0:
            raise ValueError("graph needs at least one node")
        if len(edges) == 0:
            raise ValueError("graph needs at least one edge")
        for i, (x, y) in enumerate(zip(xs, ys)):
            if not (np.isfinite(x) and np.isfinite(y)):
                raise ValueError(f"node {i} has non-finite coordinates ({x}, {y})")
        self.node_x = list(xs)
        self.node_y = list(ys)
        self.edges = list(edges)
        n = len(xs)
        self.adjacency: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        for pos, e in enumerate(self.edges):
            if e.edge_id != pos:
                raise ValueError(f"edge {e.edge_id} sits at position {pos}")
            if not (0 <= e.a < n and 0 <= e.b < n):
                raise ValueError(f"edge {e.edge_id} references missing node")
            if e.a == e.b:
                raise ValueError(f"edge {e.edge_id} is a self-loop")
            if not 0 < e.length < np.inf:
                raise ValueError(f"edge {e.edge_id} length {e.length} is not positive")
            self.adjacency[e.a].append((e.b, e.edge_id))
            self.adjacency[e.b].append((e.a, e.edge_id))
        for nbrs in self.adjacency:
            nbrs.sort()
        self.lengths = [e.length for e in self.edges]
        # Main-only routing: non-main edges weigh inf, so no search
        # relaxes them and no route walk takes them.
        self.main_weights = [e.length if e.main else np.inf for e in self.edges]
        self.main_nodes = tuple(sorted({v for e in self.edges if e.main for v in (e.a, e.b)}))
        self._length_array = np.array(self.lengths)
        self._fields: dict[tuple[int, bool], array] = {}
        self._warned_off_main = False  # main_road_route warns once per graph
        # main_road_route's memos: src -> entry (None off the main roads),
        # entry -> its main component, (component's first node, dst) -> exit
        self._entries: dict[int, int | None] = {}
        self._main_parts: dict[int, tuple[int, ...]] = {}
        self._exits: dict[tuple[int, int], int] = {}
        self._within: dict[tuple[int, float], tuple[int, ...]] = {}
        self._pairs: tuple[np.ndarray, np.ndarray] | None = None  # edges_between's lookup
        self._near: dict[float, tuple[np.ndarray, np.ndarray]] = {}  # near_places' tables
        # One int object per node id, shared by every cached tuple, so a
        # tuple costs a pointer per node rather than an int each.
        self._node_ids = list(range(n))

    @property
    def n_nodes(self) -> int:
        return len(self.node_x)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def dijkstra(
        self, src: int, weights: list[float] | None = None, target: int | None = None
    ) -> list[float]:
        """Distances from src to every node under weights (default
        ``lengths``), inf where unreachable, in a fresh list: the graph's
        one search, which memoizes nothing (:meth:`field` does).  Custom
        weights are the per-trip inflated weights of :func:`random_route`,
        and ``main_weights``, whose inf entries confine it to main roads.

        With ``target`` the search is A* (Hart, Nilsson & Raphael, 1968)
        toward target.  Only the nodes a route walk from target needs are
        sure to hold the full search's distance; others may hold an upper
        bound or inf.  The heuristic is the memoized true-length field of
        target.  It is consistent because every weight vector searched is
        edgewise at least ``lengths`` (the lengths, their per-trip
        inflations, ``main_weights``), so in exact arithmetic every node
        on a shortest path to target has a key (distance plus heuristic)
        of at most target's distance.  Rounding can put such a key a few
        ulps above target's, and can expand a node before its last
        improvement.  So a node whose distance drops after it was
        expanded is expanded again, and once target is expanded at
        distance d the search drains every key up to ``d * (1 + 4 n
        eps)`` for n nodes: rounded sums over at most n - 1 edges stray
        from the exact ones by less than that factor.  Then every node
        on a shortest path to target holds the full search's distance,
        since no search assigns a node less than the full search does.
        """
        w = self.lengths if weights is None else weights
        n = self.n_nodes
        h = [0.0] * n if target is None else self.field(target)
        slack = 1.0 + 4 * n * sys.float_info.epsilon
        adjacency = self.adjacency
        dist = [math.inf] * n
        expanded = [math.inf] * n  # the distance each node was last expanded at
        dist[src] = 0.0
        heap = [(h[src], src)]
        bound = math.inf
        while heap:
            key, u = heapq.heappop(heap)
            if key > bound:
                break
            d = dist[u]
            if expanded[u] <= d:
                continue
            expanded[u] = d
            if u == target:
                bound = d * slack
            for v, eid in adjacency[u]:
                nd = d + w[eid]
                if nd < dist[v]:
                    dist[v] = nd
                    heapq.heappush(heap, (nd + h[v], v))
        return dist

    def field(self, src: int, main: bool = False) -> array:
        """The full search from src under ``lengths``, or with ``main`` under
        ``main_weights`` (inf off src's main component), run once per
        ``(src, main)``: every caller gets the same array and must not edit it."""
        out = self._fields.get((src, main))
        if out is None:
            out = self._fields[src, main] = array(
                "d", self.dijkstra(src, self.main_weights if main else None))
        return out

    def nodes_within(self, src: int, max_dist: float) -> tuple[int, ...]:
        """Nodes at positive road distance <= max_dist from src, sorted.
        Cached per ``(src, max_dist)``."""
        near = self._within.get((src, max_dist))
        if near is None:
            near = tuple(compress(self._node_ids, [0 < d <= max_dist for d in self.field(src)]))
            self._within[(src, max_dist)] = near
        return near

    def edges_between(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """For each pair of nodes a[i], b[i] joined by an edge, either way,
        the id of one such edge (any: parallel edges share their nodes)."""
        if self._pairs is None:
            ends = np.array([(e.a, e.b) for e in self.edges], dtype=np.int64)
            keys = ends.min(axis=1) * self.n_nodes + ends.max(axis=1)
            order = np.argsort(keys, kind="stable")
            self._pairs = keys[order], order
        keys, ids = self._pairs
        return ids[np.searchsorted(keys, np.minimum(a, b) * self.n_nodes + np.maximum(a, b))]

    def near_places(self, comm_range: float) -> tuple[np.ndarray, np.ndarray]:
        """The places near each place, as CSR arrays ``(start, near)``:
        place p's are ``near[start[p]:start[p + 1]]``, sorted, p among them.

        Places are the edges, then the nodes (place ``n_edges + v`` is node
        v).  A place's box is the bounding box of its nodes' coordinates,
        and two places are near when their boxes lie within comm_range plus
        a rounding slack of 1e-9 times comm_range plus the largest
        coordinate's magnitude.  A point between an edge's nodes lies in
        its box, so two points on places that are not near lie further
        than comm_range apart, even once interpolated and measured in
        floats.  Built once per comm_range, in memory linear in the near
        pairs: each box is filed under the square cell of its lower corner,
        cells 1.25 times the widest box or the reach, so the corner of a
        near box is at most two cells off in each axis, and each of those
        cells is searched.  Raises ValueError naming comm_range if the cells
        cannot be keyed in int64.
        """
        table = self._near.get(comm_range)
        if table is not None:
            return table
        ends = np.array([(e.a, e.b) for e in self.edges]
                        + [(v, v) for v in range(self.n_nodes)], dtype=np.int64)
        xs, ys = np.asarray(self.node_x)[ends], np.asarray(self.node_y)[ends]
        x0, x1, y0, y1 = xs.min(axis=1), xs.max(axis=1), ys.min(axis=1), ys.max(axis=1)
        reach = comm_range + 1e-9 * (comm_range + max(np.abs(xs).max(), np.abs(ys).max()))
        size = 1.25 * max(reach, (x1 - x0).max(), (y1 - y0).max())
        cx, cy = np.floor(x0 / size), np.floor(y0 / size)
        cx -= cx.min() - 2  # two empty cells a side: +-2 stays in a column
        cy -= cy.min() - 2
        nx, ny = int(cx.max()) + 3, int(cy.max()) + 3
        if nx * ny >= 2**62:
            raise ValueError(f"the road graph spans too many comm_range = {comm_range} m "
                             f"cells to index")
        key = cx.astype(np.int64) * ny + cy.astype(np.int64)
        order = np.argsort(key, kind="stable")
        key = key[order]
        n_places = len(key)
        found = []
        # One column of five cells at a time, for a block of boxes: the
        # candidate pairs in hand stay few.
        for dx, at in product(range(-2, 3), range(0, n_places, 512)):
            part = key[at:at + 512]
            lo = np.searchsorted(key, part + dx * ny - 2, side="left")
            n = np.searchsorted(key, part + dx * ny + 2, side="right") - lo
            p = order[np.repeat(np.arange(at, at + len(part)), n)]
            q = order[np.repeat(lo - (np.cumsum(n) - n), n) + np.arange(len(p))]
            gap_x = np.maximum(np.maximum(x0[q] - x1[p], x0[p] - x1[q]), 0.0)
            gap_y = np.maximum(np.maximum(y0[q] - y1[p], y0[p] - y1[q]), 0.0)
            near = np.hypot(gap_x, gap_y) <= reach
            found.append(p[near] * n_places + q[near])
        pairs = np.sort(np.concatenate(found))
        start = np.searchsorted(pairs, np.arange(n_places + 1) * n_places)
        table = self._near[comm_range] = (start, pairs % n_places)
        return table


@dataclass(frozen=True)
class Route:
    """A node path with its edge ids and cumulative length profile."""

    nodes: tuple[int, ...]
    edge_ids: tuple[int, ...]
    cum_length: tuple[float, ...]  # cum_length[i] = meters up to nodes[i]

    def __post_init__(self):
        if len(self.nodes) != len(self.edge_ids) + 1:
            raise ValueError("route needs exactly one more node than edges")
        if len(self.cum_length) != len(self.nodes):
            raise ValueError("cumulative length profile has wrong size")

    @property
    def total_length(self) -> float:
        return self.cum_length[-1]

    @property
    def src(self) -> int:
        return self.nodes[0]

    @property
    def dst(self) -> int:
        return self.nodes[-1]


def _walk_route(
    g: RoadGraph, src: int, legs: list[tuple[int, array | list[float], list[float]]]
) -> Route:
    """Walk from src through each leg ``(dst, field rooted at dst, weights)``.

    At each node take the neighbor that lies exactly on a shortest
    path (dist[u] == weight + dist[v]); neighbors are scanned in node
    id order so ties resolve identically on every run.  Each leg starts
    where the last ended; true lengths are summed along the whole route.
    """
    nodes = [src]
    edge_ids: list[int] = []
    cum = [0.0]
    u = src
    for dst, dist, weights in legs:
        if not math.isfinite(dist[u]):
            raise ValueError(f"no path from {u} to {dst}")
        guard = g.n_nodes + 1
        while u != dst:
            for v, eid in g.adjacency[u]:
                if dist[u] == weights[eid] + dist[v]:
                    nodes.append(v)
                    edge_ids.append(eid)
                    cum.append(cum[-1] + g.lengths[eid])
                    u = v
                    break
            else:
                raise RuntimeError(f"distance field inconsistent at node {u}")
            guard -= 1
            if guard < 0:
                raise RuntimeError("route reconstruction did not terminate")
    return Route(tuple(nodes), tuple(edge_ids), tuple(cum))


def shortest_path(g: RoadGraph, src: int, dst: int) -> Route:
    """Deterministic shortest route by road length."""
    _check_endpoints(g, src, dst)
    return _walk_route(g, src, [(dst, g.field(dst), g.lengths)])


def random_route(
    g: RoadGraph,
    src: int,
    dst: int,
    rng: np.random.Generator,
    max_factor: float = MAX_FACTOR,
) -> Route:
    """Shortest path under per-trip random edge weight inflation.

    Every edge length is multiplied by an independent uniform draw from
    [1, max_factor] before running the search, which spreads traffic
    over near-shortest alternatives while keeping routes loop-free.
    The draws are one ``rng.uniform`` call of one value per edge, none
    when src == dst.  ``max_factor=1`` degenerates to
    :func:`shortest_path` exactly.  The reported route lengths always
    use the true edge lengths.  Raises ValueError naming max_factor,
    before any draw, unless it lies in [1, MAX_FACTOR]: the road sums
    :func:`check_road_sums` bounds are weighed by MAX_FACTOR at most.
    """
    _check_endpoints(g, src, dst)
    if not 1.0 <= max_factor <= MAX_FACTOR:
        raise ValueError(f"max_factor must lie in [1, {MAX_FACTOR:g}], got {max_factor}")
    if src == dst:
        return Route((src,), (), (0.0,))
    return _factor_route(g, src, dst, rng.uniform(1.0, max_factor, size=g.n_edges))


def _factor_route(g: RoadGraph, src: int, dst: int, factors: np.ndarray) -> Route:
    """The route from src to dst (src != dst) that is shortest with edge i's
    length multiplied by ``factors[i]``, each in [1, MAX_FACTOR]: the
    route :func:`random_route` gives for those draws."""
    weights = (g._length_array * factors).tolist()
    return _walk_route(g, src, [(dst, g.dijkstra(dst, weights, target=src), weights)])


def main_road_route(g: RoadGraph, src: int, dst: int) -> Route:
    """Route that detours over the main-road subnetwork.

    Three legs, walked as one route: to the entry, the main node nearest
    src; along main roads only to the exit, the node of the entry's main
    component nearest dst; then on to dst.  Ties go to the smaller node
    id; the middle leg is empty when entry and exit coincide.  The
    component and the middle leg come from the graph's memoized
    main-only fields of entry and exit (:meth:`RoadGraph.field`).  The
    graph memoizes the entry of each src, the component of each entry
    and the exit of each (component, dst): at most one entry a node and
    one exit a node per main component.
    A src that reaches no main road gets :func:`shortest_path`, with one
    warning per graph.  Raises ValueError on a graph with no main edges.
    """
    _check_endpoints(g, src, dst)
    main = g.main_nodes
    if not main:
        raise ValueError("graph has no main roads")
    if src == dst:
        return Route((src,), (), (0.0,))

    if src in g._entries:
        entry = g._entries[src]
    else:
        # main is sorted and min keeps the first minimum: the smaller id.
        dist_src = g.field(src)
        entry = min(main, key=dist_src.__getitem__)
        if not math.isfinite(dist_src[entry]):
            entry = None
        g._entries[src] = entry
    if entry is None:
        if not g._warned_off_main:
            g._warned_off_main = True
            log.warning("main roads unreachable from node %d; using shortest path "
                        "(not repeated for other trips on this graph)", src)
        return shortest_path(g, src, dst)
    part = g._main_parts.get(entry)
    if part is None:
        on_entry = g.field(entry, main=True)
        part = tuple(v for v in main if math.isfinite(on_entry[v]))
        # one tuple per component: its smallest node, an entry of it too,
        # keys the tuple that every entry of the component shares
        part = g._main_parts[entry] = g._main_parts.setdefault(part[0], part)
    exit_ = g._exits.get((part[0], dst))
    if exit_ is None:
        exit_ = g._exits[part[0], dst] = min(part, key=g.field(dst).__getitem__)

    legs = [(entry, g.field(entry), g.lengths)]
    if entry != exit_:
        legs.append((exit_, g.field(exit_, main=True), g.main_weights))
    legs.append((dst, g.field(dst), g.lengths))
    return _walk_route(g, src, legs)


def _check_endpoints(g: RoadGraph, src: int, dst: int):
    for name, v in (("src", src), ("dst", dst)):
        if not (0 <= v < g.n_nodes):
            raise ValueError(f"{name} node {v} outside graph with {g.n_nodes} nodes")


def _sums_finite(total: float, n_nodes: int) -> bool:
    """Whether every road sum a search can form stays finite on a graph of
    n_nodes whose edge lengths sum to total: a route takes each edge at
    most once, weighed at most MAX_FACTOR times its length, and rounded
    sums over at most n - 1 edges stray from the exact ones by less than
    a factor 1 + 4 n eps (see :meth:`RoadGraph.dijkstra`)."""
    return math.isfinite(MAX_FACTOR * total * (1 + 4 * n_nodes * sys.float_info.epsilon))


def check_road_sums(g: RoadGraph, name: str):
    """ValueError naming ``name``, the source of g, unless every road sum
    a search can form on g stays finite."""
    try:
        total = math.fsum(g.lengths)
    except OverflowError:
        total = math.inf
    if not _sums_finite(total, g.n_nodes):
        raise ValueError(f"{name}: its edge lengths sum to {total:g} m, and routes weigh them up "
                         f"to {MAX_FACTOR:g} times over: road sums could overflow")


def check_grid(rows: int, cols: int, block_len: float):
    """ValueError naming rows and cols for a 1x1 grid, which has no edges,
    and naming block_len unless it is positive and every road sum a search
    can form on a rows x cols grid stays finite.  That bounds the grid's
    farthest coordinate too, as its blocks' total length is at least
    ``(max(rows, cols) - 1) * block_len``."""
    if rows == cols == 1:
        raise ValueError("rows = cols = 1 is a 1x1 grid, which has no edges")
    n_edges = rows * (cols - 1) + (rows - 1) * cols
    if not (block_len > 0 and _sums_finite(n_edges * block_len, rows * cols)):
        raise ValueError(f"block_len must be positive and finite, as must {MAX_FACTOR:g} times "
                         f"the total length of the {rows}x{cols} grid's {n_edges} blocks, "
                         f"which routes may weigh; got {block_len}")


def generate_manhattan_grid(
    rows: int,
    cols: int,
    block_len: float,
    main_cols: list[int] | None = None,
) -> RoadGraph:
    """Regular grid of rows x cols intersections, block_len meters apart.

    Node id layout is row-major (id = row * cols + col).  Horizontal
    edges are numbered first, then vertical.  Vertical edges in the
    columns listed in main_cols are flagged as main roads, which models
    a handful of north-south arterials crossing the grid.
    """
    if rows < 1 or cols < 1:
        raise ValueError(f"grid needs rows, cols >= 1, got {rows}x{cols}")
    check_grid(rows, cols, block_len)
    main_set = set(main_cols or [])
    for c in main_set:
        if not (0 <= c < cols):
            raise ValueError(f"main column {c} outside 0..{cols - 1}")

    xs, ys = [], []
    for r in range(rows):
        for c in range(cols):
            xs.append(c * block_len)
            ys.append(r * block_len)

    edges: list[Edge] = []
    for r in range(rows):
        for c in range(cols - 1):
            a = r * cols + c
            edges.append(Edge(len(edges), a, a + 1, block_len, main=False))
    for r in range(rows - 1):
        for c in range(cols):
            a = r * cols + c
            edges.append(Edge(len(edges), a, a + cols, block_len, main=c in main_set))
    return RoadGraph(xs, ys, edges)


def float_text(v: float) -> str:
    """Short text for a float that reads back as the same float:
    ``:g`` where that is exact, else ``repr``."""
    short = f"{v:g}"
    return short if float(short) == v else repr(float(v))


def save_road_graph(g: RoadGraph, path: str):
    """Write the line-oriented road graph format.

    Layout: a ``nodes N edges E`` header, one ``node id x y`` line per
    node, one ``edge id a b length main`` line per edge (main is 0/1).
    Lines starting with ``#`` are comments.  Floats are written with
    :func:`float_text`, so the graph loads back exactly.
    """
    with open(path, "w") as fh:
        fh.write(f"nodes {g.n_nodes} edges {g.n_edges}\n")
        for i in range(g.n_nodes):
            fh.write(f"node {i} {float_text(g.node_x[i])} {float_text(g.node_y[i])}\n")
        for e in g.edges:
            fh.write(f"edge {e.edge_id} {e.a} {e.b} {float_text(e.length)} {int(e.main)}\n")


def load_road_graph(path: str) -> RoadGraph:
    """Parse the format written by :func:`save_road_graph`.

    Raises ValueError naming the offending line for malformed input: a
    bad header, field count or id order, counts that do not match the
    header, non-finite coordinates, self-loops or non-positive lengths.
    """
    with open(path) as fh:
        lines = fh.readlines()

    def bad(lineno: int, why: str):
        raise ValueError(f"{path}:{lineno}: {why}")

    content = [
        (i + 1, ln.strip())
        for i, ln in enumerate(lines)
        if ln.strip() and not ln.strip().startswith("#")
    ]
    if not content:
        raise ValueError(f"{path}: empty road graph file")
    lineno, header = content[0]
    parts = header.split()
    if len(parts) != 4 or parts[0] != "nodes" or parts[2] != "edges":
        bad(lineno, f"expected 'nodes N edges E' header, got {header!r}")
    try:
        n_nodes, n_edges = int(parts[1]), int(parts[3])
    except ValueError:
        bad(lineno, "header counts are not integers")
    if n_nodes < 1 or n_edges < 1:
        bad(lineno, "graph needs at least one node and one edge")
    if len(content) != 1 + n_nodes + n_edges:
        raise ValueError(
            f"{path}: header promises {n_nodes} nodes and {n_edges} edges "
            f"but file has {len(content) - 1} record lines"
        )

    def fields(lineno: int, ln: str, idx: int, form: str, types: tuple) -> list:
        parts, kind = ln.split(), form.split()[0]
        if len(parts) != len(types) + 2 or parts[0] != kind:
            bad(lineno, f"expected '{form}', got {ln!r}")
        try:
            rid, *values = (t(p) for t, p in zip((int, *types), parts[1:]))
        except ValueError:
            bad(lineno, f"malformed {kind} line {ln!r}")
        if rid != idx:
            bad(lineno, f"{kind} ids must be sequential; expected {idx}, got {rid}")
        return values

    xs = [0.0] * n_nodes
    ys = [0.0] * n_nodes
    for idx, (lineno, ln) in enumerate(content[1 : 1 + n_nodes]):
        x, y = fields(lineno, ln, idx, "node id x y", (float, float))
        if not (math.isfinite(x) and math.isfinite(y)):
            bad(lineno, f"node {idx} has non-finite coordinates ({x}, {y})")
        xs[idx], ys[idx] = x, y

    edges: list[Edge] = []
    for idx, (lineno, ln) in enumerate(content[1 + n_nodes :]):
        a, b, length, main = fields(
            lineno, ln, idx, "edge id a b length main", (int, int, float, int))
        if not (0 <= a < n_nodes and 0 <= b < n_nodes):
            bad(lineno, f"edge endpoints {a},{b} outside 0..{n_nodes - 1}")
        if a == b:
            bad(lineno, f"edge {idx} is a self-loop")
        if not 0 < length < math.inf:
            bad(lineno, f"edge {idx} length {length} is not positive")
        if main not in (0, 1):
            bad(lineno, f"main flag must be 0 or 1, got {main}")
        edges.append(Edge(idx, a, b, length, bool(main)))
    return RoadGraph(xs, ys, edges)
