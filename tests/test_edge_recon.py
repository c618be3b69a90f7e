import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phrecon import (
    BowTieConflict,
    DiagramMismatch,
    PhreconError,
    save_graph,
    bowtie_widths,
    DegenerateDirection,
    DegeneratePoints,
    Diagram,
    HalfPlaneConflict,
    DiagramOracle,
    Direction,
    PlaneGraph,
    Point2,
    UncertifiedPair,
    global_bowtie_width,
    height,
    indegree_from_diagrams,
    lower_star_diagrams,
    pair_directions,
    PersistencePair,
    random_plane_graph,
    reconstruct_edges_detail,
    reconstruct_vertices,
    validate,
)
from phrecon import cli, edge_recon, plane_graph

from conftest import jittered_grid_points, match_to_hidden, remap_edges, tie_free_direction
from edge_reference import (
    BowTie,
    EnumerationOverflow,
    enumerate_compatible_graphs,
    line_angle_mod_pi,
    reference_bowtie_members,
    reference_probe_edge,
    reference_reconstruct_edges,
    rotate,
)
from graph_reference import indegree_direct
from validate_reference import cross


def test_bowtie_containment():
    bt = BowTie(
        Point2(0.0, 0.0),
        rotate(Direction(0.0, 1.0), 0.2),
        rotate(Direction(0.0, 1.0), -0.2),
        0.2,
    )
    assert bt.contains(Point2(1.0, 0.0))  # on the probed axis
    assert bt.contains(Point2(-1.0, 0.05))
    assert not bt.contains(Point2(0.0, 1.0))  # above both lines
    assert not bt.contains(Point2(0.0, -1.0))  # below both lines
    assert not bt.contains(Point2(0.0, 0.0))  # the center itself


def test_bowtie_width_invariant():
    with pytest.raises(ValueError):
        BowTie(Point2(0, 0), Direction(0.0, 1.0), Direction(1.0, 0.0), 0.1)


def test_global_width_right_triangle():
    # per-vertex minimum angles are {pi/2, pi/4, pi/4}
    V = [Point2(0.0, 0.0), Point2(1.0, 0.0), Point2(0.0, 1.0)]
    assert global_bowtie_width(V) == pytest.approx(math.pi / 8.0)


def test_global_width_two_vertices():
    assert global_bowtie_width([Point2(0, 0), Point2(1, 1)]) == math.pi / 8.0


def test_global_width_appendix(appendix_graph):
    # per-vertex minima by increasing x: ~0.237, 0.219, 0.399, 0.180 rad
    V = list(appendix_graph.vertices)
    minima = []
    for v in V:
        angles = sorted(line_angle_mod_pi(v, u) for u in V if u != v)
        gaps = [b - a for a, b in zip(angles, angles[1:])]
        gaps.append(angles[0] + math.pi - angles[-1])
        minima.append(min(gaps))
    assert minima == pytest.approx([0.237, 0.219, 0.399, 0.180], abs=5e-4)
    width = global_bowtie_width(V)
    assert width == pytest.approx(0.5 * min(minima))
    assert width < 0.180


def test_global_width_coincident_points():
    with pytest.raises(DegeneratePoints):
        global_bowtie_width([Point2(0, 0), Point2(0, 0), Point2(1, 1)])


def _widths_by_loop(V):
    """width[i][j] pair by pair: half the smaller gap next to line (i, j)
    among the sorted `line_angle_mod_pi` angles at V[i]."""
    n = len(V)
    W = [[math.inf] * n for _ in range(n)]
    for i, v in enumerate(V):
        angles = sorted((line_angle_mod_pi(v, u), j) for j, u in enumerate(V) if j != i)
        for p, (a, j) in enumerate(angles):
            before = a - angles[p - 1][0] if p else a + math.pi - angles[-1][0]
            after = angles[p + 1][0] - a if p + 1 < len(angles) else angles[0][0] + math.pi - a
            W[i][j] = 0.5 * min(before, after)
    return W


def test_bowtie_widths_equal_the_loop_over_line_angles(appendix_graph):
    rng = np.random.default_rng(21)
    sets = [list(appendix_graph.vertices), [Point2(0, 0), Point2(1, 0), Point2(0, 1)]]
    sets += [[Point2(*p) for p in rng.random((n, 2)).tolist()] for n in (3, 4, 7, 12, 25, 40)]
    sets.append([Point2(float(x), float(y)) for x in range(-2, 3) for y in range(-1, 2)])  # collinear rows
    for V in sets:
        W = bowtie_widths(V)
        # np.arctan2 and math.atan2 may differ in the last bit
        np.testing.assert_allclose(W, _widths_by_loop(V), rtol=0.0, atol=1e-15)
        assert global_bowtie_width(V) == W.min()
    assert bowtie_widths([Point2(0, 0), Point2(1, 1)]).tolist() == [
        [math.inf, math.pi / 8.0],
        [math.pi / 8.0, math.inf],
    ]
    with pytest.raises(DegeneratePoints, match="vertices 1 and 3"):
        bowtie_widths([Point2(0, 0), Point2(1, 1), Point2(2, 0), Point2(1, 1 + 1e-12)])


def test_pair_directions_appendix_base_vector():
    # perpendicular of v' - v is +-(-0.8, 0.6); both probes are theta away
    v, v2 = Point2(0.25, 0.0), Point2(1.0, 1.0)
    theta = 0.09
    s1, s2 = pair_directions([v, v2], 0, 1, theta)
    base1 = rotate(s1, -theta)
    base2 = rotate(s2, theta)
    for base in (base1, base2):
        assert base.dx == pytest.approx(-0.8, abs=1e-12)
        assert base.dy == pytest.approx(0.6, abs=1e-12)


def test_pair_directions_axis_case():
    v, v2 = Point2(0.0, 0.0), Point2(1.0, 0.0)
    theta = math.pi / 8.0
    s1, s2 = pair_directions([v, v2], 0, 1, theta)
    assert s1.dx == pytest.approx(-math.sin(theta), abs=1e-12)
    assert s1.dy == pytest.approx(math.cos(theta), abs=1e-12)
    assert s2.dx == pytest.approx(math.sin(theta), abs=1e-12)
    assert s2.dy == pytest.approx(math.cos(theta), abs=1e-12)


def test_pair_directions_bowtie_isolates_target():
    for seed in range(10):
        g = random_plane_graph(6, 0.5, seed + 100)
        V = list(g.vertices)
        W = bowtie_widths(V)
        for i, j in combinations(range(len(V)), 2):
            s1, s2 = pair_directions(V, i, j, W[i, j])
            bt = BowTie(V[i], s1, s2, _halfangle(s1, s2))
            inside = [u for u in V if u != V[i] and bt.contains(u)]
            assert inside == [V[j]]
        # a bow tie never holds its own centre
        for i in range(len(V)):
            with pytest.raises(UncertifiedPair) as err:
                pair_directions(V, i, i, W.min())
            assert (err.value.i, err.value.j, err.value.headroom) == (i, i, 0.0)


def test_pair_directions_refuse_an_index_outside_the_vertices(monkeypatch):
    # -1 would wrap to the last vertex as numpy indexing does, and n is past
    # the end: both raise before anything is certified
    V = [Point2(0.0, 0.0), Point2(1.0, 0.3), Point2(0.4, 0.9)]
    monkeypatch.setattr(edge_recon, "_certified_directions", None)
    for i, j in ((-1, 0), (0, -1), (3, 0), (1, 3), (-1, -1)):
        with pytest.raises(IndexError, match=rf"^pair \({i}, {j}\) is not a pair of the 3 vertices$"):
            pair_directions(V, i, j, 0.1)


def _halfangle(s1, s2):
    dot = s1.dx * s2.dx + s1.dy * s2.dy
    cross = s1.dx * s2.dy - s1.dy * s2.dx
    return 0.5 * math.atan2(abs(cross), dot)


def _height_tie(theta):
    # u2 = u1 + t * (line direction of s1): equal heights along the first
    # probe direction of the bow tie at V[0] towards V[1]
    u1 = Point2(-1.0, 2.0)
    u2 = Point2(u1.x - math.cos(theta), u1.y - math.sin(theta))
    return [Point2(0.0, 0.0), Point2(1.0, 0.0), u1, u2]


def test_pair_directions_raise_on_height_tie():
    theta = math.pi / 8.0
    V = _height_tie(theta)
    o = DiagramOracle(PlaneGraph(V, [(0, 1)]))
    with pytest.raises(UncertifiedPair) as err:
        reference_probe_edge(o, V[0], V[1], theta, V)
    # u1 and u2 set the gap, u1 lower along s1; nothing was asked
    assert (err.value.i, err.value.j, err.value.k) == (0, 1, 2)
    assert abs(err.value.headroom) <= 1.0 and o.query_count == 0
    with pytest.raises(UncertifiedPair, match="vertex 0 towards vertex 1"):
        pair_directions(V, 0, 1, theta)
    # a narrower bow tie separates them
    pair_directions(V, 0, 1, 0.9 * theta)


class RecordingOracle:
    """Oracle that keeps every direction exactly as the caller passed it."""

    def __init__(self, graph):
        self._inner = DiagramOracle(graph)
        self.asked = []
        self.calls = []  # the length of every query_many batch

    @property
    def query_count(self):
        return self._inner.query_count

    def query(self, s):
        self.asked.append(s)
        return self._inner.query(s)

    def query_many(self, S):
        self.asked.extend(S)
        self.calls.append(len(S))
        return self._inner.query_many(S)


def test_edge_phase_directions_are_certified_per_pair():
    # the reference asks every pair, the pipeline a subset, each pair with
    # the very same couple of directions
    for n, seed, margin in ((2, 1, 1e-3), (7, 2, 1e-3), (12, 3, 1e-3), (30, 4, 1e-6)):
        g = random_plane_graph(n, 0.7, seed, margin=margin)
        V = list(g.vertices)
        o = RecordingOracle(g)
        detail = reference_reconstruct_edges(o, V)
        assert detail.edges == g.edges
        assert detail.queries == n * (n - 1) and detail.retries == 0
        W = bowtie_widths(V)
        pairs = list(combinations(range(n), 2))
        for (i, j), s1, s2 in zip(pairs, o.asked[::2], o.asked[1::2]):
            # one certifier: the one-pair call at the kept end, with that
            # end's width, picks the very same directions bit for bit
            gaps = {}
            for c, f in ((i, j), (j, i)):
                try:
                    directions = pair_directions(V, c, f, W[c, f])
                except UncertifiedPair:
                    continue
                gaps[c] = _smallest_gap(V, directions)
                if directions == (s1, s2):
                    centre, far = c, f
            # the kept end has the wider height gaps, V[i] on a tie
            other = gaps.get(i + j - centre, 0.0)
            assert gaps[centre] > other or (gaps[centre] == other and centre == i)
            bt = BowTie(V[centre], s1, s2, _halfangle(s1, s2))
            assert [u for u in V if u != V[centre] and bt.contains(u)] == [V[far]]
            assert _halfangle(s1, s2) == pytest.approx(W[centre, far], abs=1e-12)
            assert gaps[centre] / 1e-9 > 1.0  # headroom
        reference = {couple: pair for pair, couple in zip(pairs, zip(o.asked[::2], o.asked[1::2]))}
        piped = RecordingOracle(g)
        assert reconstruct_edges_detail(piped, V).edges == g.edges
        assert piped.asked[:2] == [Direction(1.0, 0.0), Direction(-1.0, 0.0)]
        couples = list(zip(piped.asked[2::2], piped.asked[3::2]))
        asked = [reference[couple] for couple in couples]  # KeyError: a couple of its own
        assert len(set(asked)) == len(asked) < max(len(pairs), 1)


def _smallest_gap(V, directions):
    gaps = []
    for s in directions:
        hs = sorted(height(u, s) for u in V)
        gaps += [b - a for a, b in zip(hs, hs[1:])]
    return min(gaps)


def test_edge_phase_raises_on_height_tie(monkeypatch):
    # the geometry of test_pair_directions_raise_on_height_tie, run through
    # the edge phase with every bow-tie width pinned to theta: the bow tie
    # at V[1] towards V[0] has the opposite directions, so both ends tie.
    # V[4], right of V[1], keeps the axis reads from settling (0, 1): the
    # (-1, 0) read at V[0] holds (0, 1) and (0, 4), one of them an edge.
    # (0, 1) is the nearest pair of V[0], so the first round asks it.
    theta = math.pi / 8.0
    V = _height_tie(theta) + [Point2(2.0, -1.0)]
    monkeypatch.setattr(edge_recon, "_widths", lambda angle: np.full((5, 5), theta))
    o = RecordingOracle(PlaneGraph(V, [(0, 3), (0, 4), (1, 2)]))
    with pytest.raises(UncertifiedPair) as err:
        reconstruct_edges_detail(o, V)
    assert (err.value.i, err.value.j, err.value.k) == (0, 1, 2)
    assert abs(err.value.headroom) <= 1.0
    assert o.query_count == 2 and o.calls == [2]  # only the axis diagrams were asked
    monkeypatch.undo()
    assert reconstruct_edges_detail(o, V).edges == {(0, 3), (0, 4), (1, 2)}


class OneDegenerateOracle(RecordingOracle):
    """Raises for the first direction of the batch's second pair, once, as
    if its heights had tied."""

    def __init__(self, graph):
        super().__init__(graph)
        self.patched = None

    def query_many(self, S):
        out = super().query_many(S)
        if self.patched is None and len(S) >= 4:
            self.patched = S[2]
            raise DegenerateDirection(0, 1, Direction(*S[2]).normalized())
        return out


def test_degenerate_batch_entry_raises_uncertified_pair(monkeypatch):
    # chunks of 16 pairs, so that chunks follow the faulty one
    monkeypatch.setattr(edge_recon, "_BATCH_CELLS", 4000)
    g = random_plane_graph(30, 0.7, 14, margin=1e-6)
    V = list(g.vertices)
    clean = RecordingOracle(g)
    assert reconstruct_edges_detail(clean, V).edges == g.edges
    degrees, batch = clean.calls[:2]  # the two axis diagrams, then a chunk
    assert degrees == 2 and batch >= 4 and len(clean.calls) > 2
    o = OneDegenerateOracle(g)
    with pytest.raises(UncertifiedPair) as err:
        reconstruct_edges_detail(o, V)
    # the tie names the chunk's second pair at the end its certified bow tie
    # was asked from, with that bow tie's headroom; the DegenerateDirection
    # is the cause
    e = err.value
    assert e.k not in (e.i, e.j, None) and e.headroom > 1.0
    assert isinstance(e.__cause__, DegenerateDirection)
    assert list(pair_directions(V, e.i, e.j, bowtie_widths(V)[e.i, e.j])) == clean.asked[4:6]
    # the chunk was asked whole, as without the fault, and nothing after it
    assert o.query_count == 2 + batch and o.asked == clean.asked[: 2 + batch]


def test_edge_phase_batches_whole_rows_within_the_cell_budget(monkeypatch):
    # the reference schedule: batches of whole rows
    default = edge_recon._BATCH_CELLS
    for n, seed, margin in ((2, 1, 1e-3), (12, 3, 1e-3), (30, 4, 1e-6)):
        g = random_plane_graph(n, 0.7, seed, margin=margin)
        logs = []
        for cells in (default, 600, 4000):
            monkeypatch.setattr(edge_recon, "_BATCH_CELLS", cells)
            o = RecordingOracle(g)
            assert reference_reconstruct_edges(o, list(g.vertices)).edges == g.edges
            logs.append(o.asked)
            rows = [2 * (n - 1 - i) for i in range(n - 1)]  # directions per row
            row_at = {int(b): i for i, b in enumerate(np.cumsum([0] + rows)[:-1])}
            start = 0
            for k in o.calls:
                assert start in row_at and (start + k in row_at or start + k == n * (n - 1))
                first = row_at[start]
                assert k * 4 * n <= cells or k == rows[first]  # only a lone row may exceed
                if start + k < n * (n - 1):  # the next row would not have fit
                    assert (k + rows[row_at[start + k]]) * 4 * n > cells
                start += k
            assert start == n * (n - 1)
        # batching never changes what is asked, or in which order
        assert logs[0] == logs[1] == logs[2]


def test_edge_phase_chunks_never_change_the_query_log(monkeypatch):
    default = edge_recon._BATCH_CELLS
    for n, seed, margin in ((2, 1, 1e-3), (12, 3, 1e-3), (30, 4, 1e-6), (60, 3, 1e-5)):
        g = random_plane_graph(n, 1.0, seed, margin=margin)
        logs = []
        for cells in (default, 600, 4000):
            monkeypatch.setattr(edge_recon, "_BATCH_CELLS", cells)
            o = RecordingOracle(g)
            assert reconstruct_edges_detail(o, list(g.vertices)).edges == g.edges
            logs.append(o.asked)
            chunk = max(1, cells // (8 * n))
            assert o.calls[0] == 2 and all(k <= 2 * chunk for k in o.calls[1:])
        assert logs[0] == logs[1] == logs[2]


def test_reads_settle_pairs_that_are_then_never_asked(monkeypatch):
    # every round's asked pairs, and the pairs each round's reads settle:
    # a pair is asked once, and never after a read or counting settled it
    rounds = []
    probe, settle = edge_recon._probe, edge_recon._Reads.settle

    def recording_probe(o, X, Y, geometry, src, cols, tol):
        rounds[-1][0].update(zip(src.tolist(), cols.tolist()))
        return probe(o, X, Y, geometry, src, cols, tol)

    def recording_settle(self, undecided, edge, chunks):
        before = np.triu(undecided).copy()
        open_left = settle(self, undecided, edge, chunks)
        rounds[-1][1].update(zip(*(a.tolist() for a in (before & ~undecided).nonzero())))
        rounds[-1][2].update(zip(*(a.tolist() for a in np.triu(undecided).nonzero())))
        rounds.append((set(), set(), set()))
        return open_left

    monkeypatch.setattr(edge_recon, "_probe", recording_probe)
    monkeypatch.setattr(edge_recon._Reads, "settle", recording_settle)
    for n, density, seed, margin in ((12, 0.7, 3, 1e-3), (30, 0.7, 4, 1e-6), (60, 1.0, 3, 1e-5)):
        g = random_plane_graph(n, density, seed, margin=margin)
        rounds[:] = [(set(), set(), set())]
        detail = reconstruct_edges_detail(DiagramOracle(g), list(g.vertices))
        assert detail.edges == g.edges
        rounds.pop()
        asked = [pair for round_asked, _, _ in rounds for pair in round_asked]
        assert len(asked) == len(set(asked)) and detail.queries == 2 + 2 * len(asked)
        # each asked pair is settled by its own round's reads, which also
        # settle pairs nobody asked
        assert sum(len(settled) for _, settled, _ in rounds) > len(asked)
        open_before = None  # what the reads left open before each round
        for round_asked, settled, left_open in rounds:
            assert round_asked <= settled
            if open_before is not None:
                assert round_asked <= open_before
            open_before = left_open


def test_probe_returns_only_groups_that_can_decide():
    # a group with no member and D(u) = 0 passes its one check for good, so
    # _probe drops it; every asked pair's read at its kept centre c, tagged
    # (c * n + f) * n + c, holds the pair itself and is returned once
    g = random_plane_graph(30, 0.7, 4, margin=1e-6)
    n = len(g.vertices)
    X, Y = np.array(g.vertices).T
    geometry = edge_recon._geometry(X, Y, 1e-9)
    src, cols = np.triu_indices(n, 1)
    src, cols = src[::7], cols[::7]
    tag, D, group, pair, sign = edge_recon._probe(DiagramOracle(g), X, Y, geometry, src, cols, 1e-9)
    members = np.bincount(group, minlength=len(D))
    assert len(members) == len(D) == len(tag) < len(src) * n
    assert ((members > 0) | (D != 0)).all()
    assert len(np.unique(tag)) == len(tag)
    probe, u = np.divmod(tag, n)
    c, f = np.divmod(probe, n)
    asked = np.minimum(c, f) * n + np.maximum(c, f)
    at_centre = u == c
    assert sorted(asked[at_centre].tolist()) == (src * n + cols).tolist()
    assert (members[at_centre] == 1).all()
    held = at_centre[group]
    assert (pair[held] == asked[group[held]]).all()


def _jittered_grid_graph(n: int, scale: float = 1.0, offset: float = 0.0) -> PlaneGraph:
    """`jittered_grid_points(n, 7)` scaled, then offset, with the unit
    grid's Delaunay edges."""
    pts = np.array(jittered_grid_points(n, 7))
    return PlaneGraph((pts * scale + offset).tolist(), plane_graph._delaunay_edges(pts))


def test_probe_reads_hold_exactly_the_height_test_of_every_vertex():
    # `_probe` finds members in a padded window of chord angles, then sides
    # them by height; the reference sides every vertex by height. Each read
    # kept must hold the reference's members with its signs, and every
    # read with a member must be kept, at unit scale and at 1e6, where a
    # certified vertex can lie a few ulps of pi off a bow tie's boundary
    graphs = [random_plane_graph(60, 1.0, seed, margin=1e-5) for seed in (1, 2, 3)]
    for g in graphs + [_jittered_grid_graph(300, 1e6)]:
        n = len(g.vertices)
        X, Y = np.asarray(g.vertices).T
        geometry = edge_recon._geometry(X, Y, 1e-9)
        src, cols = np.unique(np.sort(np.c_[np.arange(n), geometry.nearest[:, 0]], axis=1), axis=0).T
        tag, D, group, pair, sign = edge_recon._probe(DiagramOracle(g), X, Y, geometry, src, cols, 1e-9)
        got = {}
        for t, p, s in zip(tag[group].tolist(), pair.tolist(), sign.tolist()):
            c, f, u = t // (n * n), t // n % n, t % n
            got.setdefault((c, f, u), {})[p] = s
        # the certificate `_probe` keeps: the end with the larger headroom
        k = len(src)
        centre, far = np.concatenate([src, cols]), np.concatenate([cols, src])
        _, headroom, H = edge_recon._certified_directions(X, Y, centre, far, geometry.width[centre, far], 1e-9)
        kept = np.arange(k) + k * (headroom[k:] > headroom[:k])
        assert got == reference_bowtie_members(H[:, kept], centre[kept], far[kept])


def test_a_counting_only_settle_holds_no_member():
    # a settle with no probe read, where every read is counting: the
    # half-plane reads store no member, both masks stay symmetric, and each
    # row read's two counters are the row sums its members would give, the
    # members being the pairs (u, w) with w below u along a diagram's
    # direction. The (1, 0) and (-1, 0) reads split u's pairs, so their
    # residuals sum to deg(u) less u's known edges. The axis reads settle a
    # star and only some pairs of the other graph; the vertex phase's
    # diagrams, carried by its array, are read the same way
    for g, settles in ((_star(8, 1), True), (random_plane_graph(12, 0.7, 3, margin=1e-3), False)):
        for carried in (False, True):
            n = len(g.vertices)
            o = DiagramOracle(g)
            V = reconstruct_vertices(o) if carried else np.array(g.vertices)
            X, Y = np.array(V).T
            held = V.diagrams_of(o) if carried else ()
            directions, H, indegree = edge_recon._degrees(o, X, Y, 1e-9, held)
            # carried: 3 vertex queries and (-1, 0); else (1, 0) and (-1, 0)
            assert len(directions) == o.query_count == (4 if carried else 2)
            reads = edge_recon._Reads(X, Y, 1e-9, directions, H, indegree)
            undecided, edge = ~np.eye(n, dtype=bool), np.zeros((n, n), dtype=bool)
            left = reads.settle(undecided, edge, [])
            assert len(reads.tag) == len(reads.group) == len(reads.pair) == len(reads.sign) == 0
            assert left == undecided.any() != settles
            assert (undecided == undecided.T).all() and (edge == edge.T).all()
            mapping = match_to_hidden(V, g)
            found = remap_edges(zip(*np.triu(edge).nonzero()), mapping)
            assert found == set(g.edges) if settles else found < set(g.edges)
            below = H[:, None, :] < H[:, :, None]
            assert reads.open.tolist() == (below & undecided).sum(axis=2).ravel().tolist()
            assert reads.residual.tolist() == (indegree - (below & edge).sum(axis=2)).ravel().tolist()
            axes = [directions.index(Direction(1.0, 0.0)), directions.index(Direction(-1.0, 0.0))]
            degree = [sum(mapping[u] in e for e in g.edges) for u in range(n)]
            left = reads.residual.reshape(-1, n)[axes].sum(axis=0)
            assert left.tolist() == (np.array(degree) - edge.sum(axis=1)).tolist()


def test_nearest_orders_every_row_by_the_global_key_on_exact_ties():
    # lattice points of spacing 1/4: their squared lengths are exact, and
    # many are equal. Row v lists the u of the pairs (v, u) in the order of
    # the global key (squared length, then (i, j) with i < j), v last.
    rng = np.random.default_rng(16)
    tied_rows = 0
    for _ in range(200):
        n = int(rng.integers(3, 13))
        X, Y = np.array(np.divmod(rng.choice(36, size=n, replace=False), 6)) / 4.0
        nearest = edge_recon._geometry(X, Y, 1e-9).nearest
        length2 = {(i, j): float((X[i] - X[j]) ** 2 + (Y[i] - Y[j]) ** 2) for i, j in combinations(range(n), 2)}
        key = sorted(length2, key=lambda p: (length2[p], p))
        for v in range(n):
            order = [i + j - v for i, j in key if v in (i, j)]
            assert nearest[v].tolist() == order + [v]
            lengths = [length2[min(v, u), max(v, u)] for u in order]
            tied_rows += len(set(lengths)) < len(lengths)
    assert tied_rows > 200


def test_edge_query_counts_are_pinned():
    # half-plane reads of every diagram held, reads of every vertex off
    # every asked probe pair, min(r(v), 2) proposals per vertex and round,
    # and the planarity rule: 156 queries here from a plain V, whose axis
    # diagrams settle other pairs first than the degrees alone did (154),
    # and 258 without the planarity rule. The vertex phase's array carries
    # (0, 1) and s3 as well, and saves asking (1, 0): 153
    g = random_plane_graph(60, 1.0, 3, margin=1e-5)
    assert reconstruct_edges_detail(DiagramOracle(g), list(g.vertices)).queries == 156
    o = DiagramOracle(g)
    assert reconstruct_edges_detail(o, reconstruct_vertices(o)).queries == 153


def test_edge_phase_round_trips_the_n1000_jittered_grid():
    # the points of acceptance criterion 8 with all their Delaunay edges,
    # through both phases, in about 2 s. The planarity rule tests each pair
    # against the edges at its ends' known neighbours only; a test of every
    # open pair against every known edge would make this test slow
    pts = np.array(jittered_grid_points(1000, 7))
    g = PlaneGraph(pts.tolist(), plane_graph._delaunay_edges(pts))
    o = DiagramOracle(g)
    vs = reconstruct_vertices(o)
    hidden = {p: k for k, p in enumerate(g.vertices)}  # every vertex comes back exactly
    detail = reconstruct_edges_detail(o, vs)
    assert remap_edges(detail.edges, {i: hidden[p] for i, p in enumerate(vs)}) == set(g.edges)
    assert detail.queries == 2571  # 3 255 without the planarity rule


@pytest.mark.parametrize("scale, offset", [(1e3, 0.0), (1e6, 0.0), (1.0, 1e6)])
def test_scaled_and_offset_grids_round_trip(scale, offset):
    # the n = 300 grid with its 887 Delaunay edges, far from the unit
    # square: at 1e6 a certified vertex can lie within a few ulps of pi of
    # a bow tie's boundary, and the offset grid's chords are 1e-7 of its
    # coordinates. Both phases come back exactly, with the unit grid's 771
    # edge queries
    g = _jittered_grid_graph(300, scale, offset)
    assert len(g.edges) == 887
    o = DiagramOracle(g)
    vs = reconstruct_vertices(o)
    hidden = {p: k for k, p in enumerate(g.vertices)}  # every vertex comes back exactly
    detail = reconstruct_edges_detail(o, vs)
    assert remap_edges(detail.edges, {i: hidden[p] for i, p in enumerate(map(tuple, vs.tolist()))}) == set(g.edges)
    assert detail.queries == 771


def test_a_grid_scaled_past_the_tolerance_raises_a_phrecon_error():
    # at 1e7 the heights round by more than tol = 1e-9, so some diagram
    # disagrees with the heights it is read at: a typed error, not a wrong
    # edge set
    g = _jittered_grid_graph(300, 1e7)
    o = DiagramOracle(g)
    with pytest.raises(PhreconError):
        reconstruct_edges_detail(o, reconstruct_vertices(o))


@pytest.mark.parametrize("wrong", ["one short", "one extra"])
def test_vertices_of_the_wrong_number_raise_diagram_mismatch(wrong):
    # a degree diagram holds one dim-0 pair per hidden vertex, so it cannot
    # be read at the heights of more or fewer vertices
    g = random_plane_graph(6, 1.0, 3)
    V = np.asarray(g.vertices)
    V = V[:-1] if wrong == "one short" else np.vstack([V, [[0.5, 0.123]]])
    o = DiagramOracle(g)
    with pytest.raises(DiagramMismatch, match="^the diagram along") as err:
        reconstruct_edges_detail(o, V)
    assert err.value.direction == Direction(1.0, 0.0)
    assert o.query_count == 2


def test_vertices_carry_their_diagrams_to_their_own_oracle_only():
    # the vertex phase's array carries its three diagrams, tied to the
    # oracle that answered them. Passed with another oracle over the same
    # vertices, it carries nothing: that oracle's own edges come back, from
    # its own (1, 0) and (-1, 0)
    g = random_plane_graph(12, 1.0, 3)
    o = DiagramOracle(g)
    V = reconstruct_vertices(o)
    assert [d.direction for d in V.diagrams_of(o)] == list(o.query_log)
    mapping = match_to_hidden(V, g)
    for edges in ([], sorted(g.edges)[::2]):
        other = DiagramOracle(PlaneGraph(g.vertices, edges))
        assert V.diagrams_of(other) == ()
        detail = reconstruct_edges_detail(other, V)
        assert remap_edges(detail.edges, mapping) == set(edges)
        assert other.query_log[:2] == (Direction(1.0, 0.0), Direction(-1.0, 0.0))
    # slices, views, copies, plain arrays and lists carry nothing
    for W in (V[:-1], V[1:], V[:], V.view(type(V)), V.copy()):
        assert W.diagrams_of(o) == ()
    for W in (V[:-1], V[1:]):
        with pytest.raises(DiagramMismatch, match="^the diagram along") as err:
            reconstruct_edges_detail(o, W)
        assert err.value.direction == Direction(1.0, 0.0)
    for W in (V[:], np.asarray(V), list(V)):
        start = o.query_count
        assert reconstruct_edges_detail(o, W).edges == reconstruct_edges_detail(o, V).edges
        assert o.query_log[start : start + 2] == (Direction(1.0, 0.0), Direction(-1.0, 0.0))


def test_the_pipeline_asks_minus_x_alone_first():
    # the vertex phase asked (1, 0), (0, 1) and s3; the edge phase holds all
    # three and asks only (-1, 0), alone, before any probe. (1, 0) is asked
    # once in the whole log
    for n, density, seed in ((2, 1.0, 1), (8, 1.0, 1), (12, 0.5, 4), (30, 0.7, 4)):
        g = random_plane_graph(n, density, seed, margin=1e-6)
        o = RecordingOracle(g)
        V = reconstruct_vertices(o)
        assert len(o.asked) == 3 and o.calls == [2]  # s3 is asked by `query`
        detail = reconstruct_edges_detail(o, V)
        assert remap_edges(detail.edges, match_to_hidden(V, g)) == set(g.edges)
        assert o.calls[1] == 1 and o.asked[3] == Direction(-1.0, 0.0)
        assert o.asked.count(Direction(1.0, 0.0)) == 1


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 14), st.sampled_from([0.0, 0.3, 0.7, 1.0]), st.integers(0, 10_000))
def test_the_pipeline_stays_one_query_inside_the_budget(n, density, seed):
    # with the vertex phase's (1, 0) carried, the edge phase asks at most
    # 1 + 2(P - 1) = n(n - 1) - 1 diagrams, P = n(n - 1)/2
    g = random_plane_graph(n, density, seed)
    o = DiagramOracle(g)
    V = reconstruct_vertices(o)
    detail = reconstruct_edges_detail(o, V)
    assert remap_edges(detail.edges, match_to_hidden(V, g)) == set(g.edges)
    assert detail.queries == o.query_count - 3 <= n * (n - 1) - 1


class AxisLyingOracle(DiagramOracle):
    """Adds one dim-1 birth at the height of vertex v plus offset to the
    (0, 1) diagram, which only the vertex phase asks: its births, and so the
    vertices, stay right. With no offset, v reads one more edge below it
    along (0, 1)."""

    def __init__(self, graph, v, offset=0.0):
        super().__init__(graph)
        self.v, self.offset = v, offset

    def query_many(self, S):
        out = super().query_many(S)
        for e, d in enumerate(out):
            if d.direction == Direction(0.0, 1.0):
                out[e] = _with_cycles(d, [height(self._graph.vertices[self.v], d.direction) + self.offset])
        return out


def test_a_lie_in_a_carried_diagram_raises():
    # the carried (0, 1) diagram is read at every vertex like the edge
    # phase's own: a lie in it raises a PhreconError, and no edge set comes
    # back. Most often a (0, 1) read raises HalfPlaneConflict, at v or at a
    # vertex whose pairs the lie at v decided wrongly
    raised = []
    for n, density, seed in ((5, 0.5, 1), (8, 1.0, 2), (12, 0.7, 3), (12, 0.0, 5)):
        g = random_plane_graph(n, density, seed, margin=1e-6)
        for v in range(n):
            o = AxisLyingOracle(g, v)
            V = reconstruct_vertices(o)
            assert V.tolist() == reconstruct_vertices(DiagramOracle(g)).tolist()
            with pytest.raises(PhreconError) as err:
                reconstruct_edges_detail(o, V)
            raised.append(err.value)
    lies = [e for e in raised if isinstance(e, HalfPlaneConflict) and e.direction == Direction(0.0, 1.0)]
    assert len(lies) > len(raised) // 2
    e = lies[0]
    assert str(e) == f"the diagram along {e.direction} reads {e.residual} more edges below vertex {e.v}, outside [0, {e.open}]"


def test_a_carried_diagram_off_the_vertex_heights_raises_diagram_mismatch():
    # a dim-1 birth halfway between the two lowest heights along (0, 1)
    # lies at no vertex: the carried diagram is named by its direction
    g = random_plane_graph(12, 0.7, 3)
    y = sorted(p.y for p in g.vertices)
    o = AxisLyingOracle(g, [p.y for p in g.vertices].index(y[0]), 0.5 * (y[1] - y[0]))
    V = reconstruct_vertices(o)
    message = r"^the diagram along Direction\(dx=0.0, dy=1.0\) does not match the vertex heights$"
    with pytest.raises(DiagramMismatch, match=message) as err:
        reconstruct_edges_detail(o, V)
    assert (err.value.i, err.value.j, err.value.direction) == (None, None, Direction(0.0, 1.0))
    assert o.query_count == 4  # three for the vertices and (-1, 0), no probe


def test_a_graph_whose_edges_cross_can_come_back_wrong():
    # the edge phase's reads and its planarity rule hold for plane graphs,
    # as `validate` checks. This graph has one crossing, and the edge set
    # that comes back after one edge query is not its own: it has the same
    # indegree at every vertex along every direction asked, so no diagram
    # asked, and no check that asks nothing more, tells the two apart
    g = PlaneGraph(
        [
            (0.8285042969263247, 0.1851255307210561),
            (0.27143341375581953, 0.4754867973601027),
            (0.6820897964707338, 0.2937617575516791),
            (0.9864675384066327, 0.262896808371179),
            (0.48130944832725653, 0.17249267139253777),
        ],
        [(0, 1), (0, 3), (0, 4), (2, 3), (2, 4)],
    )
    assert validate(g) == ["crossing edges (0, 1) x (2, 4)"]
    o = DiagramOracle(g)
    V = reconstruct_vertices(o)
    detail = reconstruct_edges_detail(o, V)
    wrong = remap_edges(detail.edges, match_to_hidden(V, g))
    assert wrong == {(0, 2), (0, 3), (0, 4), (1, 3), (2, 4)} != set(g.edges)
    assert detail.queries == 1
    read = PlaneGraph(g.vertices, sorted(wrong))
    for s in o.query_log:
        assert [indegree_direct(read, v, s) for v in range(5)] == [indegree_direct(g, v, s) for v in range(5)]


def test_uncertifiable_pair_raises_before_its_row_is_queried():
    # (1, 2) certifies but (0, 2) cannot: V[2] lies on the line through
    # V[0] and V[3], so the bow tie has width 0 at both ends. V[4], left of
    # V[2], keeps the axis reads from settling (0, 2): the (1, 0) read at
    # V[2] holds (0, 2) and (2, 4), one of them an edge. (0, 2) is the
    # nearest pair of V[0], so the first round asks it and raises before
    # its chunk is queried.
    V = [Point2(0.0, 0.0), Point2(1.0, 0.3), Point2(0.4, 0.4), Point2(2.0, 2.0), Point2(-0.4, 1.0)]
    W = bowtie_widths(V)
    pair_directions(V, 1, 2, W[1, 2])
    assert W[0, 2] == W[2, 0] == 0.0
    o = RecordingOracle(PlaneGraph(V, [(0, 2), (1, 3), (3, 4)]))
    with pytest.raises(UncertifiedPair) as err:
        reconstruct_edges_detail(o, V)
    assert (err.value.i, err.value.j, err.value.k, err.value.headroom) == (0, 2, 3, 0.0)
    assert o.query_count == 2 and o.calls == [2]


def test_collinear_vertices_raise_retry_exhausted():
    # V[0], V[1] and V[2] are collinear, so no pair among them certifies;
    # three vertices alone settle by counting without a round, so V[3]
    # joins, and the first round asks (0, 1)
    V = [Point2(0.0, 0.0), Point2(1.0, 0.5), Point2(2.0, 1.0), Point2(0.5, 2.0)]
    o = DiagramOracle(PlaneGraph(V, [(0, 1), (2, 3)]))
    with pytest.raises(UncertifiedPair) as err:
        reconstruct_edges_detail(o, V)
    assert (err.value.i, err.value.j, err.value.k) == (0, 1, 2)
    assert o.query_count == 2  # the degrees; the pair fails before it is queried
    with pytest.raises(UncertifiedPair):
        pair_directions(V, 0, 2, global_bowtie_width(V))
    # counting alone settles collinear vertices when no pair is in doubt
    for edges in ([], [(0, 1)], [(0, 1), (1, 2)]):
        o = DiagramOracle(PlaneGraph(V[:3], edges))
        detail = reconstruct_edges_detail(o, V[:3])
        assert detail.edges == set(edges) and detail.queries == 2


def test_near_collinear_triple_names_its_third_vertex():
    # uniform points, seed 1000: validate flags (164, 539, 909) as collinear
    V = [Point2(*p) for p in np.random.default_rng(1000).random((1000, 2)).tolist()]
    W = bowtie_widths(V)
    for c, f in ((164, 909), (909, 164)):
        with pytest.raises(UncertifiedPair) as err:
            pair_directions(V, c, f, W[c, f])
        assert (err.value.i, err.value.j, err.value.k) == (c, f, 539)
        assert 0.0 < err.value.headroom < 1.0


def test_frontier_n300_certifies_every_pair_at_its_better_end():
    g = random_plane_graph(300, 1.0, 300, margin=1e-7)
    V, n = list(g.vertices), g.n
    X, Y = np.array(V).T
    W = bowtie_widths(V)
    src, dst = np.triu_indices(n, 1)
    best, centre = np.empty(len(src)), np.empty(len(src), dtype=np.intp)
    for a in range(0, len(src), 128):  # both ends of 128 pairs at a time
        i, j = src[a : a + 128], dst[a : a + 128]
        ends, far = np.concatenate([i, j]), np.concatenate([j, i])
        _, headroom, _ = edge_recon._certified_directions(X, Y, ends, far, W[ends, far], 1e-9)
        at_j = headroom[len(i) :] > headroom[: len(i)]
        best[a : a + 128] = np.where(at_j, headroom[len(i) :], headroom[: len(i)])
        centre[a : a + 128] = np.where(at_j, j, i)
    assert best.min() > 1.0
    # probes from the better end decide every edge and as many non-edges
    rng = np.random.default_rng(300)
    index = {(a, b): p for p, (a, b) in enumerate(zip(src.tolist(), dst.tolist()))}
    non_edges = [p for p in rng.permutation(len(src)).tolist() if (src[p], dst[p]) not in g.edges]
    o = DiagramOracle(g)
    for p in [index[e] for e in sorted(g.edges)] + non_edges[: len(g.edges)]:
        c = int(centre[p])
        f = int(src[p] + dst[p] - c)
        want = (int(src[p]), int(dst[p])) in g.edges
        assert reference_probe_edge(o, V[c], V[f], W[c, f], V) == want
    assert o.query_count == 4 * len(g.edges)
    # and the pipeline round-trips the instance from its own vertices
    o = DiagramOracle(g)
    vs = reconstruct_vertices(o)
    detail = reconstruct_edges_detail(o, vs)
    assert remap_edges(detail.edges, match_to_hidden(vs, g)) == set(g.edges)
    assert detail.queries <= n * (n - 1) and detail.retries == 0
    # the reads and the planarity rule keep the edge phase output-sensitive:
    # 1 149 queries without the planarity rule
    assert detail.queries == 767 <= 1300


def test_indegree_from_diagrams_appendix(appendix_graph):
    v = Point2(0.25, 0.0)
    v_idx = list(appendix_graph.vertices).index(v)
    cases = [
        (Direction(-0.956, 0.293), 2),
        (Direction(-0.433, 0.902), 1),
        (Direction(0.968, 0.248), 1),
        (Direction(0.472, 0.882), 1),
    ]
    for s, expected in cases:
        d = lower_star_diagrams(appendix_graph, s)
        assert indegree_from_diagrams(d, v) == expected
        assert indegree_direct(appendix_graph, v_idx, s) == expected


def test_indegree_from_diagrams_edgeless():
    g = PlaneGraph([(0.1, 0.2), (0.6, 0.9), (0.9, 0.4)], [])
    d = lower_star_diagrams(g, Direction(1.0, 0.0))
    for v in g.vertices:
        assert indegree_from_diagrams(d, v) == 0


def test_indegree_diagrams_equals_direct_sample():
    rng = np.random.default_rng(3)
    for seed in range(20):
        g = random_plane_graph(2 + seed % 8, 0.8, seed)
        s = tie_free_direction(g, rng)
        d = lower_star_diagrams(g, s)
        for v_idx, v in enumerate(g.vertices):
            assert indegree_from_diagrams(d, v) == indegree_direct(g, v_idx, s)


def test_edge_exists_appendix_pairs(appendix_graph):
    o = DiagramOracle(appendix_graph)
    V = list(appendix_graph.vertices)
    theta = global_bowtie_width(V)
    assert reference_probe_edge(o, Point2(0.25, 0.0), Point2(1.0, 1.0), theta, V)
    assert not reference_probe_edge(o, Point2(0.25, 0.0), Point2(-1.0, 2.0), theta, V)
    assert o.query_count == 4  # two probes, two diagrams each


def test_edge_exists_edgeless_graph():
    g = random_plane_graph(5, 0.0, 12)
    o = DiagramOracle(g)
    V = list(g.vertices)
    theta = global_bowtie_width(V)
    for i, j in combinations(range(5), 2):
        assert not reference_probe_edge(o, V[i], V[j], theta, V)


def test_reconstruct_edges_single_vertex():
    o = DiagramOracle(PlaneGraph([(0.3, 0.4)], []))
    assert reconstruct_edges_detail(o, [Point2(0.3, 0.4)]).edges == frozenset()
    assert o.query_count == 0


def test_reconstruct_edges_segment():
    g = PlaneGraph([(0.1, 0.8), (0.7, 0.2)], [(0, 1)])
    o = DiagramOracle(g)
    V = reconstruct_vertices(o)
    detail = reconstruct_edges_detail(o, V)
    assert detail.edges == frozenset({(0, 1)})
    assert detail.queries == 1  # (-1, 0): V carries the vertex phase's (1, 0)
    assert detail.retries == 0


def test_reconstruct_edges_delaunay_roundtrip():
    g = random_plane_graph(8, 1.0, 42)
    o = DiagramOracle(g)
    V = reconstruct_vertices(o)
    detail = reconstruct_edges_detail(o, V)
    assert detail.queries <= 8 * 7
    assert detail.retries == 0
    mapping = match_to_hidden(V, g)
    assert remap_edges(detail.edges, mapping) == set(g.edges)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 14), st.sampled_from([0.0, 0.3, 0.7, 1.0]), st.integers(0, 10_000))
def test_pipeline_matches_the_exhaustive_reference(n, density, seed):
    g = random_plane_graph(n, density, seed)
    V = list(g.vertices)
    o, ref = DiagramOracle(g), DiagramOracle(g)
    detail = reconstruct_edges_detail(o, V)
    assert detail.edges == reference_reconstruct_edges(ref, V).edges == g.edges
    assert detail.queries == o.query_count <= n * (n - 1)


def _star(n, seed):
    # a centre joined to n - 1 random leaves: straight spokes never cross
    pts = np.random.default_rng(seed).random((n, 2)).tolist()
    return PlaneGraph(pts, [(0, k) for k in range(1, n)])


def _path(n, seed):
    # the points in x order, joined one after another: an x-monotone path
    pts = sorted(np.random.default_rng(seed).random((n, 2)).tolist())
    return PlaneGraph(pts, [(k, k + 1) for k in range(n - 1)])


@pytest.mark.parametrize(
    "shape",
    [
        _star,
        _path,
        lambda n, seed: random_plane_graph(n, 0.0, seed, margin=1e-5),
        lambda n, seed: random_plane_graph(n, 1.0, seed, margin=1e-5),
    ],
    ids=["star", "path", "edgeless", "triangulation"],
)
def test_edge_queries_stay_within_the_budget(shape):
    for n in (2, 3, 4, 5, 8, 13, 21, 40):
        g = shape(n, n)
        assert not validate(g)
        o = DiagramOracle(g)
        vs = reconstruct_vertices(o)
        detail = reconstruct_edges_detail(o, vs)
        assert remap_edges(detail.edges, match_to_hidden(vs, g)) == set(g.edges)
        assert detail.queries <= n * (n - 1) and detail.retries == 0
        if shape is _star or not g.edges:  # counting settles every pair
            assert detail.queries == 1  # (-1, 0): vs carries (1, 0)


class LyingOracle(DiagramOracle):
    """Adds one dim-1 birth at the height of each vertex in vs to the
    (-1, 0) diagram, so their degrees read one too high."""

    def __init__(self, graph, *vs):
        super().__init__(graph)
        self.vs = vs

    def query_many(self, S):
        out = super().query_many(S)
        for e, d in enumerate(out):
            if d.direction == Direction(-1.0, 0.0):
                heights = [height(self._graph.vertices[v], d.direction) for v in self.vs]
                out[e] = _with_cycles(d, heights)
        return out


def test_a_wrong_degree_raises_half_plane_conflict():
    # vertex 0 is the lowest along (-1, 0), so that read has no pair to
    # find the lie's edge among
    g = PlaneGraph([(0.1, 0.2), (0.6, 0.9), (0.9, 0.4)], [])
    o = LyingOracle(g, 0)
    message = r"^the diagram along Direction\(dx=-1.0, dy=0.0\) reads 1 more edges below vertex 0, outside \[0, 0\]$"
    with pytest.raises(HalfPlaneConflict, match=message) as err:
        reconstruct_edges_detail(o, list(g.vertices))
    e = err.value
    assert (e.v, e.direction, e.residual, e.open) == (0, Direction(-1.0, 0.0), 1, 0)
    assert o.query_count == 2
    # an odd degree sum can never be met, whichever vertex it shows at. The
    # lie can make pairs edges that another half-plane or a probe read then
    # refuses: it raises as the conflict of whichever read it first pushes
    # out of range
    for n, seed in ((7, 2), (12, 3), (30, 4)):
        g = random_plane_graph(n, 0.7, seed, margin=1e-6)
        for v in (0, n // 2, n - 1):
            with pytest.raises((HalfPlaneConflict, BowTieConflict)):
                reconstruct_edges_detail(LyingOracle(g, v), list(g.vertices))


def test_counting_after_the_last_read_is_checked_by_the_reads():
    # vertices 0 and 1 each read one degree too many, an even sum that no
    # single read refuses at first: the half-plane reads and the probe reads
    # meet in one fixpoint, and the loop ends only on a settle that checks
    # them all, so the lie raises after the rounds and no edge set is
    # returned. Counting runs to its own fixpoint before the probe reads are
    # checked, and it makes one edge too many below vertex 2 first
    g = random_plane_graph(12, 1.0, 0, margin=1e-3)
    o = LyingOracle(g, 0, 1)
    message = r"^vertex 2 already has 1 more edges below it than the diagram along Direction\(dx=1.0, dy=0.0\) allows$"
    with pytest.raises(HalfPlaneConflict, match=message) as err:
        reconstruct_edges_detail(o, list(g.vertices))
    e = err.value
    assert (e.v, e.direction, e.residual, e.open) == (2, Direction(1.0, 0.0), -1, 3)
    assert o.query_count == 32  # raised after the rounds


def test_an_edge_wins_a_pair_one_end_refuses():
    # vertex 0 reads one edge below it along (-1, 0) on an edgeless
    # segment: that read needs (0, 1) as an edge and vertex 1's (1, 0) read
    # refuses it, in the same pass. The edge wins, and vertex 1's read
    # raises in the next pass
    g = PlaneGraph([(0.1, 0.2), (0.6, 0.9)], [])
    o = LyingOracle(g, 0)
    message = r"^vertex 1 already has 1 more edges below it than the diagram along Direction\(dx=1.0, dy=0.0\) allows$"
    with pytest.raises(HalfPlaneConflict, match=message) as err:
        reconstruct_edges_detail(o, list(g.vertices))
    e = err.value
    assert (e.v, e.direction, e.residual, e.open) == (1, Direction(1.0, 0.0), -1, 0)
    assert o.query_count == 2


class ProbeLyingOracle(DiagramOracle):
    """Answers the first probe pair of probe batch `batch` (0: the first)
    truthfully but for `lie`, which gets the pair's two diagrams and the
    hidden heights along them, in the order of the vertices, and returns the
    two diagrams to send instead."""

    def __init__(self, graph, lie, batch=0):
        super().__init__(graph)
        self.lie, self.batch = lie, batch
        self.lied = False

    def query_many(self, S):
        out = super().query_many(S)
        if not self.lied and len(out) >= 2 and out[0].direction != Direction(1.0, 0.0):
            self.batch -= 1
        if not self.lied and self.batch < 0:
            self.lied = True
            X, Y = np.array(self._graph.vertices).T
            H = [X * d.direction.dx + Y * d.direction.dy for d in out[:2]]
            out[:2] = self.lie(out[0], out[1], H)
        return out


def _with_cycles(d, heights):
    """d with one more dim-1 birth at every height given."""
    extra = tuple(PersistencePair(float(h), math.inf) for h in heights)
    return Diagram(d.direction, d.dim0, tuple(sorted(d.dim1 + extra)))


def _bowtie_sizes(H):
    """How many vertices the bow tie of the directions with heights H
    holds at each vertex."""
    h1, h2 = H
    return ((h1[None, :] < h1[:, None]) != (h2[None, :] < h2[:, None])).sum(axis=1)


def _lying_reconstruction(lie):
    g = random_plane_graph(30, 0.7, 4, margin=1e-6)
    o = ProbeLyingOracle(g, lie)
    return o, lambda: reconstruct_edges_detail(o, list(g.vertices))


def test_a_read_outside_its_range_raises_bow_tie_conflict(monkeypatch, tmp_path):
    # two extra events along s1 at every vertex whose bow tie is not empty:
    # the centre of the first pair holds one pair, so its read of +2 or more
    # lies outside [-1, 1]
    def lie(d1, d2, H):
        h1 = H[0][_bowtie_sizes(H) > 0]
        return _with_cycles(d1, np.repeat(h1, 2)), d2

    o, run = _lying_reconstruction(lie)
    with pytest.raises(BowTieConflict) as err:
        run()
    e = err.value
    assert isinstance(e, PhreconError) and o.lied
    assert not -e.minus <= e.residual <= e.plus and e.plus + e.minus >= 1
    # the CLI maps it to its fixed exit code for a failed reconstruction,
    # and writes no edge set
    save_graph(random_plane_graph(30, 0.7, 4, margin=1e-6), tmp_path / "g.json")
    monkeypatch.setattr(cli, "DiagramOracle", lambda g, tol: ProbeLyingOracle(g, lie))
    assert cli.main(["reconstruct", str(tmp_path / "g.json"), "-o", str(tmp_path / "r.json")]) == 64
    assert not (tmp_path / "r.json").exists()


def test_a_read_at_an_empty_bow_tie_raises_bow_tie_conflict():
    # the lie is kept though its group has no member, and names its vertex
    lied = []

    def lie(d1, d2, H):
        lied.append(int(np.flatnonzero(_bowtie_sizes(H) == 0)[0]))
        return d1, _with_cycles(d2, [H[1][lied[0]]])

    o, run = _lying_reconstruction(lie)
    with pytest.raises(BowTieConflict) as err:
        run()
    e = err.value
    assert (e.u, e.residual, e.plus, e.minus) == (lied[0], -1, 0, 0) and o.lied


def test_a_read_of_a_pair_decided_before_it_was_asked_raises_bow_tie_conflict():
    # counting closes every pair of an edgeless vertex before the first
    # round. The first probe pair then reads one such pair (u, w), alone in
    # the bow ties at both its ends, as an edge at both ends: its members
    # are all decided, so both reads lie outside [0, 0]
    g = random_plane_graph(30, 0.5, 5, margin=1e-6)
    edgeless = set(range(30)) - {v for e in g.edges for v in e}
    lied = []

    def lie(d1, d2, H):
        return _claim_a_lone_pair(d1, d2, H, lambda u, w: bool({u, w} & edgeless), lied)

    o = ProbeLyingOracle(g, lie)
    with pytest.raises(BowTieConflict) as err:
        reconstruct_edges_detail(o, list(g.vertices))
    e = err.value
    assert (e.u, e.residual, e.plus, e.minus) == (lied[0][0], 1, 0, 0) and len(lied) == 1


def test_a_read_of_a_pair_the_planarity_rule_closed_raises_bow_tie_conflict(monkeypatch):
    # the planarity rule closes pairs after the first round. The second
    # round's first probe pair then reads one of them, (u, w), alone in the
    # bow tie at u, as an edge at both ends: the read at u, +1 or -1 as w
    # lies below u along s1 or s2 only, raises, and no edge set holding
    # (u, w) comes back. With the axis diagrams read at every vertex, most
    # graphs of 30 vertices settle in one round; this one takes two
    closed = _recorded_closures(monkeypatch)
    g = random_plane_graph(40, 0.7, 22, margin=1e-6)
    lied = []

    def lie(d1, d2, H):
        return _claim_a_lone_pair(d1, d2, H, lambda u, w: min(u, w) * 40 + max(u, w) in closed, lied)

    o = ProbeLyingOracle(g, lie, batch=1)
    with pytest.raises(BowTieConflict) as err:
        reconstruct_edges_detail(o, list(g.vertices))
    e = err.value
    assert (e.u, abs(e.residual), e.plus, e.minus) == (lied[0][0], 1, 0, 0) and len(lied) == 1


def _claim_a_lone_pair(d1, d2, H, wanted, lied):
    """d1 and d2, the diagrams of a probe pair with heights H, changed to
    read as an edge the first pair (u, w) that wanted(u, w) accepts and whose
    w is alone in the bow tie at u; (u, w) is appended to lied."""
    h1, h2 = H
    inside = (h1[None, :] < h1[:, None]) != (h2[None, :] < h2[:, None])
    u, w = next(
        (int(u), int(inside[u].argmax()))
        for u in np.flatnonzero(inside.sum(axis=1) == 1)
        if wanted(int(u), int(inside[u].argmax()))
    )
    lied.append((u, w))
    if h1[w] < h1[u]:  # w below u along s1 only: the edge adds +1 at u, -1 at w
        return _with_cycles(d1, [h1[u]]), _with_cycles(d2, [h2[w]])
    return _with_cycles(d1, [h1[w]]), _with_cycles(d2, [h2[u]])


def _recorded_closures(monkeypatch):
    """The set that collects every pair index the planarity rule closes."""
    closed = set()
    crossing = edge_recon._crossing_pairs

    def recording(X, Y, undecided, edge, tol):
        out = crossing(X, Y, undecided, edge, tol)
        closed.update(out.tolist())
        return out

    monkeypatch.setattr(edge_recon, "_crossing_pairs", recording)
    return closed


def _recorded_asks(monkeypatch):
    """The list that collects every asked pair (i, j), i < j, in order."""
    asked = []
    probe = edge_recon._probe

    def recording(o, X, Y, geometry, src, cols, tol):
        asked.extend(zip(np.minimum(src, cols).tolist(), np.maximum(src, cols).tolist()))
        return probe(o, X, Y, geometry, src, cols, tol)

    monkeypatch.setattr(edge_recon, "_probe", recording)
    return asked


def test_a_pair_across_a_known_edge_closes_without_a_query(monkeypatch):
    # a convex quadrilateral 0-1-2-3 with its four sides and the diagonal
    # (0, 2), and a triangle (2, 3, 4) on its side (2, 3). Vertex 2 has
    # degree 4 among 4 pairs, so counting makes all its pairs edges; the
    # other diagonal (1, 3) crosses (0, 2) and closes, and with the pairs of
    # vertex 4 that cross (2, 3) closed too, counting settles the rest. No
    # probe pair is asked; without the rule, two are
    g = PlaneGraph(
        [(0.1, 0.45), (0.5, 0.05), (0.9, 0.5), (0.45, 0.95), (0.85, 0.9)],
        [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2), (2, 4), (3, 4)],
    )
    assert not validate(g)
    closed = _recorded_closures(monkeypatch)
    o = RecordingOracle(g)
    detail = reconstruct_edges_detail(o, list(g.vertices))
    assert detail.edges == g.edges and detail.queries == 2 and o.calls == [2]
    assert 1 * 5 + 3 in closed
    monkeypatch.setattr(edge_recon, "_crossing_pairs", lambda *args: np.empty(0, np.intp))
    assert reconstruct_edges_detail(DiagramOracle(g), list(g.vertices)).queries == 6


def test_a_crossing_inside_the_margin_leaves_the_pair_open(monkeypatch):
    # (0, 3) crosses the edge (1, 4), and V[3] lies nearest the line through
    # V[1] and V[4]: cross(V[1], V[4], V[3]) is the crossing's smallest
    # orientation. With tol below it the rule closes (0, 3) and counting
    # settles the rest; with tol above it the pair stays open and is asked
    g = random_plane_graph(5, 1.0, 65)
    V = g.vertices
    margin = cross(V[1], V[4], V[3])
    orientations = (cross(V[1], V[4], V[0]), margin, cross(V[0], V[3], V[1]), cross(V[0], V[3], V[4]))
    assert orientations[0] * margin < 0 < -orientations[2] * orientations[3]
    assert 0.02 < margin == min(map(abs, orientations)) < 0.03
    closed, asked = _recorded_closures(monkeypatch), _recorded_asks(monkeypatch)
    for tol, queries in ((0.99 * margin, 2), (1.01 * margin, 8)):
        closed.clear()
        asked.clear()
        detail = reconstruct_edges_detail(DiagramOracle(g, tol), list(V), tol)
        assert detail.edges == g.edges and detail.queries == queries
        assert (0 * 5 + 3 in closed) == ((0, 3) not in asked) == (queries == 2)
    # the rounding-error bound: V[2] on the line through V[0] and V[1] up to
    # rounding, so cross(V[0], V[1], V[2]) reads 1.4e-17 with tol 0 and is
    # not certified, though V[3] lies across that line from it and the line
    # through V[2] and V[3] separates V[0] from V[1]. Either segment may be
    # the known edge; (0, 3) puts it at a known neighbour of the pair's end
    V = [
        Point2(0.6369616873214543, 0.2697867137638703),
        Point2(0.04097352393619469, 0.016527635528529094),
        Point2(0.15226225112459318, 0.06381864262777384),
        Point2(0.1, 0.2),
    ]
    assert 0 < cross(V[0], V[1], V[2]) < 1e-16 and cross(V[0], V[1], V[3]) < 0
    assert cross(V[2], V[3], V[0]) < 0 < cross(V[2], V[3], V[1])
    for known, pair in (((0, 1), (2, 3)), ((2, 3), (0, 1))):
        X, Y = np.array(V).T
        edge, undecided = np.zeros((4, 4), dtype=bool), np.zeros((4, 4), dtype=bool)
        edge[known] = edge[0, 3] = undecided[pair] = True
        assert edge_recon._crossing_pairs(X, Y, undecided.ravel(), edge.ravel(), 0.0).tolist() == []
        X[2] += 1e-9  # off the line to the side the rounding put it on
        out = edge_recon._crossing_pairs(X, Y, undecided.ravel(), edge.ravel(), 0.0)
        assert out.tolist() == [pair[0] * 4 + pair[1]]


def test_births_off_the_certified_heights_raise_diagram_mismatch():
    # one dim-0 birth of the s2 diagram moved by 10 tol
    def lie(d1, d2, H):
        dim0 = list(d2.dim0)
        b, dead = dim0[3]
        dim0[3] = PersistencePair(b + 1e-8, dead + 1e-8 if dead == b else dead)
        return d1, Diagram(d2.direction, tuple(sorted(dim0)), d2.dim1)

    o, run = _lying_reconstruction(lie)
    with pytest.raises(DiagramMismatch) as err:
        run()
    assert isinstance(err.value, PhreconError) and o.lied
    assert err.value.direction == o.query_log[3]


def test_every_edge_phase_diagram_is_read_by_events_at_ranks(monkeypatch):
    read = []
    reader = edge_recon.events_at_ranks

    def counting_reader(entries, ascending, tol):
        read.extend(entries)
        return reader(entries, ascending, tol)

    monkeypatch.setattr(edge_recon, "events_at_ranks", counting_reader)
    for n, density, seed, margin in ((2, 1.0, 1, 1e-3), (12, 0.7, 3, 1e-3), (30, 0.7, 4, 1e-6)):
        g = random_plane_graph(n, density, seed, margin=margin)
        o = DiagramOracle(g)
        read.clear()
        detail = reconstruct_edges_detail(o, list(g.vertices))
        assert detail.edges == g.edges
        assert len(read) == detail.queries == o.query_count
        assert [d.direction for d in read[:2]] == [Direction(1.0, 0.0), Direction(-1.0, 0.0)]


class ShiftedBirthOracle(DiagramOracle):
    """Moves one dim-0 birth of the (-1, 0) diagram, a direction only the
    edge phase asks, by 2 tol; its death stays."""

    def query_many(self, S):
        out = super().query_many(S)
        for e, d in enumerate(out):
            if d.direction == Direction(-1.0, 0.0):
                dim0 = list(d.dim0)
                b, dead = dim0[2]
                dim0[2] = PersistencePair(b + 2 * self._tol, dead)
                out[e] = Diagram(d.direction, tuple(sorted(dim0)), d.dim1)
        return out


def test_a_degree_diagram_off_the_vertex_heights_raises_diagram_mismatch():
    g = random_plane_graph(12, 0.7, 3, margin=1e-3)
    o = ShiftedBirthOracle(g)
    V = reconstruct_vertices(o)
    with pytest.raises(DiagramMismatch, match="^the diagram along") as err:
        reconstruct_edges_detail(o, V)
    e = err.value
    assert isinstance(e, PhreconError) and (e.i, e.j) == (None, None)
    assert e.direction == Direction(-1.0, 0.0)
    assert o.query_count == 4  # three for the vertices, (-1, 0) for the degrees, no probe


class NaNOracle(DiagramOracle):
    """Sets entry `entry` of the (-1, 0) diagram's dim-0 `births` or
    `deaths` to NaN."""

    def __init__(self, graph, field, entry):
        super().__init__(graph)
        self.field, self.entry = field, entry

    def query_many(self, S):
        out = super().query_many(S)
        for e, d in enumerate(out):
            if d.direction == Direction(-1.0, 0.0):
                arrays = {"births": d.births, "deaths": d.deaths}
                arrays[self.field] = arrays[self.field].copy()
                arrays[self.field][self.entry] = math.nan
                out[e] = Diagram._of(d.direction, arrays["births"], arrays["deaths"], d.cycles)
        return out


def test_a_nan_in_a_diagram_raises_diagram_mismatch():
    # NaN is within tol of no height, so neither a NaN birth nor a NaN death
    # passes as an event of a vertex, or drops out of the counts unseen
    for seed in range(40):
        g = random_plane_graph(10, 0.7, seed)
        for field in ("births", "deaths"):
            for entry in (0, 3, 9):
                o = NaNOracle(g, field, entry)
                with pytest.raises(DiagramMismatch, match=r"^the diagram along") as err:
                    reconstruct_edges_detail(o, list(g.vertices))
                assert err.value.direction == Direction(-1.0, 0.0)
                assert o.query_count == 2


def test_indegree_difference_decides_every_pair():
    for seed in range(8):
        g = random_plane_graph(6, 0.6, seed + 30)
        o = DiagramOracle(g)
        V = list(g.vertices)  # exact vertices: decision rule checked on its own
        theta = global_bowtie_width(V)
        for i, j in combinations(range(len(V)), 2):
            want = (i, j) in g.edges
            assert reference_probe_edge(o, V[i], V[j], theta, V) == want


def test_enumerate_single_vertex():
    g = PlaneGraph([(0.2, 0.5)], [])
    d = lower_star_diagrams(g, Direction(1.0, 0.0))
    out = enumerate_compatible_graphs([Point2(0.2, 0.5)], Direction(1.0, 0.0), d)
    assert out == {frozenset()}


def test_enumerate_segment():
    g = PlaneGraph([(0.0, 0.0), (1.0, 0.5)], [(0, 1)])
    s = Direction(1.0, 0.0)
    d = lower_star_diagrams(g, s)
    out = enumerate_compatible_graphs(list(g.vertices), s, d)
    # the edgeless row contradicts the dim-0 death at height 1
    assert out == {frozenset({(0, 1)})}


def test_enumerate_soundness_random():
    rng = np.random.default_rng(8)
    for seed in range(10):
        n = 2 + seed % 4
        g = random_plane_graph(n, 0.7, seed + 60)
        s = tie_free_direction(g, rng)
        d = lower_star_diagrams(g, s)
        out = enumerate_compatible_graphs(list(g.vertices), s, d)
        assert frozenset(g.edges) in out


def test_enumerate_overflow_guard():
    V = [Point2(i / 20.0, ((i * 7) % 13) / 13.0) for i in range(13)]
    with pytest.raises(EnumerationOverflow):
        enumerate_compatible_graphs(V, Direction(1.0, 0.0), None)


@pytest.mark.parametrize("tol", [-1.0, math.nan, math.inf])
def test_edge_phase_refuses_a_tolerance_outside_zero_to_infinity(tol):
    g = random_plane_graph(10, 1.0, 3)
    o = DiagramOracle(g)
    V = reconstruct_vertices(o)
    with pytest.raises(ValueError, match="tolerance"):
        reconstruct_edges_detail(o, V, tol)
    assert o.query_count == 3
    for V in ([], [Point2(0.0, 0.0)]):  # refused before the early return, too
        with pytest.raises(ValueError, match="tolerance"):
            reconstruct_edges_detail(o, V, tol)
    with pytest.raises(ValueError, match="tolerance"):
        indegree_from_diagrams(o.query(Direction(1.0, 0.3)), g.vertices[0], tol)
