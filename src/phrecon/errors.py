"""Exception types shared across the toolkit.

All errors derive from PhreconError so callers (notably the CLI) can map
them to exit codes in one place.
"""


class PhreconError(Exception):
    """Base class for all toolkit errors."""


class ParallelLines(PhreconError):
    """The vertex phase's third direction s3 is (numerically) (0, 1).

    Its filtration lines are then parallel to the horizontal lines through
    the vertices and pin no x-coordinate: |s3.dx| is at most
    `PARALLEL_EPS`.
    """


class UncertifiedVertices(PhreconError):
    """The vertex phase cannot certify which (1, 0) birth is vertex i's x.

    `f` is the x the third diagram gives vertex i, `birth` the (1, 0) birth
    of f's rank and `bound` f's forward-error bound. The snap needs
    |f - birth| <= bound < `half_gap`, half the smallest gap between the
    births. Raised before any edge query.
    """

    def __init__(self, i: int, f: float, birth: float, bound: float, half_gap: float):
        self.i, self.f, self.birth, self.bound, self.half_gap = i, f, birth, bound, half_gap
        super().__init__(
            f"vertex {i}: x {f!r} from the third diagram is {abs(f - birth):.3g} from the "
            f"(1, 0) birth {birth!r}; its error bound is {bound:.3g} and half the "
            f"smallest birth gap {half_gap:.3g}"
        )


class InvalidGraph(PhreconError, ValueError):
    """A vertex with a non-finite coordinate, or an edge with a vertex
    index outside [0, n) or not an integer, or a self-loop (i, i).

    `PlaneGraph.arrays` raises it, so every reader of the array form
    refuses such a graph; `validate` lists the same faults as data. It is
    a ValueError too, so `except ValueError` catches it. The command line
    reports it as `invalid graph: ...` with exit 4."""


class DegeneratePoints(PhreconError):
    """A vertex set contains coincident points."""


class GenerationFailed(PhreconError):
    """Random graph generation exhausted its resampling budget."""


class DegenerateDirection(PhreconError):
    """Two vertices share a height along the queried direction.

    Carries the indices of the offending vertex pair, i < j, and the unit
    direction the oracle swept.
    """

    def __init__(self, i: int, j: int, direction):
        self.i, self.j, self.direction = i, j, direction
        super().__init__(
            f"vertices {i} and {j} share a height along the filtration direction {direction}"
        )


class DuplicateHeights(PhreconError):
    """Two diagram births coincide, so filtration lines are not distinct."""


class UncertifiedPair(PhreconError):
    """No bow tie at vertex i towards vertex j can be certified.

    `headroom` is the smallest gap between vertex heights along the bow
    tie's two directions divided by the tolerance (0 when the bow tie does
    not hold exactly j); it must exceed 1. `k` is the vertex outside (i, j)
    that sets the smallest gap, None when there is no other vertex. Indices
    are into the known vertices. Raised before the pair is queried, or with
    the oracle's DegenerateDirection as its cause when certified directions
    still tie.
    """

    def __init__(self, i, j, k, headroom: float):
        self.i, self.j, self.k, self.headroom = i, j, k, headroom
        super().__init__(
            f"no certified bow tie at vertex {i} towards vertex {j}: "
            f"headroom {headroom:.3g} (vertex {k} sets the smallest height gap)"
        )


class DegreeConflict(PhreconError):
    """Vertex v's degree cannot be met by its open pairs.

    `remaining` is v's degree from the oracle less the edges decided at v
    so far, and `open` is the number of v's pairs still undecided; the edge
    phase needs 0 <= remaining <= open. A negative remaining means that
    reads elsewhere, such as the other end's degree, made more of v's pairs
    edges than v's degree allows. Raised when the oracle's diagrams, or the
    vertices they are read at, disagree with each other.
    """

    def __init__(self, v: int, remaining: int, open: int):
        self.v, self.remaining, self.open = v, remaining, open
        if remaining < 0:
            message = f"vertex {v} already has {-remaining} more edges than its degree read allows"
        else:
            message = f"vertex {v} has {remaining} edges left to find among {open} open pairs"
        super().__init__(message)


class BowTieConflict(PhreconError):
    """The read of the probe pair asked for pair (i, j) at vertex u
    contradicts itself or the pairs already decided.

    The residual is indeg(u, s1) - indeg(u, s2) less the sign of every
    known edge in the bow tie at u; it must lie in [-minus, plus], where
    plus and minus count the bow tie's undecided pairs below u along only
    s1 and only s2. A vertex with an empty bow tie needs a residual of 0.
    """

    def __init__(self, i: int, j: int, u: int, residual: int, plus: int, minus: int):
        self.i, self.j, self.u = i, j, u
        self.residual, self.plus, self.minus = residual, plus, minus
        super().__init__(
            f"the probe of pair ({i}, {j}) reads {residual} at vertex {u}, "
            f"outside [-{minus}, {plus}]"
        )


class DiagramMismatch(PhreconError):
    """A diagram the edge phase asked for does not fit the known vertices:
    its dim-0 births are not within the tolerance of the vertex heights
    along its direction, rank by rank, or one of its events lies at no
    vertex height. i and j name the probed pair, and are None for a degree
    diagram."""

    def __init__(self, i: int | None = None, j: int | None = None, direction=None):
        self.i, self.j, self.direction = i, j, direction
        read = "degree diagram" if i is None else f"probe diagram of pair ({i}, {j})"
        super().__init__(f"the {read} along {direction} does not match the vertex heights")
