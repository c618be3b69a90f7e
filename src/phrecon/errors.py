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


class CoincidentPoints(PhreconError):
    """An operation needing two distinct points received equal ones."""


class DegeneratePoints(PhreconError):
    """A vertex set contains coincident points."""


class GenerationFailed(PhreconError):
    """Random graph generation exhausted its resampling budget."""


class DegenerateDirection(PhreconError):
    """Two vertices share a height along the queried direction.

    Carries the indices of the offending vertex pair.
    """

    def __init__(self, i: int, j: int, direction=None):
        self.i = i
        self.j = j
        self.direction = direction
        msg = f"vertices {i} and {j} share a height along the filtration direction"
        if direction is not None:
            msg += f" {direction}"
        super().__init__(msg)


class DuplicateHeights(PhreconError):
    """Two diagram births coincide, so filtration lines are not distinct."""


class UncertifiedPair(PhreconError):
    """No bow tie at vertex i towards vertex j can be certified.

    `headroom` is the smallest gap between vertex heights along the bow
    tie's two directions divided by the tolerance (0 when the bow tie does
    not hold exactly j); it must exceed 1. `k` is the vertex outside (i, j)
    that sets the smallest gap. Indices are into the known vertices, None
    for a point not among them. Raised before the pair is queried, or with
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
    phase needs 0 <= remaining <= open. Raised when the oracle's diagrams,
    or the vertices they are read at, disagree with each other.
    """

    def __init__(self, v: int, remaining: int, open: int):
        self.v, self.remaining, self.open = v, remaining, open
        super().__init__(
            f"vertex {v} has {remaining} edges left to find among {open} open pairs"
        )
