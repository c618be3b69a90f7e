"""Directional persistence diagrams of plane graphs and exact
reconstruction of the embedding from a metered diagram oracle."""

from .edge_recon import (
    bowtie_widths,
    global_bowtie_width,
    indegree_from_diagrams,
    pair_directions,
    reconstruct_edges_detail,
)
from .errors import (
    BowTieConflict,
    DegenerateDirection,
    DegeneratePoints,
    DiagramMismatch,
    DuplicateHeights,
    GenerationFailed,
    HalfPlaneConflict,
    InvalidGraph,
    ParallelLines,
    PhreconError,
    UncertifiedPair,
    UncertifiedVertices,
)
from .geometry import TOLERANCE, Direction, Point2, height
from .persistence import (
    Diagram,
    DiagramOracle,
    PersistencePair,
    diagram_from_json,
    diagram_to_json,
    lower_star_diagrams,
)
from .plane_graph import (
    PlaneGraph,
    graph_from_json,
    graph_to_json,
    load_graph,
    random_plane_graph,
    save_graph,
    validate,
)
from .render import render_svg
from .vertex_recon import (
    lines_from_dgm0,
    match_and_intersect,
    reconstruct_vertices,
    third_direction,
)

__version__ = "0.1.0"
