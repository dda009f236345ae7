"""Young-tableau combinatorics and greedy task reassignment on hierarchical 2D meshes."""

from .errors import (
    DomainError,
    InvalidStateError,
    ResourceLimitError,
    ShapeError,
    TableauError,
    TaquinError,
)
from .partitions import (
    Cell,
    Partition,
    SkewShape,
    SumSquaresIdentity,
    count_syt,
    hook_lengths,
    inner_corners,
    outer_corners,
    partitions_of,
    skew_shape_of_cells,
    verify_sum_squares,
)
from .tableaux import (
    ShapeKind,
    Tableau,
    is_partial,
    is_standard,
    reading_word,
    reverse_bump,
    row_insert,
)
from .rsk import (
    Permutation,
    knuth_equivalent,
    rsk,
    rsk_inverse,
)
from .jdt import (
    Relocation,
    backward_slide_trace,
    forward_slide_trace,
    jdt_equivalent,
    rectify,
)
from .hms import (
    CapacityGrid,
    Completion,
    HmtState,
    ReassignmentTrace,
    RectifyCorner,
    StateKind,
    TaskRun,
    TaskSet,
    TraceEvent,
    TurnaroundReport,
    classify_state,
    default_capacity_grid,
    descent_pairs,
    maximally_embedded,
    naive_slide_up,
    reassign_on_completion,
    reassignment_equivalent,
    reassignment_sequence,
    rectify_assignment,
    turnaround_sequential,
)

__version__ = "0.1.0"
