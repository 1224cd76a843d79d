"""Numerical certification suite for the flagged-phase qudit channel family.

The toolkit builds the channel from an enumerated exact unitary
2-design, checks the closed-form overlap operator and its consequences
for zero-error transmission, runs the perfect-privacy protocol, replays
the PPT twirl certificate, and analyzes the channel's non-commutative
graph, all at desk scale (d in {2, 3}, up to two uses).
"""

import os

# One BLAS thread per process: the PPT search runs on forked processes, one
# per CPU (linalg.ForkedMap), beside this one, and OpenBLAS's default pool
# of one thread per CPU in each of them made `verify --d 3 --n 2` on 2 CPUs
# 2x slower than a serial run.  This only takes effect before numpy loads
# OpenBLAS; a value already set wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .channel import (
    BlockStateVector,
    CQState,
    FlaggedPhaseChannel,
    apply_complementary_n,
    apply_n,
    build_channel,
    conservation_residual,
    cq_overlap,
    overlap_kernel,
    random_block_state,
)
from .designs import (
    UnitaryFamily,
    clifford_generators,
    clock,
    conjugate_twirl,
    enumerate_clifford,
    find_minimal_subdesign,
    fourier,
    frame_potential,
    shift,
    verify_two_design,
)
from .linalg import (
    Subspace,
    max_entangled,
    max_entangled_projector,
    partial_trace,
    partial_transpose,
    support_null,
    tensor,
    trace_distance,
    trace_inner,
)
from .ncgraph import OperatorSpan, condition_checks, contains, graph_span, operator_span
from .ppt import (
    IsotropicDecomposition,
    PPTSearchResult,
    PPTWitness,
    build_ppt_witness,
    constraint_score,
    isotropic_twirl_n,
    ppt_search,
    recursion_certificate,
)
from .privacy import ProtocolTranscript, run_protocol, transpose_trick_residual, verify_secrecy
from .report import ClaimResult, RunConfig, VerificationReport, emit_report
from .report import TOOLKIT_VERSION as __version__
from .suites import execute
from .zero_error import (
    CodePairCheck,
    averaged_output_overlap,
    code_pair_conditions,
    design_average_overlap_operator,
    disjoint_support,
    overlap_operator,
    overlap_support_projector,
)
