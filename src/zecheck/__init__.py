"""Numerical certification suite for the flagged-phase qudit channel family.

The toolkit builds the channel from an enumerated exact unitary
2-design, checks the closed-form overlap operator and its consequences
for zero-error transmission, runs the perfect-privacy protocol, replays
the PPT twirl certificate, and analyzes the channel's non-commutative
graph, all at desk scale (d in {2, 3}, up to two uses).
"""

import os
import sys
from contextlib import suppress


def _pin_loaded_openblas() -> None:
    """Set the OpenBLAS that numpy has already loaded to one thread, where it exports a setter."""
    import ctypes

    with suppress(AttributeError, OSError):  # numpy 2's bundled OpenBLAS; any other is left as is
        lib = ctypes.CDLL(sys.modules["numpy"]._core._multiarray_umath.__file__)
        set_threads = lib.scipy_openblas_set_num_threads64_
        set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
        set_threads(1)


# One BLAS thread per process: the PPT search runs on forked processes, one
# per CPU (sampling.ForkedMap), beside this one, and OpenBLAS's default pool
# of one thread per CPU in each of them made `verify --d 3 --n 2` on 2 CPUs
# 2x slower than a serial run.  The variable takes effect only if numpy
# loads OpenBLAS after it is set; where numpy is already loaded, its
# OpenBLAS is set to one thread directly.  A value already set wins.
if "numpy" in sys.modules and "OPENBLAS_NUM_THREADS" not in os.environ:
    _pin_loaded_openblas()
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
