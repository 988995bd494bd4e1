"""Finite-volume solver for non-locally coupled crowd flows on bounded domains.

The library splits into small layers: geometry (grids, masks, face
classification), kernels and boundary-renormalized averaging, linear
transport (exact characteristics oracle and the Lax-Friedrichs scheme),
crowd velocity models, and the coupled simulator with its Picard mode.
"""

from .averaging import (
    Channel,
    DomainAverager,
    KernelSpectra,
    assemble_nonlocal,
)
from .config import RunConfig, deep_merge, load_config_file, preset, preset_names
from .errors import ConfigError, NanAbortError
from .fields import ScalarField, VectorField, sample_bilinear
from .geometry import (
    CellKind,
    CellMask,
    Domain,
    FaceKind,
    Grid,
    build_grid,
    classify_faces,
)
from .kernels import (
    KernelStencil,
    RadialKernel,
    build_stencil,
    make_quartic_kernel,
)
from .models import (
    ModelSpec,
    PopulationModel,
    SpeedLaw,
    build_desired_field,
    eval_velocities,
    grid_distance,
    wall_discomfort,
)
from .simulator import (
    DiagnosticsRecord,
    PicardResult,
    RunResult,
    Scenario,
    SimState,
    StepBuffers,
    init_scenario,
    picard_solve,
    run,
    step,
)
from .transport import (
    ContractionVelocity,
    FieldDiagnostics,
    LinearProblem,
    RotationVelocity,
    TransportBuffers,
    cfl_dt,
    discrete_diagnostics,
    exact_solution,
    lf_step_detailed,
    wave_speeds,
)
from .output import read_snapshot, write_series, write_snapshot

__version__ = "0.1.0"
