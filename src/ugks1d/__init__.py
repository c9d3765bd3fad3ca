"""Asymptotic-preserving UGKS solver for 1D linear kinetic transport in
diffusive scaling, with reference solvers and an experiment harness."""

from .analysis import compare, convergence_study, restrict_profile
from .coeffs import blend_parameter
from .config import compile_expression, load_config
from .errors import (ComparisonError, ConfigError, InvalidArgumentError,
                     InvalidDataError, InvalidKernelError, SolverFailureError, UGKSError)
from .experiments import ExperimentSpec, RunResult, builtin_ids, builtin_spec, run
from .grid import (MaterialField, SpatialMesh, VelocityQuadrature, average,
                   build_double_gauss, build_gauss_legendre, sample_material)
from .penalized import (PenalizedOperator, ScatteringKernel, assemble_operator,
                        penalization_theta, penalized_step, pseudo_inverse_v)
from .reference import diffusion_run, diffusion_step, diffusion_timestep, upwind_step, upwind_timestep
from .ugks import (BoundarySpec, KineticState, SchemeConfig, StepPlan, cfl_timestep,
                   moment_defect, step)

__version__ = "0.1.0"
