"""Strong pathwise approximation of SDEs with Markovian regime switching.

The package provides, in dependency order:

- ``multi_index``: the word calculus behind the scheme construction and the
  kept/remainder index sets for every order from 0.5 to 3.0 in steps of
  0.5 (the schemes use 0.5, 1.0 and 1.5).
- ``markov_chain``: finite-state continuous-time chains, their paths, the
  jump count on an interval and the state-pair jump martingale.
- ``noise``: Wiener increments together with their time integrals on a
  uniform grid merged with chain jump times.
- ``model``: regime-dependent drift/diffusion coefficients and the
  associated differential operators.
- ``fixtures``: the built-in models, looked up by name (``linear2``,
  ``diagonal3``, ``additive``, ``noncommutative``).
- ``schemes``: explicit one-step maps of strong order 0.5 (euler), 1.0
  (milstein) and 1.5 (taylor15) with regime-switch corrections, the one
  batched stepping loop that applies them along a grid, and the switch
  records they consume.
- ``convergence``: coupled coarse/reference experiments that estimate the
  strong order on a model, with reproducible seeding.
- ``config``: the reader of flat key-value run configuration files.
- ``cli``: the ``switchtaylor`` command line front end.
"""

from . import errors
from .errors import (
    CommutativityRequired,
    ConfigError,
    ConsecutiveJumpComponents,
    CouplingMismatch,
    DimensionMismatch,
    EmptyIndex,
    InsufficientLevels,
    IntervalOutOfRange,
    InvalidCoefficients,
    InvalidComponent,
    InvalidGamma,
    InvalidGenerator,
    InvalidGrid,
    InvalidJetOrder,
    InvalidSeed,
    NonFiniteInput,
    NonFiniteState,
    NonPositiveError,
    NotAGridTime,
    ReferenceNotFiner,
    StateOutOfRange,
    StepTooLargeForChain,
    SwitchTaylorError,
    UnknownFixture,
    UnknownRegime,
    UnknownScheme,
    ValidationError,
    WorkerLost,
)
from .fixtures import (
    DiagonalLinearCoefficients,
    MeanRevertingCoefficients,
    PolynomialColumnsCoefficients,
    fixture,
    fixture_names,
)
from .markov_chain import (
    ChainPath,
    GeneratorMatrix,
    count_jumps,
    pair_jump_martingale,
    sample_path,
)
from .model import (
    CallableCoefficients,
    CoefficientSet,
    CommutativityReport,
    ModelSpec,
    check_commutativity,
    check_jet_order,
    op_noise_diffusion,
    op_noise_drift,
    op_noise_noise_diffusion,
    op_time_diffusion,
    op_time_drift,
)
from .noise import (
    GridSpec,
    NoisePath,
    build_noise,
    sample_increments,
)
from .schemes import (
    SCHEMES,
    JumpRecords,
    SchemeInfo,
    Trajectory,
    get_scheme,
    integrate,
    jump_records,
    march,
    merge_records,
    require_commutativity,
    write_trajectory_csv,
)
from .convergence import (
    ConvergenceReport,
    ExperimentPlan,
    LevelResult,
    fit_order,
    reference_scheme_for,
    run,
    strong_error,
)
from .config import load_config, parse_config
from .multi_index import (
    EMPTY_INDEX,
    Component,
    ComponentKind,
    MultiIndex,
    SchemeSets,
    WordClass,
    build_hierarchical_set,
    build_scheme_sets,
    canonical_order,
    classify,
    concat,
    counts,
    drop_first,
    drop_last,
    eta,
    jump_exact,
    jump_overflow,
    remainder_set,
    render_index,
    sets_as_dict,
    validate_word,
    wiener,
    word,
)

__version__ = "0.1.0"
