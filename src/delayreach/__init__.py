"""Delay-system reachability toolbox.

Adaptive method-of-steps integration for discrete-delay systems, closed-form
2x2 Lyapunov certificates, exact piecewise signal classes, a switched planar
vector field with finite-time escape under sampled switching, its
delay-cascade and input-driven companions, and probes that certify
exponential decay and uniform attractivity while falsifying any uniform
reachability bound.
"""

from .integrator import (
    BadHistoryDomain,
    DiscreteDelaySystem,
    HistoryFn,
    IntegratorOptions,
    MaxStepsExceeded,
    SimOutcome,
    SpanTooShort,
    StepSizeCollapse,
    Trajectory,
    integrate,
)
from .lyap import (
    A_MODE1,
    A_MODE2,
    Certificate,
    Mat2,
    NoFeasibleLambda,
    NotHurwitz,
    SingularSystem,
    SymPosDef2,
    blend,
    default_certificate,
    find_capital_lambda,
    is_hurwitz,
    lyapunov_residual,
    solve_lyapunov,
    stability_constants,
)
from .probes import (
    EmbeddingCheck,
    EnvelopeFit,
    HorizonTooShort,
    ReachEstimate,
    RfcSweepResult,
    TauTooShort,
    UgaCell,
    UnexpectedEscape,
    embedding_check,
    es_check,
    estimate_R,
    rfc_sweep,
    theoretical_reach_time,
    uga_table,
)
from .signals import (
    Concatenation,
    Constant,
    DwellTooSmall,
    ExponentialTail,
    OutOfDomain,
    PiecewiseConstant,
    PiecewiseLinear,
    Signal,
    TimeShift,
    Window,
    from_json,
    smooth_square,
)
from .systems import (
    DEFAULT_DELAY,
    DEFAULT_PLANAR,
    SYSTEM_NAMES,
    PlanarParams,
    SwitchedRun,
    SwitchingPolicy,
    WindowOverlap,
    associated_system,
    cascade_system,
    embed_history_as_inputs,
    escape_schedule,
    greedy_worst_switch,
    history_from_inputs,
    make_system,
    planar_rhs,
    planar_system,
    recorded_escape,
    run_switched,
    saturation_stop_times,
)

__version__ = "0.1.0"
