"""Exact controllability of linear systems with multiplicative noise.

The plant x(k+1) = [A x(k) + B u(k)] + w(k) [Abar x(k) + Bbar u(k)] is
turned into a backward equation whose coefficients support two
controllability criteria (a steering Gramian and a word-span rank test),
controller synthesis, and exact verification on the finite noise-path
tree. Output maps, a rank-deficient noise-input structure, and input or
state delays are handled by the corresponding submodules.
"""
from .criteria import (
    ControllabilityReport,
    WordSpanBasis,
    decide,
    decide_form,
    gramian,
    gramian_invertible,
    gramian_oracle,
    gramian_sequence,
    moment_step,
    word_span,
)
from .delay import (
    input_delay_controller,
    input_delay_decide,
    input_delay_gramian_oracle,
    member_of_S_state_delay,
    state_delay_controller,
    state_delay_decide,
    state_delay_gramian_oracle,
    state_delay_P,
)
from .errors import (
    BadUserM,
    CriteriaDisagreement,
    DimensionMismatch,
    EnumerationTooLarge,
    NoIntertwiner,
    NoiseMomentViolation,
    NonFiniteGramian,
    RankDeficient,
    SchemaError,
    SingularBlock,
    SingularGramian,
    SingularPBracket,
    SingularPencil,
    StageMismatch,
    StochctrlError,
    StructureUnsupported,
    TargetNotInS,
    UnsupportedReducedStructure,
)
from .model import (
    NoiseModel,
    ProblemInstance,
    SystemSpec,
    ValidatedSystem,
    parse_instance,
    parse_instance_file,
    serialize_instance,
    validate,
)
from .partial import intertwine, output_form, partial_decide, reduced_rank_setup
from .pathspace import (
    PathTree,
    SMembership,
    backward_solve,
    backward_solve_state_delay,
    expected_terminal_product,
    forward_simulate,
    member_of_S,
    representation_residual,
    terminal_from_map,
    z_level,
)
from .synthesis import (
    ControllerProcess,
    FeedbackLaw,
    feedback_loop,
    folded_loop,
    law_text,
    null_controller,
    read_controller_table,
    read_feedback_law,
    steer_to_target,
    target_digest,
    target_offsets,
    write_controller_csv,
)
from .transform import (
    BsdeForm,
    TransformedSystem,
    compute_M,
    to_bsde,
)

__version__ = "0.1.0"
