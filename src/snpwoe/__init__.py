"""Weight of evidence for single-source SNP genotype comparisons.

Compares a trace-sample genotype profile against a reference profile under
"same donor" vs "different donors" hypotheses, where each sample was
genotyped with its own (possibly unknown) error probability. Provides the
exact fixed-error likelihood ratio, prior-integrated and profile-likelihood
treatments of an unknown trace error probability, maximum likelihood
estimation of an error probability from duplicate genotyping runs, and
seeded simulation studies of all of the above.
"""

from .estimation import (
    PairCountTable,
    WEstimate,
    estimate_w_mle,
    estimate_w_mle_per_marker,
    pair_prob_same_source,
)
from .evidence import (
    CaseData,
    DegenerateCaseError,
    MarkerObservation,
    joint_prob_h1,
    joint_prob_h2,
    joint_table_h1,
    joint_table_h2,
    log10_lik_h1,
    log10_lik_h2,
    lr,
    per_marker_log10_lr,
    trace_marginal,
    woe_known,
)
from .fileio import (
    ParseError,
    load_study_config,
    parse_case_file,
    parse_pair_table_file,
    read_records_csv,
    read_summary_csv,
    write_ece_csv,
    write_records_csv,
    write_summary_csv,
)
from .genotypes import (
    GenotypePriors,
    channel_matrix,
    hwe_priors,
    validate_error_prob,
)
from .scaled_beta import ScaledBeta
from .study import (
    HYPOTHESES,
    METHOD_TRUE_W,
    STUDY_METHODS,
    EceRow,
    OverdispersionConfig,
    OverdispersionRecord,
    OverdispersionSummaryRow,
    PriorSpec,
    SignErrorRow,
    StudyConfig,
    StudyError,
    StudyRecord,
    SummaryRow,
    compute_ece,
    compute_ece_by_cell,
    run_overdispersion_study,
    run_woe_study,
    simulate_case,
    simulate_overdispersed_table,
    summarize_overdispersion,
    summarize_records,
    summarize_sign_errors,
)
from .unknown_w import (
    METHOD_INTEGRATE_MC,
    METHOD_INTEGRATE_QUAD,
    METHOD_KNOWN,
    METHOD_PLUGIN,
    METHOD_PROFILE,
    METHODS,
    QuadratureError,
    WoEResult,
    woe_integrate_mc,
    woe_integrate_quad,
    woe_known_result,
    woe_plugin,
    woe_profile,
)

__version__ = "0.1.0"
