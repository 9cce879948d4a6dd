"""Differentially private tabular data synthesis via adaptive marginal
selection and a generator network trained on noisy marginals."""

from .domain import (
    AttributeMeta,
    Dataset,
    Domain,
    RawTable,
    decode,
    encode,
    gen_gaussian_dataset,
    load_csv,
    uniform_bin_edges,
)
from .evaluation import EvalReport, evaluate
from .generator import (
    GeneratorModel,
    TrainContext,
    adam_step,
    fold_targets,
    forward,
    init_generator,
    loss_and_grad,
    sample_hard,
    soft_marginal,
)
from .marginals import (
    Marginal,
    MarginalSpec,
    compute_marginal,
    fidelity_error,
    l1_distance,
    marginal_spec,
    query_error,
    tvd,
)
from .privacy import (
    Accountant,
    NoiseParams,
    dp_to_zcdp_rho,
    exponential_mechanism,
    gaussian_mechanism,
    zcdp_to_dp_epsilon,
)
from .synthesis import (
    Measurement,
    SelectionTrace,
    SynthConfig,
    SynthResult,
    compute_weights,
    run_margnet,
    split_budget,
)

__version__ = "0.1.0"
