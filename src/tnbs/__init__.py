"""NARX system identification with tensor-train B-spline surfaces."""

from .bspline import BasisConfig, basis_rows, eval_basis, make_basis, out_of_domain_count
from .model import (
    LagSpec,
    Scaling,
    TnbsModel,
    build_regressors,
    rmse,
)
from .solver import (
    FitConfig,
    NumericalError,
    SweepTrace,
    als_fit,
    build_design_matrix,
    build_penalty_matrix,
    cross_validate_lambda,
    dense_penalty,
    difference_matrix,
    update_core,
)
from .synth import (
    SynthDataset,
    SynthSpec,
    add_noise,
    generate_input,
    generate_output,
    generate_true_weights,
    make_dataset,
)
from .tensor import (
    DENSE_CAP,
    TensorTrain,
    inner,
    orthogonalize_to_site,
    shift_core,
    tt_svd,
    tt_to_full,
    vectorize,
)

__version__ = "0.1.0"

__all__ = [
    "BasisConfig", "basis_rows", "eval_basis", "make_basis", "out_of_domain_count",
    "LagSpec", "Scaling", "TnbsModel", "build_regressors", "rmse",
    "FitConfig", "NumericalError", "SweepTrace", "als_fit", "build_design_matrix",
    "build_penalty_matrix", "cross_validate_lambda", "dense_penalty",
    "difference_matrix", "update_core",
    "SynthDataset", "SynthSpec", "add_noise", "generate_input", "generate_output",
    "generate_true_weights", "make_dataset",
    "DENSE_CAP", "TensorTrain", "inner", "orthogonalize_to_site",
    "shift_core", "tt_svd", "tt_to_full", "vectorize",
    "__version__",
]
