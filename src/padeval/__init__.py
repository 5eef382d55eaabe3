"""Presentation-attack-detection evaluation toolkit.

Score-level PAD and recognition-vulnerability metrics, a depth-variance
detector, a from-scratch linear one-class SVM, min-max score fusion,
deterministic synthetic data, and the file formats tying them together.
"""

from .core import (
    DepthMap,
    DuplicateIdError,
    EmptySetError,
    FeatureMatrix,
    LandmarkSet,
    NonFiniteScoreError,
    PadevalError,
    Polarity,
    PolarityMismatchError,
    PresentationLabel,
    ScoreSet,
    TrialLabel,
    ValidationError,
)
from .depth_variance import DvScore, TooFewValidLandmarksError, dv_score
from .fusion import IdMismatchError, MinMaxParams, WeightError, fuse, minmax_fit
from .metrics import (
    DetAxes,
    DetCurve,
    InvalidTargetError,
    PadReport,
    Threshold,
    VulnReport,
    apcer,
    bpcer,
    bpcer_at_apcer,
    d_eer,
    det_curve,
    evaluate_pad,
    evaluate_vuln,
    fmr,
    fnmr,
    iapmr,
    threshold_at_fmr,
)
from .ocsvm import (
    DimensionMismatchError,
    InfeasibleNuError,
    NotConvergedError,
    OcsvmConfig,
    OcsvmDiagnostics,
    OcsvmModel,
    decision_value,
    fit,
    score_matrix,
)
from .synth import (
    DepthKind,
    LANDMARK_TEMPLATE_SIZE,
    SpecError,
    SynthDepthSpec,
    SynthFeatureSpec,
    gen_depth,
    gen_features,
    landmark_template,
)

__version__ = "0.1.0"
