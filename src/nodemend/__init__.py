"""Causal mitigation engine for unhealthy cloud nodes.

Learns the per-event downtime difference between Reboot and Redeploy from
confounded observational logs (two-stage residualization with an honest
forest effect model), wraps the estimates in a fallback/override decision
layer, and evaluates policies against a synthetic cluster with known
ground-truth outcomes.
"""

from .decisions import DecisionConfig, DecisionSource, PolicyDecision, assign_policy_group, decide, legacy_policy
from .dml import DmlModel, TrainConfig, estimate_ite, psi_loss, train_dml
from .domain import (
    DiagnosticSignals,
    FeatureSchema,
    FeatureVector,
    IteEstimate,
    LabeledEvent,
    MitigationAction,
    encode_features,
)
from .errors import (
    ConfigError,
    DataError,
    DegenerateTreatment,
    InsufficientData,
    InvalidArgument,
    ModelError,
    ModelIntegrityError,
    ModelVersionError,
    NodemendError,
    SchemaViolation,
)
from .evaluation import adjusted_effect, air, avd, counterfactual_analysis, naive_effect, run_policy_comparison
from .forest import CausalForest, ForestParams, fit_forest, predict_tau, predict_tau_ci
from .interpret import cate_by_feature, fit_policy_tree, render_policy
from .learners import FoldAssignment, LearnerConfig, crossfit_predict, make_folds
from .modelio import ActionLogger, ActionLogRecord, load_model, save_model, update_model
from .simulate import SimConfig, default_config, generate_observational_dataset, step_node

__version__ = "0.1.0"

__all__ = [
    "ActionLogger",
    "ActionLogRecord",
    "CausalForest",
    "ConfigError",
    "DataError",
    "DecisionConfig",
    "DecisionSource",
    "DegenerateTreatment",
    "DiagnosticSignals",
    "DmlModel",
    "FeatureSchema",
    "FeatureVector",
    "FoldAssignment",
    "ForestParams",
    "InsufficientData",
    "InvalidArgument",
    "IteEstimate",
    "LabeledEvent",
    "LearnerConfig",
    "MitigationAction",
    "ModelError",
    "ModelIntegrityError",
    "ModelVersionError",
    "NodemendError",
    "PolicyDecision",
    "SchemaViolation",
    "SimConfig",
    "TrainConfig",
    "adjusted_effect",
    "air",
    "assign_policy_group",
    "avd",
    "cate_by_feature",
    "counterfactual_analysis",
    "crossfit_predict",
    "decide",
    "default_config",
    "encode_features",
    "estimate_ite",
    "fit_forest",
    "fit_policy_tree",
    "generate_observational_dataset",
    "legacy_policy",
    "load_model",
    "make_folds",
    "naive_effect",
    "predict_tau",
    "predict_tau_ci",
    "psi_loss",
    "render_policy",
    "run_policy_comparison",
    "save_model",
    "step_node",
    "train_dml",
    "update_model",
]
