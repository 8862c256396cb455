"""Flow-based intrusion detection on simulated industrial polling traffic.

The package covers the full experiment loop: packet capture I/O, flow
assembly and feature extraction, imbalanced dataset construction,
minority oversampling, a small feedforward classifier, detection
metrics, a deterministic traffic simulator, and a sweep runner that
ties them together across class-imbalance ratios.
"""

from .dataset import (
    DegenerateSplit,
    InsufficientPool,
    LabeledDataset,
    NormalizationStats,
    build_imbalanced,
    normalize_apply,
    normalize_fit,
    required_normals,
    save_dataset,
    split_train_test,
)
from .experiment import (
    CellResult,
    ExperimentConfig,
    ExperimentResult,
    run_experiment,
    write_report,
)
from .flows import (
    ATTACK,
    FEATURE_NAMES,
    NORMAL,
    FlowTable,
    LabelRule,
    assemble_flows,
    feature_matrix,
    features_from_packets,
    label_flows,
    read_features_csv,
    read_label_csv,
    to_arrays,
    write_features_csv,
    write_label_csv,
)
from .metrics import (
    ConfusionMatrix,
    MetricsReport,
    accuracy,
    confusion,
    far,
    mcc,
    sensitivity,
    undetected_rate,
)
from .mlp import (
    MlpModel,
    TrainConfig,
    gradient_check,
    init_model,
    load_model,
    predict,
    save_model,
    train,
)
from .packets import (
    PacketRecord,
    PacketTable,
    Protocol,
    read_packet_csv,
    read_pcap,
    write_packet_csv,
    write_pcap,
)
from .simulate import SimConfig, simulate
from .smote import SmoteResult, augment_training_set, replay, smote
from .textio import config_from_json

__version__ = "0.1.0"

__all__ = [
    "ATTACK",
    "CellResult",
    "ConfusionMatrix",
    "DegenerateSplit",
    "ExperimentConfig",
    "ExperimentResult",
    "FEATURE_NAMES",
    "FlowTable",
    "InsufficientPool",
    "LabelRule",
    "LabeledDataset",
    "MetricsReport",
    "MlpModel",
    "NORMAL",
    "NormalizationStats",
    "PacketRecord",
    "PacketTable",
    "Protocol",
    "SimConfig",
    "SmoteResult",
    "TrainConfig",
    "accuracy",
    "assemble_flows",
    "augment_training_set",
    "build_imbalanced",
    "config_from_json",
    "confusion",
    "far",
    "feature_matrix",
    "features_from_packets",
    "gradient_check",
    "init_model",
    "label_flows",
    "load_model",
    "mcc",
    "normalize_apply",
    "normalize_fit",
    "predict",
    "read_features_csv",
    "read_label_csv",
    "read_packet_csv",
    "read_pcap",
    "replay",
    "required_normals",
    "run_experiment",
    "save_dataset",
    "save_model",
    "sensitivity",
    "simulate",
    "smote",
    "split_train_test",
    "to_arrays",
    "train",
    "undetected_rate",
    "write_features_csv",
    "write_label_csv",
    "write_packet_csv",
    "write_pcap",
    "write_report",
]
