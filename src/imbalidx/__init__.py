"""Flow-based intrusion detection on simulated industrial polling traffic.

The package covers the full experiment loop: packet capture I/O, flow
assembly and feature extraction, imbalanced dataset construction,
minority oversampling, a small feedforward classifier, detection
metrics, a deterministic traffic simulator, and a sweep runner that
ties them together across class-imbalance ratios. Each stage is one
module (packets, flows, dataset, smote, mlp, metrics, simulate,
experiment), and its names are imported from there.
"""

__version__ = "0.1.0"
