"""Reference feature CSV writer: every cell through one Python `%` format
per row, the form `flows.write_features_csv` had before it printed cells
from digit words.

The word writer must write the same bytes as write_features_csv here, for
every matrix and label vector, NaN, infinities and signed zeros included.
"""

import numpy as np

from imbalidx.flows import FEATURE_CSV_HEADER, FEATURE_NAMES, LabeledDataset, _INT_FEATURES

# Rows formatted per % call, which bounds the writer's buffers.
_WRITE_CHUNK = 4096


def write_features_csv(data: LabeledDataset, path) -> None:
    """6-decimal floats, count columns as bare integers when they hold
    whole numbers, label 0/1 last."""
    count_cols = [j for j, name in enumerate(FEATURE_NAMES) if name in _INT_FEATURES]
    bits = 1 << np.arange(len(count_cols))
    # A row's format depends on which of its count cells are whole: `%d`
    # prints a whole float as str(int(v)) does, and `%.6f` as f"{v:.6f}".
    formats = {}

    def row_format(pattern: int) -> str:
        cells = ["%.6f"] * len(FEATURE_NAMES)
        for bit, j in enumerate(count_cols):
            if pattern >> bit & 1:
                cells[j] = "%d"
        return ",".join(cells) + ",%d\n"

    with open(path, "w", newline="") as f:
        f.write(FEATURE_CSV_HEADER + "\n")
        for lo in range(0, len(data), _WRITE_CHUNK):
            x = data.x[lo:lo + _WRITE_CHUNK]
            c = x[:, count_cols]
            patterns = (np.isfinite(c) & (np.floor(c) == c)) @ bits
            fmt = "".join([formats.get(p) or formats.setdefault(p, row_format(p))
                           for p in patterns.tolist()])
            cells = np.column_stack([x, data.y[lo:lo + _WRITE_CHUNK]]).ravel()
            f.write(fmt % tuple(cells.tolist()))
