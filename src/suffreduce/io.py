"""CSV and JSON plumbing for the command line tools.

Matrices travel as headerless comma-separated values written with 17
significant digits, enough to round-trip IEEE doubles exactly.
"""

from __future__ import annotations

import json
import math
import warnings

import numpy as np

__all__ = [
    "write_matrix_csv",
    "read_matrix_csv",
    "read_votes_csv",
    "write_json",
]

FLOAT_FORMAT = "%.17g"


def write_matrix_csv(path, a) -> None:
    a = np.atleast_2d(np.asarray(a, dtype=float))
    np.savetxt(path, a, fmt=FLOAT_FORMAT, delimiter=",")


def read_matrix_csv(path) -> np.ndarray:
    try:
        with warnings.catch_warnings():
            # empty files raise our own error below instead of warning
            warnings.simplefilter("ignore", UserWarning)
            a = np.loadtxt(path, delimiter=",", ndmin=2, dtype=float)
    except ValueError as exc:
        raise ValueError(f"{path}: not a numeric csv matrix ({exc})") from exc
    if a.size == 0:
        raise ValueError(f"{path}: empty matrix")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{path}: matrix contains non-finite entries")
    return a


def read_votes_csv(path, general: bool = False) -> np.ndarray:
    """Observation matrix, one row per record.  Unless ``general`` is set
    every entry must be -1, 0, or +1."""
    a = read_matrix_csv(path)
    if not general:
        bad = ~np.isin(a, (-1.0, 0.0, 1.0))
        if np.any(bad):
            i, j = np.argwhere(bad)[0]
            raise ValueError(
                f"{path}: entry ({i},{j}) = {a[i, j]} outside {{-1,0,1}}; "
                "pass --general to allow arbitrary reals"
            )
    return a


def _strict(value):
    """value with each non-finite float replaced by "inf", "-inf" or "nan"."""
    if isinstance(value, dict):
        return {k: _strict(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_strict(v) for v in value]
    if isinstance(value, float) and not math.isfinite(value):
        return str(float(value))
    return value


def write_json(path, payload: dict) -> None:
    """Write payload as strict JSON: a non-finite float, which JSON cannot
    hold, is written as the string "inf", "-inf" or "nan"."""
    with open(path, "w") as fh:
        json.dump(_strict(payload), fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")
