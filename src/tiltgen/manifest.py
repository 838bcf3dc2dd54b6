"""Run manifests and deterministic artifact writers.

Every run writes a ``manifest.json`` capturing the config echo, tool
version, effective seeds, per-iteration records, final numbers with standard
errors, and relative paths of the emitted artifacts.  The manifest is
written atomically and contains nothing volatile, so re-running a config
with the same seeds reproduces it byte for byte; wall-clock timings go to a
sibling ``timings.json`` referenced by path.

CSV floats are formatted with 17 significant digits (full float64
round-trip), which makes CSV artifacts byte-reproducible as well.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np

from . import __version__
from .solver import MomentEstimates

MANIFEST_NAME = "manifest.json"
TIMINGS_NAME = "timings.json"


def format_value(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def write_csv(path, header: list[str], rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(format_value(v) for v in row))
    Path(path).write_text("\n".join(lines) + "\n")


def _plain(value):
    """A numpy array or scalar as the plain list or number ``json`` writes."""
    if isinstance(value, (np.ndarray, np.generic)):
        return value.tolist()
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


def write_json_atomic(path, payload: dict) -> None:
    path = Path(path)
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text(json.dumps(payload, indent=2, sort_keys=True, default=_plain) + "\n")
    os.replace(tmp, path)


MOMENT_COLUMNS = [
    "mean_f",
    "se_mean",
    "var_f",
    "se_var",
    "third_central_f",
    "se_third",
    "dkl",
    "se_dkl",
]


def moments_row(est: MomentEstimates) -> list[float]:
    return [getattr(est, name) for name in MOMENT_COLUMNS]


def build_manifest(
    command: str,
    config: dict,
    seeds: dict,
    iterations: list[dict],
    final: dict,
    artifacts: dict,
    normalization: dict | None,
) -> dict:
    return {
        "command": command,
        "version": __version__,
        "config": config,
        "seeds": seeds,
        "normalization": normalization,
        "iterations": iterations,
        "final": final,
        "artifacts": artifacts,
        "conventions": {
            "rejection_comparison": (
                "tilted and hard-threshold (rejection) samplers are compared by "
                "a soft band on the criterion mean, not distributional equality"
            ),
            "csv_float_format": "%.17g",
        },
        "timings_path": TIMINGS_NAME,
    }


def write_run_outputs(out_dir, manifest: dict, timings: dict) -> None:
    out_dir = Path(out_dir)
    write_json_atomic(out_dir / TIMINGS_NAME, timings)
    write_json_atomic(out_dir / MANIFEST_NAME, manifest)
