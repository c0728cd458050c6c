"""Persistence for experiment results: CSV and JSON writers/readers.

Figure sweeps take seconds to minutes; pipelines that post-process them
(plotting, regression tracking) should not re-run estimation. These
helpers round-trip :class:`~repro.experiments.runner.EstimateRow` tables
through plain CSV/JSON so results can be archived next to the paper data.
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Iterable, Sequence

from ..jsonlog import dumps_indented
from .runner import EstimateRow

#: Column order of the CSV format (stable, append-only).
CSV_FIELDS: tuple[str, ...] = (
    "algorithm",
    "bits",
    "profile",
    "physical_qubits",
    "runtime_seconds",
    "code_distance",
    "logical_qubits",
    "logical_depth",
    "num_t_states",
    "t_factory_copies",
    "rqops",
)

_INT_FIELDS = {
    "bits",
    "physical_qubits",
    "code_distance",
    "logical_qubits",
    "logical_depth",
    "num_t_states",
    "t_factory_copies",
}
_FLOAT_FIELDS = {"runtime_seconds", "rqops"}


def write_rows_csv(rows: Iterable[EstimateRow], path: str | Path) -> Path:
    """Write estimate rows as CSV; returns the path written."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(CSV_FIELDS)
        for row in rows:
            writer.writerow([getattr(row, field) for field in CSV_FIELDS])
    return path


def read_rows_csv(path: str | Path) -> list[EstimateRow]:
    """Read estimate rows written by :func:`write_rows_csv`."""
    path = Path(path)
    rows: list[EstimateRow] = []
    with path.open(newline="") as handle:
        reader = csv.DictReader(handle)
        missing = set(CSV_FIELDS) - set(reader.fieldnames or ())
        if missing:
            raise ValueError(f"CSV {path} is missing columns: {sorted(missing)}")
        for record in reader:
            kwargs: dict[str, object] = {}
            for field in CSV_FIELDS:
                value: object = record[field]
                if field in _INT_FIELDS:
                    value = int(value)  # type: ignore[arg-type]
                elif field in _FLOAT_FIELDS:
                    value = float(value)  # type: ignore[arg-type]
                kwargs[field] = value
            rows.append(EstimateRow(**kwargs))  # type: ignore[arg-type]
    return rows


def write_rows_json(rows: Sequence[EstimateRow], path: str | Path) -> Path:
    """Write estimate rows as a JSON array of the tool-style dicts."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(dumps_indented([row.to_dict() for row in rows]) + "\n")
    return path


def regenerate_all(directory: str | Path) -> dict[str, Path]:
    """Run every experiment and archive its data under ``directory``.

    Produces ``fig3.csv``/``fig3.json``, ``fig4.csv``/``fig4.json``, and
    ``claims.json``; returns the written paths by artifact name.
    """
    from .claims import evaluate_claims
    from .fig3 import run_fig3
    from .fig4 import run_fig4

    directory = Path(directory)
    fig3 = run_fig3()
    fig4 = run_fig4()
    claims = evaluate_claims()
    written = {
        "fig3.csv": write_rows_csv(fig3, directory / "fig3.csv"),
        "fig3.json": write_rows_json(fig3, directory / "fig3.json"),
        "fig4.csv": write_rows_csv(fig4, directory / "fig4.csv"),
        "fig4.json": write_rows_json(fig4, directory / "fig4.json"),
    }
    claims_path = directory / "claims.json"
    claims_path.write_text(
        dumps_indented([c.to_dict() for c in claims]) + "\n"
    )
    written["claims.json"] = claims_path
    return written
