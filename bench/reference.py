"""Reference outputs stored with the benchmark, and the check of a run against them.

A reference file holds, per scenario seed, the CSV text every output of one
repetition had at the commit that wrote it (see make_reference.py).  A run is
checked per operation: one scheme of a campaign, or one CLI command.
"""

import csv
import gzip
import io
import json
import math
from pathlib import Path
from typing import Dict, List, Optional

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
NO_REFERENCE = "no reference"


def reference_path(workload_name: str) -> Path:
    return REFERENCE_DIR / f"{workload_name}.json.gz"


def load(workload_name: str) -> Dict[str, Dict[str, str]]:
    """Scenario seed (as a string) -> output name -> CSV text; {} if none stored."""
    path = reference_path(workload_name)
    if not path.exists():
        return {}
    with gzip.open(path, "rt") as fh:
        return json.load(fh)


def save(workload_name: str, data: Dict[str, Dict[str, str]]) -> None:
    REFERENCE_DIR.mkdir(parents=True, exist_ok=True)
    # mtime=0 keeps the file byte-identical when the outputs are.
    with open(reference_path(workload_name), "wb") as raw:
        with gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as gz:
            gz.write(json.dumps(data, indent=0, sort_keys=True).encode())


def _rows(text: str) -> List[List[str]]:
    return list(csv.reader(io.StringIO(text)))


def _number(cell: str) -> Optional[float]:
    try:
        return float(cell)
    except ValueError:
        return None


def _cells_close(want: str, got: str, rtol: float) -> bool:
    a, b = _number(want), _number(got)
    if a is None or b is None:
        return want == got
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return math.isclose(a, b, rel_tol=rtol, abs_tol=0.0)


def compare_rows(want: List[List[str]], got: List[List[str]], rtol: float) -> Optional[str]:
    """None if every cell matches (numbers at rtol), else the first difference."""
    if len(want) != len(got):
        return f"{len(got)} rows, reference has {len(want)}"
    for i, (w_row, g_row) in enumerate(zip(want, got)):
        if len(w_row) != len(g_row):
            return f"row {i}: {len(g_row)} cells, reference has {len(w_row)}"
        for j, (w, g) in enumerate(zip(w_row, g_row)):
            if not _cells_close(w, g, rtol):
                return f"row {i} col {j}: {g} vs reference {w} (rtol {rtol:g})"
    return None


def _column_means(rows: List[List[str]]) -> List[float]:
    """Time averages of the numeric columns after (scheme, k)."""
    values = [[float(c) for c in row[2:]] for row in rows]
    return [sum(col) / len(col) for col in zip(*values)] if values else []


def compare_time_avg(want: List[List[str]], got: List[List[str]], rtol: float) -> Optional[str]:
    if len(want) != len(got):
        return f"{len(got)} steps, reference has {len(want)}"
    try:
        means = list(zip(_column_means(want), _column_means(got)))
    except ValueError as exc:
        return f"non-numeric cell: {exc}"
    for j, (w, g) in enumerate(means):
        if not math.isclose(w, g, rel_tol=rtol, abs_tol=0.0):
            return f"time average of col {j + 2}: {g!r} vs reference {w!r} (rtol {rtol:g})"
    return None


def _by_scheme(text: str) -> Dict[str, List[List[str]]]:
    rows = _rows(text)
    out: Dict[str, List[List[str]]] = {}
    for row in rows[1:]:
        out.setdefault(row[0], []).append(row)
    return out


def _per_operation(workload, outputs: Dict[str, str]) -> Dict[str, List[List[str]]]:
    """Operation -> its output rows; a campaign CSV is split by scheme."""
    if workload.is_tracking:
        return _by_scheme(outputs["campaign"]) if "campaign" in outputs else {}
    return {op: _rows(text) for op, text in outputs.items()}


def check(workload, seed: int, outputs: Dict[str, str],
          stored: Optional[Dict[str, Dict[str, str]]] = None) -> Dict[str, Optional[str]]:
    """Operation -> None if its output matches the reference, else the reason.

    A scenario seed with no stored reference gives NO_REFERENCE for every
    operation: it is reported, never passed.
    """
    if stored is None:
        stored = load(workload.name)
    ref = stored.get(str(seed))
    if ref is None:
        return dict.fromkeys(workload.operations, NO_REFERENCE)
    compare = compare_time_avg if workload.compare == "time_avg" else compare_rows
    if workload.is_tracking:
        header = [_rows(text)[:1] for text in (ref["campaign"], outputs.get("campaign", ""))]
        if header[0] != header[1]:
            return dict.fromkeys(workload.operations, f"CSV header {header[1]} vs reference {header[0]}")
    want, got = _per_operation(workload, ref), _per_operation(workload, outputs)
    return {
        op: compare(want.get(op, []), got[op], workload.rtol) if op in got else "no output"
        for op in workload.operations
    }
