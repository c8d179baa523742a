"""What the bench scripts share: the command line, one fresh child process
per case, and the report.

A script calls `main` with its cases and its `run_case`. Run plainly, it
starts one child of itself per case, `--case` followed by the case as JSON;
the child puts the measured `src` first on `sys.path`, runs `run_case` on
the decoded case and prints the result as one JSON line. The parent writes
`--out` (default BENCH_<name>.json at the repo root, for bench_<name>.py):
the script's own leading fields, the host record, `domlab_sha256` (one
hash over every measured `domlab/*.py`, taken in name order), an optional
summary, one entry per line, then one case per line, so a diff of two
files names the cases that moved. A child that exits non-zero (say, a
failed untimed check) stops the run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any, Callable

ROOT = Path(__file__).resolve().parent.parent


def quartiles(name: str, times_ms: list[float], digits: int) -> dict:
    """{name}_median, _q1, _q3 and _iqr of `times_ms`, rounded to `digits`."""
    q1, median, q3 = statistics.quantiles(times_ms, n=4, method="inclusive")
    return {f"{name}_median": round(median, digits), f"{name}_q1": round(q1, digits),
            f"{name}_q3": round(q3, digits), f"{name}_iqr": round(q3 - q1, digits)}


def main(script: str, doc: str, fields: dict, cases: Callable[[], list],
         run_case: Callable[[Any], dict],
         summary: Callable[[list[dict]], dict] | None = None) -> int:
    """The command line of the bench script `script` (its `__file__`), whose
    docstring is `doc`. `fields` lead the report; `summary`, when given,
    maps the case results to the report's "summary"."""
    name = Path(script).stem.removeprefix("bench_")
    ap = argparse.ArgumentParser(description=doc.split("\n\n")[0])
    ap.add_argument("--src", type=Path, default=ROOT / "src",
                    help="the src directory whose domlab is measured")
    ap.add_argument("--out", type=Path, default=ROOT / f"BENCH_{name}.json")
    ap.add_argument("--case", help=argparse.SUPPRESS)  # one JSON case, run in a child process
    args = ap.parse_args()
    src = args.src.resolve()
    sys.path.insert(0, str(src))
    if args.case:
        print(json.dumps(run_case(json.loads(args.case))))
        return 0
    results = []
    for case in cases():
        child = subprocess.run([sys.executable, str(Path(script).resolve()), "--src", str(src),
                                "--case", json.dumps(case)],
                               check=True, capture_output=True, text=True)
        results.append(json.loads(child.stdout))
        print(child.stdout.strip(), file=sys.stderr)
    report = dict(fields, host={
        "platform": platform.platform(), "machine": platform.machine(),
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "src_path_len": len(str(src))})
    sources = hashlib.sha256()
    for path in sorted((src / "domlab").glob("*.py")):
        sources.update(path.name.encode() + b"\0" + path.read_bytes())
    report["domlab_sha256"] = sources.hexdigest()[:16]
    text = json.dumps(report, indent=1)[:-2]
    if summary:
        text += ',\n "summary": {\n' + ",\n".join(
            f"  {json.dumps(key)}: {json.dumps(value)}"
            for key, value in summary(results).items()) + "\n }"
    text += ',\n "cases": [\n' + ",\n".join("  " + json.dumps(e) for e in results) + "\n ]\n}\n"
    args.out.write_text(text)
    return 0
