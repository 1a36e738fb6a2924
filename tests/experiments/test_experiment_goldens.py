"""Every experiment table, pinned.

``tests/data/experiment_goldens.json`` holds each experiment's
fast-mode and full-mode table as :func:`repro.serialization.table_to_dict`
writes it, with the commit they were recorded at.  Tier-1 re-runs the
fast suite (about a second) and compares; CI's orchestrator job runs
the full suite through the CLI and compares its artifacts with::

    python tests/experiments/test_experiment_goldens.py --check full DIR

Re-record (only when a table is meant to move, and say why) with::

    PYTHONPATH=src python tests/experiments/test_experiment_goldens.py --record
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

from repro.runner.orchestrator import run_experiments
from repro.serialization import table_to_dict

GOLDENS = Path(__file__).resolve().parents[1] / "data" / "experiment_goldens.json"


def _tables(fast):
    """``{experiment id: table payload}`` of one in-process run."""
    return {
        report.experiment: json.loads(json.dumps(table_to_dict(report.table)))
        for report in run_experiments(fast=fast, jobs=1)
    }


def _mismatches(mode, tables):
    """Ids whose table differs from the golden of *mode* (or is missing
    on either side)."""
    golden = json.loads(GOLDENS.read_text())[mode]
    return sorted(
        key for key in set(golden) | set(tables) if golden.get(key) != tables.get(key)
    )


def test_fast_tables_match_goldens():
    assert _mismatches("fast", _tables(fast=True)) == []


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--record", action="store_true", help="re-record both modes")
    group.add_argument(
        "--check",
        nargs=2,
        metavar=("MODE", "DIR"),
        help="compare the BENCH_*.json tables in DIR with MODE's goldens",
    )
    args = parser.parse_args(argv)
    if args.record:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True, check=True,
            cwd=GOLDENS.parent,
        ).stdout.strip()
        payload = {"commit": commit, "fast": _tables(True), "full": _tables(False)}
        GOLDENS.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
        return 0
    mode, directory = args.check
    tables = {
        path.stem[len("BENCH_"):]: json.loads(path.read_text())["table"]
        for path in Path(directory).glob("BENCH_*.json")
    }
    bad = _mismatches(mode, tables)
    if bad:
        print(f"{mode}-mode tables differ from the goldens: {', '.join(bad)}")
        return 1
    print(f"{len(tables)} {mode}-mode tables match the goldens")
    return 0


if __name__ == "__main__":
    sys.exit(main())
