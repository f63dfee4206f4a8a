"""Rewrite the golden-output table, ``outputs.json``, from the code as it stands.

    PYTHONPATH=src python tests/golden/regenerate.py

Each case of the table keeps its kind, config and seed.  The script runs every case
through ``cli.run_config`` at one thread and records the sha256 of each file the run
wrote but ``manifest.json``, and the decoded ``results.json``.  It also records the
numpy version and the SIMD extensions numpy's dispatch found on this CPU, which decide
whether ``tests/test_golden.py`` compares bytes or numbers.  To add a case, add its kind,
config and seed to the table and run the script.  A change that moves an output runs
the script too: the table's diff is then the declared move.
"""

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

from symbolkit import cli

TABLE = Path(__file__).with_name("outputs.json")


def platform() -> dict:
    """numpy's version and the SIMD extensions its dispatch found on this CPU."""
    simd = np.show_config(mode="dicts")["SIMD Extensions"]
    return {"numpy": np.__version__, "simd": simd.get("found", [])}


def load() -> dict:
    with open(TABLE) as fh:
        return json.load(fh)


def outputs(outdir: Path) -> dict:
    """{name: bytes} of every file a run wrote to ``outdir`` but manifest.json."""
    return {p.name: p.read_bytes() for p in sorted(outdir.iterdir())
            if p.name != "manifest.json"}


def sha256(files: dict) -> dict:
    return {name: hashlib.sha256(data).hexdigest() for name, data in files.items()}


def main() -> int:
    table = load()
    with tempfile.TemporaryDirectory() as tmp:
        for name, case in table["cases"].items():
            outdir = Path(tmp) / name
            cli.run_config(case["kind"], case["config"], case["seed"], outdir)
            files = outputs(outdir)
            case["sha256"] = sha256(files)
            case["results"] = json.loads(files["results.json"])
    table["platform"] = platform()
    with open(TABLE, "w", newline="\n") as fh:
        json.dump(table, fh, sort_keys=True, indent=1, allow_nan=False)
        fh.write("\n")
    print(f"{TABLE}: {len(table['cases'])} cases", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
