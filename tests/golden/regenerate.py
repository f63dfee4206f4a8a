"""Rewrite the golden-output table, ``outputs.json``, from the code as it stands.

    PYTHONPATH=src python tests/golden/regenerate.py
    PYTHONPATH=src python tests/golden/regenerate.py --case NAME [NAME ...]

Each case of the table keeps its kind, config and seed.  The script runs every case
through ``cli.run_config`` at one thread and records the sha256 of each file the run
wrote but ``manifest.json``, and the decoded ``results.json``.  It also records the
numpy version and the SIMD extensions numpy's dispatch found on this CPU, which decide
whether ``tests/test_golden.py`` compares bytes or numbers.  To add a case, add its kind,
config and seed to the table and run the script with ``--case NAME``: it records only the
named cases, refuses one that already holds a recording, and refuses to run on another
platform than the table's.  So adding rows never re-records old ones; only a run over the
whole table rewrites them.  A change that moves an output runs the script without
``--case``: the table's diff is then the declared move.
"""

import argparse
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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--case", nargs="+", metavar="NAME",
                        help="record only these new cases, leaving every other row as it is")
    args = parser.parse_args(argv)
    table = load()
    names = list(table["cases"]) if args.case is None else args.case
    if args.case is not None:
        for name in names:
            if name not in table["cases"]:
                parser.error(f"no case {name!r} in the table")
            if "sha256" in table["cases"][name]:
                parser.error(f"case {name!r} is already recorded; only a run over the whole "
                             f"table rewrites it")
        if platform() != table["platform"]:
            parser.error(f"this is {platform()}, the table was recorded on "
                         f"{table['platform']}; only a run over the whole table moves it")
    with tempfile.TemporaryDirectory() as tmp:
        for name in names:
            case = table["cases"][name]
            outdir = Path(tmp) / name
            cli.run_config(case["kind"], case["config"], case["seed"], outdir)
            files = outputs(outdir)
            case["sha256"] = sha256(files)
            case["results"] = json.loads(files["results.json"])
    table["platform"] = platform()
    with open(TABLE, "w", newline="\n") as fh:
        json.dump(table, fh, sort_keys=True, indent=1, allow_nan=False)
        fh.write("\n")
    print(f"{TABLE}: {len(names)} of {len(table['cases'])} cases recorded", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
