"""Set-up probe: time to import symbolkit and resolve a workload's specs.

    PYTHONPATH=src python3 bench/setup_probe.py '[["model", {"name": "bm_bump"}], ...]'

run.py starts it in a fresh interpreter, as a CLI user pays this on every
invocation.  Only the standard library is imported before the clock starts.
Prints the seconds, then the duration of the reference kernel run right after.
"""

import json
import sys
import time


def main() -> None:
    specs = json.loads(sys.argv[1])
    t0 = time.perf_counter()
    from symbolkit import catalog, cli, coefficients  # noqa: F401  (cli: full import)

    resolve = {"model": catalog.resolve_model, "driver": catalog.resolve_driver,
               "symbol": catalog.resolve_symbol, "coefficient": coefficients.from_dict}
    for what, spec in specs:
        resolve[what](spec)
    setup = time.perf_counter() - t0
    from calibrate import reference_seconds

    print(repr(setup), repr(reference_seconds()))


if __name__ == "__main__":
    main()
