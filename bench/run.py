#!/usr/bin/env python3
"""symbolkit benchmark: three workloads through the public API, checked outputs.

    python3 bench/run.py --workload mc-ensemble --seed 1 --seconds 30 --trace 0

Run from anywhere inside a checkout; symbolkit is imported from ``src/``.

Load is one process in a closed loop: one job at a time, each job started
only after the previous one finished, with at most two threads (``--threads``
of the jobs that take it).  A run repeats pairs of passes over the workload's
job list, one at threads=1 and one at threads=2, while another pair still fits
in ``--seconds`` (at least one pair).  Every job's outputs are checked against
a reference, must be strict JSON, and must be byte-identical across passes.

``--trace 0`` prints the end-to-end metrics: ``solve_s`` and ``solve_s_2t``
(time of a pass at threads=1 and 2, as per-job medians), ``setup_s`` (median
over fresh interpreters of importing symbolkit and resolving the workload's
models, drivers and symbols) and ``peak_rss_mb``.  The three times are in
seconds at reference speed (see ``calibrate.py``); the plain wall times are
printed beside them and kept in the run record.  ``--trace 1`` makes one untraced
pass, a threads=2 pass with ensemble spans only, and one fully traced pass,
and prints the per-layer metrics of ``tracing.py``.  Failed jobs are counted in
``attempted``/``failed`` and printed as ``failed_frac``.

The last line of stdout is one JSON object:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
Run outputs, the run record and the spans go to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_REPEATS = 5

sys.path.insert(0, str(BENCH))
import workloads as wl  # noqa: E402
from calibrate import NOMINAL_S, reference_seconds  # noqa: E402


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny: a seconds-long job list for bench/selftest.py")
    return ap.parse_args(argv)


def import_symbolkit(tracer=None):
    """Import symbolkit from this checkout's src/ (quad wrapped first when tracing)."""
    if not (SRC / "symbolkit" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no symbolkit sources under {SRC}")
    if tracer is not None:
        import scipy.integrate

        scipy.integrate.quad = tracer.quad_wrapper(scipy.integrate.quad)
    sys.path.insert(0, str(SRC))
    import symbolkit
    from symbolkit import (cli, coefficients, errors, indices, levy, pathstats,
                           sde, symbols)

    if Path(symbolkit.__file__).resolve().parent != SRC / "symbolkit":
        raise SystemExit(f"benchmark: imported symbolkit from {symbolkit.__file__}")
    return argparse.Namespace(cli=cli, coefficients=coefficients, errors=errors,
                              indices=indices, levy=levy, pathstats=pathstats,
                              sde=sde, symbols=symbols)


# --------------------------------------------------------------------------
# run record


def _cpu_record() -> dict:
    rec = {"nproc": os.cpu_count(), "cpu_model": platform.processor() or None,
           "caches": {}}
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    rec["cpu_model"] = line.split(":", 1)[1].strip()
                    break
        for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            level = (idx / "level").read_text().strip()
            kind = (idx / "type").read_text().strip()
            rec["caches"][f"L{level}-{kind}"] = (idx / "size").read_text().strip()
    except OSError:
        pass
    return rec


def _commit():
    if not (ROOT / ".git").exists():
        return None
    out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                         text=True, timeout=30)
    return out.stdout.strip() or None


def _source_hash() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "symbolkit").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def run_record(args, jobs) -> dict:
    import numpy
    import scipy

    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "why": wl.WHY[args.workload],
            "jobs": [{"name": j.name, "kind": j.kind, "seed": j.seed, "config": j.config}
                     for j in jobs],
            "known_gaps": wl.KNOWN_GAPS, "machine": _cpu_record(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "commit": _commit(),
            "source_sha256": _source_hash()}


# --------------------------------------------------------------------------
# set-up time


def measure_setup(jobs) -> tuple:
    """Seconds to import symbolkit and resolve the jobs' specs, in fresh interpreters.

    Returns (wall seconds, seconds at reference speed) per interpreter.
    """
    specs = json.dumps(wl.resolve_list(jobs))
    env = dict(os.environ, PYTHONPATH=str(SRC))
    wall, scaled = [], []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run([sys.executable, str(BENCH / "setup_probe.py"), specs],
                             cwd=ROOT, env=env, capture_output=True, text=True,
                             timeout=120, check=True)
        setup, ref = map(float, out.stdout.split()[-2:])
        wall.append(setup)
        scaled.append(setup * NOMINAL_S / ref)
    return wall, scaled


# --------------------------------------------------------------------------
# jobs


class EnsembleAudit:
    """Records n_paths of every ensemble symbol_mc_table runs, per (pass, job).

    It is the check that every symbol-compare rung used the configured path
    count; one list append per ensemble, so it stays on in untraced runs.
    """

    def __init__(self, symbols):
        self.calls = {}
        self.key = None
        original = symbols.simulate_ensemble

        def audited(*args, **kwargs):
            self.calls.setdefault(self.key, []).append(
                kwargs["n_paths"] if "n_paths" in kwargs else args[5])
            return original(*args, **kwargs)

        symbols.simulate_ensemble = audited


def _write_results(jobdir: Path, results: dict) -> None:
    jobdir.mkdir(parents=True, exist_ok=True)
    with open(jobdir / "results.json", "w", newline="\n") as fh:
        json.dump({"results": results}, fh, sort_keys=True, indent=1, allow_nan=False)
        fh.write("\n")


def _lib_simulate_multi(sk, job, jobdir, passdir):
    from symbolkit import catalog

    cfg = job.config
    spec = sk.sde.MultiDriverSpec([(sk.coefficients.from_dict(c), catalog.resolve_driver(d))
                                   for c, d in cfg["drivers"]])
    path = sk.sde.simulate_multi(spec, cfg["x0"], cfg["horizon"], cfg["step"], job.seed)
    jobdir.mkdir(parents=True, exist_ok=True)
    with open(jobdir / "path.bin", "wb") as fh:
        sk.sde.path_to_binary(path, fh)
    _write_results(jobdir, {"terminal": path.states[-1].tolist(),
                            "n_steps": int(path.times.shape[0] - 1),
                            "n_jumps": len(path.jumps)})


def _lib_gamma_variation(sk, job, jobdir, passdir):
    with open(passdir / job.config["source"] / "path.bin", "rb") as fh:
        values = sk.sde.path_from_binary(fh).states[:, 0]
    records = []
    for gamma in job.config["gammas"]:
        res = sk.pathstats.gamma_variation(values, gamma)
        records.append({"gamma": gamma, "value": res.value, "grid_size": res.grid_size,
                        "partition_size": int(res.partition.shape[0]),
                        "reevaluated": res.reevaluate(values)})
    _write_results(jobdir, {"records": records})


LIBRARY = {"lib:simulate_multi": _lib_simulate_multi,
           "lib:gamma_variation": _lib_gamma_variation}


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.iterdir() if p.is_file())


def run_pass(sk, jobs, threads, passdir, audit, tracer=None, calibrate=False) -> tuple:
    """One pass over the job list.

    Returns (wall seconds, {job: error}, {job: wall seconds}, {job: seconds at
    reference speed}); the reference kernel runs between jobs when ``calibrate``.
    """
    errors, job_s, job_ref = {}, {}, {}
    ref = reference_seconds() if calibrate else NOMINAL_S
    for job in jobs:
        t_job = time.perf_counter()
        jobdir = passdir / job.name
        audit.key = (passdir.name, job.name)
        try:
            if job.kind in LIBRARY:
                LIBRARY[job.kind](sk, job, jobdir, passdir)
            elif tracer is not None and tracer.full:
                tracer.call(f"cli.{job.kind}", sk.cli.run_config, job.kind, job.config,
                            job.seed, jobdir, threads)
                tracer.counts["cli.output_bytes"] += _dir_bytes(jobdir)
            else:
                sk.cli.run_config(job.kind, job.config, job.seed, jobdir, threads)
        except Exception:                       # a failed job is counted, not fatal
            errors[job.name] = traceback.format_exc()
        job_s[job.name] = time.perf_counter() - t_job
        ref_after = reference_seconds() if calibrate else NOMINAL_S
        job_ref[job.name] = job_s[job.name] * NOMINAL_S / (0.5 * (ref + ref_after))
        ref = ref_after
    return sum(job_s.values()), errors, job_s, job_ref


def judge(jobs, passes, audit) -> tuple:
    """(attempted, failed, problems): first pass is checked, the rest compared to it."""
    from checks import check_job, compare_dirs, load_strict

    ref_dir, _, ref_errors = passes[0]
    attempted, problems = 0, []
    for passdir, _, errors in passes:
        for job in jobs:
            attempted += 1
            jobdir = passdir / job.name
            if job.name in errors:
                problems.append((passdir.name, job.name, errors[job.name].strip()))
                continue
            if passdir == ref_dir:
                found = check_job(job, jobdir, audit.calls.get((passdir.name, job.name)))
            elif job.name in ref_errors:
                found = ["reference pass failed"]
            else:
                found = [f"{name} differs from {ref_dir.name}"
                         for name in compare_dirs(ref_dir / job.name, jobdir)]
                try:
                    load_strict(jobdir / "results.json")
                except (OSError, ValueError) as exc:
                    found.append(f"results.json: {exc}")
            if found:
                problems.append((passdir.name, job.name, "; ".join(found)))
    return attempted, len(problems), problems


# --------------------------------------------------------------------------
# runs


def pass_time(job_times: list) -> float:
    """Time of one pass: the sum over jobs of each job's median over the passes.

    Per-job medians drop a slow spell that hit one job in one pass.
    """
    return sum(statistics.median(t[name] for t in job_times) for name in job_times[0])


def end_to_end(args, sk, jobs, audit, record) -> tuple:
    setup_wall, setup = measure_setup(jobs)
    passes, walls, job_times = [], {1: [], 2: []}, {1: [], 2: []}
    start = time.perf_counter()
    pair = 0
    while True:
        t_pair = time.perf_counter()
        for threads in (1, 2):
            passdir = args.rundir / f"p{pair}-t{threads}"
            wall, errors, job_s, job_ref = run_pass(sk, jobs, threads, passdir, audit,
                                                    calibrate=True)
            passes.append((passdir, wall, errors))
            walls[threads].append(wall)
            job_times[threads].append(job_ref)
            record.setdefault("job_s", {})[passdir.name] = job_s
            record.setdefault("job_ref_s", {})[passdir.name] = job_ref
        pair += 1
        now = time.perf_counter()
        if now - start + (now - t_pair) > args.seconds:
            break
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "solve_s": {"value": pass_time(job_times[1]), "unit": "s"},
        "solve_s_2t": {"value": pass_time(job_times[2]), "unit": "s"},
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "peak_rss_mb": {"value": rss_mb, "unit": "MiB"},
    }
    record["samples"] = {"pass_wall_s_t1": walls[1], "pass_wall_s_t2": walls[2],
                         "setup_wall_s": setup_wall, "setup_ref_s": setup}
    record["wall_s"] = {"solve_s": statistics.median(walls[1]),
                        "solve_s_2t": statistics.median(walls[2]),
                        "setup_s": statistics.median(setup_wall)}
    return passes, metrics


def traced(args, sk, jobs, audit, tracer, record) -> tuple:
    from tracing import layer_metrics, span_times

    passes = []

    def one(name, threads):
        tracer.label = name
        passdir = args.rundir / name
        wall, errors, job_s, _ = run_pass(sk, jobs, threads, passdir, audit, tracer)
        passes.append((passdir, wall, errors))
        record.setdefault("job_s", {})[name] = job_s
        return wall

    tracer.install_ensemble(sk)
    wall_plain = one("untraced-t1", 1)
    one("ensemble-t2", 2)
    ens = {label: 0.0 for label in ("untraced-t1", "ensemble-t2")}
    for name, start, end, _, label in tracer.spans:
        ens[label] += end - start
    speedup = ens["untraced-t1"] / ens["ensemble-t2"] if ens["ensemble-t2"] else 0.0
    tracer.uninstall()
    tracer.reset()

    tracer.install_full(sk)
    tracer.full = True
    wall_traced = one("traced-t1", 1)
    tracer.full = False
    tracer.uninstall()

    metrics = layer_metrics(tracer.spans, tracer.counts, speedup_2t=speedup,
                            overhead_frac=(wall_traced - wall_plain) / wall_plain)
    record["samples"] = {"untraced_t1_s": wall_plain, "traced_t1_s": wall_traced,
                         "ensemble_s": ens}
    names = sorted({s[0] for s in tracer.spans})
    index = {n: i for i, n in enumerate(names)}
    record["spans"] = {"fields": ["name", "start", "end", "parent", "pass"],
                       "names": names,
                       "rows": [[index[n], a, b, p, lab] for n, a, b, p, lab in tracer.spans]}
    totals, own = span_times(tracer.spans)
    record["span_totals"] = {n: {"total_s": totals[n], "self_s": own[n]} for n in names}
    return passes, metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
    sk = import_symbolkit(tracer)
    jobs = wl.jobs_for(args.workload, args.seed, tiny=args.size == "tiny")
    record = run_record(args, jobs)
    audit = EnsembleAudit(sk.symbols)
    args.rundir = OUT / f"{args.workload}-{os.getpid()}"

    # lazy imports and caches filled by a tiny pass; users pay these once per process
    run_pass(sk, wl.jobs_for(args.workload, args.seed, tiny=True), 1,
             args.rundir / "warmup", audit)

    if args.trace:
        passes, metrics = traced(args, sk, jobs, audit, tracer, record)
    else:
        passes, metrics = end_to_end(args, sk, jobs, audit, record)
    attempted, failed, problems = judge(jobs, passes, audit)
    shutil.rmtree(args.rundir)

    record.update(metrics=metrics, attempted=attempted, failed=failed, problems=problems)
    OUT.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}" + ("-trace" if args.trace else "")
    with open(OUT / f"{stem}.json", "w") as fh:
        json.dump(record, fh, separators=(",", ":"), allow_nan=False)
        fh.write("\n")

    for where, job, why in problems:
        print(f"FAILED {where}/{job}: {why}", file=sys.stderr)
    print("run record: " + json.dumps({k: record[k] for k in (
        "workload", "seed", "machine", "python", "numpy", "scipy", "commit",
        "source_sha256")}))
    n_pass = len(passes) // 2 if not args.trace else 1
    for name, m in metrics.items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}"
              + (f" (per-job medians over {n_pass} passes)" if name.startswith("solve_s")
                 else ""))
    for name, value in record.get("wall_s", {}).items():
        print(f"{args.workload} {name} as plain wall time = {value:.6g} s (median)")
    print(f"{args.workload} failed_frac = {failed / attempted:.6g} ratio "
          f"({failed} of {attempted} job runs)")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
