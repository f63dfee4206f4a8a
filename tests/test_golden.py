"""Every CLI output stays what the golden table, ``tests/golden/outputs.json``, recorded.

Each case runs three times: through ``cli.run_config`` at one and at two threads, and
through ``symbolkit rerun`` of the first run's manifest.  The three runs must write the
same bytes, raise no warning and write nothing to stderr.  They must also match the table:

- byte for byte (sha256 of every file but ``manifest.json``) when numpy's version and the
  SIMD extensions its dispatch found are those the table was recorded on;
- otherwise, every number of ``results.json`` within ``REL_BOUND`` relative plus
  ``ABS_BOUND``, every other value exactly, and the same file names; a warning says that
  this looser mode ran.

numpy's SIMD ``sin``, ``cos`` and ``exp`` round differently on another CPU, so bytes alone
would fail on another machine.  A change that moves an output reruns
``tests/golden/regenerate.py``, and the table's diff declares the move.
"""

import cmath
import json
import warnings

import pytest

from golden import regenerate as golden
from symbolkit import cli

TABLE = golden.load()
CASES = TABLE["cases"]
# numpy 2.4.6 on an AVX-512 Xeon with NPY_DISABLE_CPU_FEATURES=X86_V4: the largest move of
# a results.json number is 1.25e-13 relative (an indices-cp_tanh H point), and 1.8e-16
# absolute in a difference of two numbers near 1 (a generator check's rel_diff), which
# is rounding at scale 1 but 1% of the difference
REL_BOUND = 1.3e-13
ABS_BOUND = 2.3e-16


@pytest.fixture(scope="module")
def exact():
    """Whether this platform is the table's, so outputs must match byte for byte."""
    here = golden.platform()
    if here == TABLE["platform"]:
        return True
    warnings.warn(f"golden outputs compared within {REL_BOUND:g} relative plus "
                  f"{ABS_BOUND:g}, not byte for byte: this is {here}, the table was "
                  f"recorded on {TABLE['platform']}")
    return False


def _close(got, want, where):
    if isinstance(want, dict):
        assert isinstance(got, dict) and sorted(got) == sorted(want), where
        for key in want:
            _close(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            _close(g, w, f"{where}[{i}]")
    elif type(want) is float:
        bound = REL_BOUND * max(abs(got), abs(want)) + ABS_BOUND
        assert type(got) is float and abs(got - want) <= bound, (where, got, want)
    else:
        assert type(got) is type(want) and got == want, (where, got, want)


@pytest.mark.parametrize("name", sorted(CASES))
def test_case_reproduces_the_table(name, exact, tmp_path, monkeypatch, capfd):
    case = CASES[name]
    monkeypatch.delenv("SYMBOLKIT_THREADS", raising=False)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for threads in (1, 2):
            cli.run_config(case["kind"], case["config"], case["seed"], tmp_path / f"t{threads}",
                           threads)
        assert cli.main(["rerun", "--manifest", str(tmp_path / "t1" / "manifest.json"),
                         "--out", str(tmp_path / "rerun")]) == 0
    assert capfd.readouterr().err == ""
    runs = [golden.outputs(tmp_path / run) for run in ("t1", "t2", "rerun")]
    assert runs[1] == runs[0]
    assert runs[2] == runs[0]
    if exact:
        assert golden.sha256(runs[0]) == case["sha256"]
    else:
        assert sorted(runs[0]) == sorted(case["sha256"])
        _close(json.loads(runs[0]["results.json"]), case["results"], name)


def test_table_covers_every_kind():
    assert sorted({case["kind"] for case in CASES.values()}) == sorted(cli.KINDS)


def test_recorded_values_keep_their_references():
    # every generator check agrees with its Fourier form, and the narrow normal law's
    # symbol is its closed form 1 - e^{-5 i xi - (0.05 xi)^2 / 2}
    for name, case in CASES.items():
        if case["kind"] == "generator-check":
            assert case["results"]["results"]["all_agree"] is True, name
    for r in CASES["console-narrow"]["results"]["results"]["records"]:
        want = 1 - cmath.exp(-5j * r["xi"] - (0.05 * r["xi"]) ** 2 / 2)
        assert abs(complex(r["re"], r["im"]) - want) <= 1e-12 * abs(want), r
