"""Golden captures of the CLI on the built-in fixtures.

`tests/golden/cli.json` holds the serialized inputs and, for every
(fixture, command, format) case, the exact stdout, stderr and exit code.
The test reruns each case in-process and requires byte-identical output,
so a change to the kernel or the printers that alters any CLI byte shows
up here.  `classify` is also captured on every normal form of
`tests/test_classify.py::SIGNATURES` and on a seed-1 static move of each.
The file also holds one `jetfactor fixtures` run per format;
`tests/test_cli.py` compares the battery runs it already makes against
those, so the battery is not run a second time here.  Re-record (only
when an output change is intended) with

    PYTHONPATH=src python tests/test_golden.py --record
"""

import contextlib
import io
import json
import os
import sys
from pathlib import Path

from jetfactor import builtin_fixtures, random_static_transform, serialize
from jetfactor.cli import main
from test_classify import SIGNATURES, sysn

GOLDEN = Path(__file__).with_name("golden") / "cli.json"
FIXTURES = ("phi", "psi", "theta", "dec")
FORMATS = ("text", "machine")


def _inputs():
    """File name -> serialized text for every fixture's systems and maps."""
    out = {}
    for fwd, inv in builtin_fixtures():
        if fwd.name not in FIXTURES:
            continue
        out["%s.src.sys" % fwd.name] = serialize(fwd.src)
        out["%s.tgt.sys" % fwd.name] = serialize(fwd.tgt)
        out["%s.map" % fwd.name] = serialize(fwd)
        out["%s.inv.map" % fwd.name] = serialize(inv)
    for k, (f, _, _) in enumerate(SIGNATURES):
        form = sysn(len(f), *f)
        out["nf%02d.sys" % k] = serialize(form)
        out["nf%02d~1.sys" % k] = serialize(random_static_transform(form, 1)[2])
    return out


def _cases():
    """Case name -> argv, relative to a directory holding _inputs()."""
    cases = {}
    for f in FIXTURES:
        pair = ["--src", f + ".src.sys", "--tgt", f + ".tgt.sys",
                "--map", f + ".map"]
        runs = {
            "verify": ["verify"] + pair + ["--inv", f + ".inv.map"],
            "pullback": ["pullback"] + pair,
            "factor": ["factor"] + pair,
            "classify-src": ["classify", "--sys", f + ".src.sys"],
            "classify-tgt": ["classify", "--sys", f + ".tgt.sys"],
            "crosscheck": ["crosscheck"] + pair,
            "structure-check": ["structure-check", "--sys", f + ".src.sys",
                                "--frame", "both"],
        }
        for cmd, argv in runs.items():
            for fmt in FORMATS:
                cases["%s %s %s" % (f, cmd, fmt)] = argv + ["--format", fmt]
        # prolong prints the same document in either format
        cases["%s prolong" % f] = ["prolong", "--sys", f + ".src.sys"]
        cases["%s prolong-1" % f] = ["prolong", "--sys", f + ".src.sys",
                                     "--promote", "1"]
    for k in range(len(SIGNATURES)):
        for f in ("nf%02d" % k, "nf%02d~1" % k):
            for fmt in FORMATS:
                cases["%s classify %s" % (f, fmt)] = [
                    "classify", "--sys", f + ".sys", "--format", fmt]
    return cases


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def _capture(workdir):
    inputs = _inputs()
    for name, text in inputs.items():
        (Path(workdir) / name).write_text(text)
    here = os.getcwd()
    os.chdir(workdir)
    try:
        runs = {name: _run(argv) for name, argv in _cases().items()}
    finally:
        os.chdir(here)
    return {"inputs": inputs, "runs": runs}


def test_cli_output_matches_golden_capture(tmp_path):
    want = json.loads(GOLDEN.read_text())
    got = _capture(tmp_path)
    assert got["inputs"] == want["inputs"]
    assert sorted(got["runs"]) == sorted(want["runs"])
    for name in want["runs"]:
        assert got["runs"][name] == want["runs"][name], name


if __name__ == "__main__":
    import tempfile

    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python tests/test_golden.py --record")
    with tempfile.TemporaryDirectory() as d:
        data = _capture(d)
    data["fixtures"] = {fmt: _run(["fixtures", "--format", fmt])
                        for fmt in FORMATS}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print("recorded %d runs to %s" % (len(data["runs"]), GOLDEN))
