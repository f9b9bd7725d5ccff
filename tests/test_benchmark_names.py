"""Every package name the benchmark reads still resolves.

`perfbench/` changes only with the benchmark, and it runs the package from
the checkout under test, so a change to the package has to keep every name
that `perfbench/` reads.  The scripts are read as text here, never imported
or edited: `env.<module>.<name>` and `jf.<name>` (the alias of `env.jf`)
in every script, and the tracer's patch targets.
"""

import ast
import importlib
import re
from pathlib import Path

from jetfactor import RatFn, X, U
from jetfactor.ratfn import poly_gcd

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# the attributes of workloads.Env, and the module each one imports
ENV = {"jf": "jetfactor", "cli": "jetfactor.cli",
       "suites": "jetfactor._suites", "errors": "jetfactor.errors"}
_READ = re.compile(r"\b(?:(?:env|self)\.(jf|cli|suites|errors)|(jf))"
                   r"\.([A-Za-z_]\w*)")


def _tracer_targets():
    """(module, dotted name) of each entry of tracer.TARGETS, both its
    literal list and the per-suite entries built from SUITES."""
    tree = ast.parse((PERFBENCH / "tracer.py").read_text())
    values = {}
    for node in tree.body:
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and isinstance(node.value, ast.List)):
            values[node.targets[0].id] = ast.literal_eval(node.value)
    out = {("jetfactor." + mod, attr)
           for mod, attr, *_ in values["TARGETS"]}
    out |= {("jetfactor._suites", fn) for fn in values["SUITES"]}
    return out


def _read_names():
    found = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        for attr, alias, name in _READ.findall(path.read_text()):
            found.add((ENV[attr or alias], name))
    return found | _tracer_targets()


def test_every_name_the_benchmark_reads_resolves():
    names = _read_names()
    # the scan must see the jobs' entry points, or it checks nothing
    assert {("jetfactor", "verify_pair"), ("jetfactor.cli", "main"),
            ("jetfactor.ratfn", "RatFn.substitute")} <= names
    missing = []
    for mod, dotted in sorted(names):
        obj = importlib.import_module(mod)
        for part in dotted.split("."):
            obj = getattr(obj, part, None)
        if obj is None:
            missing.append("%s.%s" % (mod, dotted))
    assert not missing, missing


def test_the_tracers_trivial_gcd_is_the_kernels_unit():
    # _hook_gcd counts a poly_gcd result as trivial when it equals one
    # literal; if the kernel's 1 changed form, trivial_share would read 0
    tree = ast.parse((PERFBENCH / "tracer.py").read_text())
    hook, = (node for node in tree.body if isinstance(node, ast.FunctionDef)
             and node.name == "_hook_gcd")
    unit, = (ast.literal_eval(node.comparators[0]) for node in ast.walk(hook)
             if isinstance(node, ast.Compare))
    x1, u1 = RatFn.var(X(1)), RatFn.var(U(1))
    assert poly_gcd((x1 * u1 + 1).num, (x1 - 3).num) == unit
    assert poly_gcd((x1 * u1).num, (u1 + 2).num) == unit
