"""Every package name the benchmark reads still resolves.

`perfbench/` changes only with the benchmark, and it runs the package from
the checkout under test, so a change to the package has to keep every name
that `perfbench/` reads.  The scripts are read as text here, never imported
or edited: `env.<module>.<name>` and `jf.<name>` (the alias of `env.jf`)
in every script, and the tracer's patch targets.  The tracer replaces a
module-level target in every module that binds the same object, so the
last tests check that each call site looks the target up under its own
name, wherever the function is defined.
"""

import ast
import dis
import importlib
import pkgutil
import re
import types
from pathlib import Path

import jetfactor
from jetfactor import RatFn, X, U
from jetfactor.poly import poly_gcd

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


def _package_modules():
    """Every module of the package, imported: {name: module}."""
    mods = {"jetfactor": jetfactor}
    for info in pkgutil.iter_modules(jetfactor.__path__, "jetfactor."):
        mods[info.name] = importlib.import_module(info.name)
    return mods


def _global_reads(code):
    """The global names that code and the code nested in it look up."""
    names = {ins.argval for ins in dis.get_instructions(code)
             if ins.opname in ("LOAD_GLOBAL", "LOAD_NAME")}
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            names |= _global_reads(const)
    return names


def _module_level_targets():
    """{(module, name): object} of the tracer targets without a dot."""
    return {(mod, attr): getattr(importlib.import_module(mod), attr)
            for mod, attr in _tracer_targets() if "." not in attr}


def test_no_module_binds_a_tracer_target_under_another_name():
    # a call through an alias would escape the tracer's by-identity patch
    mods = _package_modules()
    aliases = []
    for (mod, attr), fn in sorted(_module_level_targets().items()):
        for name, module in mods.items():
            aliases += ["%s.%s is %s.%s" % (name, bound, mod, attr)
                        for bound, obj in vars(module).items()
                        if obj is fn and bound != attr]
    assert not aliases, aliases


def test_every_module_that_calls_a_tracer_target_binds_it():
    # the tracer patches ratfn.p_mul in every module that binds that
    # object; a module that read another p_mul would go uncounted
    mods = _package_modules()
    reads = {name: _global_reads(compile(Path(module.__file__).read_text(),
                                         module.__file__, "exec"))
             for name, module in mods.items()}
    targets = _module_level_targets()
    callers = {}
    for (mod, attr), fn in targets.items():
        callers[mod, attr] = sorted(name for name in mods
                                    if attr in reads[name])
        for name in callers[mod, attr]:
            assert vars(mods[name]).get(attr) is fn, (name, mod, attr)
    # the kernel's own calls are what the tracer must reach
    assert {"jetfactor.poly", "jetfactor.ratfn"} <= set(
        callers["jetfactor.ratfn", "p_mul"])
    assert "jetfactor.poly" in callers["jetfactor.ratfn", "poly_gcd"]
