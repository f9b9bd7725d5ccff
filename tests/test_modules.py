"""The package's modules stay below the size where compiling costs a step.

CPython 3.11's parser takes about 0.45 MB more to compile a module once
its token stream passes 8,192 tokens.  Without bytecode caching every
fresh import compiles the largest module, so the benchmark's peak_rss_mb
read that step as a regression of every workload (CHANGES.md:50).  The
kernel was split into poly.py and ratfn.py to keep both well below it.

The package's public names are exactly the ones its __init__ imports.
"""

import ast
import importlib
import tokenize
from pathlib import Path

import jetfactor

# the token count past which compiling was measured to take the step
TOKEN_STEP = 8192

# counted as the BENCH_*.json records count them
_UNCOUNTED = {tokenize.COMMENT, tokenize.NL, tokenize.ENCODING}


def parser_tokens(path):
    with open(path, "rb") as fh:
        return sum(1 for tok in tokenize.tokenize(fh.readline)
                   if tok.type not in _UNCOUNTED)


def test_every_module_is_below_the_token_step():
    sizes = {path.name: parser_tokens(path)
             for path in Path(jetfactor.__file__).parent.glob("*.py")}
    assert {"poly.py", "ratfn.py", "sysio.py"} <= set(sizes)
    over = {name: n for name, n in sizes.items() if n >= TOKEN_STEP}
    assert not over, over


def test_all_lists_exactly_the_imported_names():
    tree = ast.parse(Path(jetfactor.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    bound = [a.asname or a.name for node in imports for a in node.names]
    assert sorted(jetfactor.__all__) == sorted(bound)
    assert len(set(bound)) == len(bound)
    for node in imports:
        mod = importlib.import_module("." * node.level + node.module, "jetfactor")
        for a in node.names:
            assert getattr(jetfactor, a.asname or a.name) is getattr(mod, a.name)
