"""Per-pipeline baseline: verify, pullback and factor of phi, psi and theta
at N = 4, 6 and 8, classify on the five normal forms, and the numeric
crosscheck of each strict fixture.

    python3 perfbench/pipelines.py

Each row runs once untraced and once under the tracer; it prints the
untraced wall time, the traced span time of the pipeline's own function,
and the kernel's outermost poly_gcd calls and p_mul term products in the
traced run, as a markdown table.
"""

import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import tracer as tracing  # noqa: E402
import workloads as wl  # noqa: E402

ORDERS = (4, 6, 8)   # truncation levels of the ROADMAP's baseline rows


def rows(env):
    jf = env.jf
    for N in ORDERS:
        for name in wl.STRICT:
            fwd, inv = env.fixtures[name]
            yield ("verify_pair(%s, N=%d)" % (name, N),
                   "equivalence.verify_pair",
                   lambda fwd=fwd, inv=inv, N=N: jf.verify_pair(fwd, inv, N=N))
            A = jf.pullback_matrix(fwd, N=N)
            yield ("pullback_matrix(%s, N=%d)" % (name, N),
                   "equivalence.pullback_matrix",
                   lambda fwd=fwd, N=N: jf.pullback_matrix(fwd, N=N))
            yield ("factor_JK0(%s, N=%d)" % (name, N),
                   "factorize.factor_JK0", lambda A=A: jf.factor_JK0(A))
    yield ("classify_static on 5 forms", "classify.classify_static",
           lambda: [jf.classify_static(s) for s in env.forms])
    for name in wl.STRICT:
        fwd = env.fixtures[name][0]
        yield ("numeric_crosscheck(%s)" % name, "cli.numeric_crosscheck",
               lambda fwd=fwd: env.cli.numeric_crosscheck(fwd))


def main():
    env = wl.Env()
    print("| Run | Untraced s | Traced span s | poly_gcd calls "
          "| p_mul term products |")
    print("|---|---|---|---|---|")
    for label, key, fn in rows(env):
        t0 = time.perf_counter()
        fn()
        wall = time.perf_counter() - t0
        tr = tracing.Tracer()
        tr.install()
        try:
            tr.job(0, label, fn)
        finally:
            tr.uninstall()
        gcd = tr.stats["ratfn.poly_gcd"].calls
        prods = tr.stats["ratfn.p_mul"].counters.get("term_products", 0)
        print("| `%s` | %.3f | %.3f | %d | %d |"
              % (label, wall, tr.stats[key].s, gcd, prods), flush=True)


if __name__ == "__main__":
    sys.exit(main())
