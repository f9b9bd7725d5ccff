"""Record the result digests the benchmark checks its jobs against.

    python3 perfbench/make_digests.py

Runs every job any workload seed can produce once (the whole input pool of
each workload), checks each against its known answer, and writes the
SHA-256 of each serialized result to perfbench/digests.json.  Jobs that
share a key (one normal form under different transforms, one suite under
different seeds) must agree on their digest.  Run it only on a commit whose
results are the reference; the benchmark then counts any changed result as
a failed job.
"""

import json
import os
import random
import shutil
import sys
import tempfile

import run
import workloads as wl


def pool(env, workdir):
    yield from wl.equiv_deep(env, random.Random(0), workdir)
    for form in range(len(env.forms)):
        for tseed in range(wl.TRANSFORM_POOL):
            yield wl.classify_job(env, form, tseed)
    inputs = wl.fixture_inputs(env)
    inputs += [wl.cli_input(env, form, kind, tseed)
               for form in range(len(env.forms)) for kind in wl.TRANSFORMS
               for tseed in range(wl.CLI_POOL)]
    paths = wl.write_documents(env, inputs, workdir)
    for ident, form, _, _ in inputs:
        for cmd in wl.cli_commands(form):
            yield wl.cli_job(env, ident, cmd, paths[ident])
    for _label, fn in env.suites.ALL_SUITES:
        for seed in range(wl.SUITE_POOL):
            yield wl.suite_job(env, fn.__name__, seed)


def main():
    sys.path.insert(0, os.path.join(run.ROOT, "src"))
    os.makedirs(run.OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=run.OUT)
    digests, bad = {}, []
    try:
        env = wl.Env()
        for k, job in enumerate(pool(env, workdir)):
            problems, text = job.verdict(job.run())
            got = run.digest(text)
            if digests.setdefault(job.key, got) != got:
                problems.append("digest differs from another job of its key")
            if problems:
                bad.append((job.label, problems))
            if k % 200 == 0:
                sys.stderr.write("%d jobs, %d keys\n" % (k, len(digests)))
    finally:
        shutil.rmtree(workdir)
    for label, problems in bad:
        sys.stderr.write("FAILED %s: %s\n" % (label, "; ".join(problems)))
    if bad:
        return 1
    with open(run.DIGESTS, "w") as fh:
        json.dump(digests, fh, indent=0, sort_keys=True)
        fh.write("\n")
    print("%d digests written to %s" % (len(digests), run.DIGESTS))
    return 0


if __name__ == "__main__":
    sys.exit(main())
