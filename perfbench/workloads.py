"""Job lists of the four workloads and the known answers their verdicts
are checked against.

A job is one call into jetfactor that ends in a verdict.  ``run`` is the
timed part; ``verdict`` turns its result into a list of problems (empty when
the known answer holds) and the text whose SHA-256 is compared with the
digest recorded for the job's ``key`` in ``digests.json``.

Every workload draws its inputs from a fixed pool with the workload seed,
so the digest of every job a seed can produce is recorded, and every pool
entry was checked once when the digests were made (``make_digests.py``).
"""

import contextlib
import importlib
import io
import json
import os
import sys

N_DEEP = (6, 8)              # equiv-deep truncation levels
STRICT = ("phi", "psi", "theta")
NARROW = {"phi": True, "psi": True, "theta": False}   # theta: recorded raw
TRANSFORM_POOL = 64          # seeded transforms per normal form
CLASSIFY_PER_FORM = 32       # moved systems per form in one classify round
CLI_POOL = 16                # transform seeds per form and kind in cli-batch
CLI_PER_KIND = 4             # transforms per form and kind in one cli round
CLI_DEEP_FORMS = (3, 4)      # forms whose moved maps verify in 0.4-3.6 s
CLI_FIXTURES = ("phi", "psi", "theta", "dec")
SUITE_POOL = 256             # property-suite seeds
SUITE_SEEDS = 64             # seeds per suite in one kernel-suites round
SUITE_COUNT = 5              # cases per suite call

# the known answer for each Elkin normal form, in elkin_forms_32() order
FORM_CLASSES = [("u1, u2, 0", "Class2"), ("u1, u2, 1", "Class3"),
                ("u1, u2, x2", "Class1"), ("u1, u2, x2*u1", "Class1"),
                ("u1, u2, 1+x2*u1", "Class1")]


class Job:
    __slots__ = ("key", "label", "run", "verdict")

    def __init__(self, key, label, run, verdict):
        self.key = key
        self.label = label
        self.run = run
        self.verdict = verdict


class Env:
    """A fresh import of the jetfactor modules the jobs call into.

    Jobs look functions up on these modules when they run, so the tracer's
    patches apply to them.
    """

    def __init__(self):
        for name in [m for m in sys.modules
                     if m == "jetfactor" or m.startswith("jetfactor.")]:
            del sys.modules[name]
        self.jf = importlib.import_module("jetfactor")
        self.cli = importlib.import_module("jetfactor.cli")
        self.suites = importlib.import_module("jetfactor._suites")
        self.errors = importlib.import_module("jetfactor.errors")
        self.fixtures = {f.name: (f, i) for f, i in self.jf.builtin_fixtures()}
        self.forms = self.jf.elkin_forms_32()


def _dt_column_clean(A):
    return all(not (c == (-1, 1) and r != (-1, 1)) for (r, c) in A.entries)


# ---------------------------------------------------------------------------
# equiv-deep: verify_pair, pullback_matrix, factor_JK0 (+ block_rank)

def verify_job(env, name, N, fwd=None):
    """verify_pair of fixture `name` (or of `fwd` against its inverse)."""
    fwd0, inv = env.fixtures[name]
    fwd = fwd or fwd0

    def run():
        return env.jf.verify_pair(fwd, inv, N=N)

    def verdict(rep):
        problems = []
        if not rep.ok:
            problems.append("verification fails")
        if (rep.detected_J, rep.detected_K) != (0, 0):
            problems.append("J=%d K=%d, want 0 0"
                            % (rep.detected_J, rep.detected_K))
        return problems, env.jf.serialize(rep)

    return Job("equiv-deep/verify/%s/N%d" % (name, N),
               "verify:%s:N%d" % (name, N), run, verdict)


def pullback_job(env, name, N, shared):
    fwd = env.fixtures[name][0]

    def run():
        A = env.jf.pullback_matrix(fwd, N=N)
        shared[(name, N)] = A
        return A

    def verdict(A):
        problems = [] if _dt_column_clean(A) else ["dt-column not clean"]
        return problems, env.jf.serialize(A)

    return Job("equiv-deep/pullback/%s/N%d" % (name, N),
               "pullback:%s:N%d" % (name, N), run, verdict)


def factor_job(env, name, N, shared):
    def run():
        A = shared.pop((name, N))
        fac = env.jf.factor_JK0(A)
        ranks = (env.jf.block_rank(A, 0, 1), env.jf.block_rank(A, 1, 2))
        try:
            env.jf.check_gnice(fac.G)
            narrow = True
        except env.errors.PatternViolation:
            narrow = False
        return fac, fac.matches(A), ranks, narrow

    def verdict(result):
        fac, matches, ranks, narrow = result
        problems = []
        if not matches:
            problems.append("g*S*G does not reconstruct A")
        if ranks != (1, 1):
            problems.append("block ranks %r, want (1, 1)" % (ranks,))
        if narrow != NARROW[name]:
            problems.append("narrowable=%s, want %s" % (narrow, NARROW[name]))
        return problems, env.jf.serialize(fac)

    return Job("equiv-deep/factor/%s/N%d" % (name, N),
               "factor:%s:N%d" % (name, N), run, verdict)


def equiv_deep(env, rng, workdir):
    """One round: every strict fixture verified at N=6 and theta at N=8,
    and every strict fixture pulled back and factored at N=6 and N=8.
    verify_pair of phi and psi at N=8 (13-21 s each) is left out of the
    round; see README.md."""
    shared = {}
    jobs = []
    for N in N_DEEP:
        for name in STRICT:
            if N == 6 or name == "theta":
                jobs.append(verify_job(env, name, N))
            jobs.append(pullback_job(env, name, N, shared))
            jobs.append(factor_job(env, name, N, shared))
    rng.shuffle(jobs)
    # a factor job consumes the matrix of the same round's pullback job
    pos = {job.key: k for k, job in enumerate(jobs)}
    for job in list(jobs):
        if "/factor/" in job.key:
            k = pos[job.key]
            j = pos[job.key.replace("/factor/", "/pullback/")]
            if k < j:
                jobs[k], jobs[j] = jobs[j], jobs[k]
                pos[jobs[k].key], pos[jobs[j].key] = k, j
    return jobs


# ---------------------------------------------------------------------------
# classify-sweep: classify_static on moved normal forms

def classify_job(env, form, tseed, want=None):
    """Classify normal form `form` moved by static transform `tseed`; the
    known answer `want` (tag, dynamic class) defaults to the form's own."""
    moved = env.jf.random_static_transform(env.forms[form], tseed)[2]
    want_tag, want_dyn = want or FORM_CLASSES[form]

    def run():
        c = env.jf.classify_static(moved)
        return c, env.jf.dynamic_class(c)

    def verdict(result):
        c, dyn = result
        problems = []
        if c.tag != want_tag:
            problems.append("tag %r, want %r" % (c.tag, want_tag))
        if dyn.name != want_dyn:
            problems.append("dynamic %s, want %s" % (dyn.name, want_dyn))
        text = env.jf.serialize_report("classification", [
            ("states", c.n), ("rank", c.s), ("tag", c.tag),
            ("dynamic", dyn.name)])
        return problems, text

    return Job("classify-sweep/form%d" % form,
               "classify:form%d:t%d" % (form, tseed), run, verdict)


def classify_sweep(env, rng, workdir):
    jobs = []
    for form in range(len(env.forms)):
        for tseed in rng.sample(range(TRANSFORM_POOL), CLASSIFY_PER_FORM):
            jobs.append(classify_job(env, form, tseed))
    rng.shuffle(jobs)
    return jobs


# ---------------------------------------------------------------------------
# cli-batch: in-process jetfactor.cli.main with --format machine

TRANSFORMS = ("static", "nonaut")


def fixture_inputs(env):
    """(input id, form or None, forward map, inverse map) of a fixture."""
    return [(name, None, *env.fixtures[name]) for name in CLI_FIXTURES]


def cli_input(env, form, kind, tseed):
    """(input id, form, forward map, inverse map) of a moved normal form."""
    make = {"static": env.jf.random_static_transform,
            "nonaut": env.jf.random_nonaut_static_pair}[kind]
    fwd, inv, _ = make(env.forms[form], tseed)
    return "form%d-%s%d" % (form, kind, tseed), form, fwd, inv


def cli_inputs(env, rng):
    """The built-in fixtures plus CLI_PER_KIND seeded static and as many
    nonautonomous transforms of every normal form."""
    out = fixture_inputs(env)
    for form in range(len(env.forms)):
        for kind in TRANSFORMS:
            for tseed in rng.sample(range(CLI_POOL), CLI_PER_KIND):
                out.append(cli_input(env, form, kind, tseed))
    return out


def write_documents(env, inputs, workdir):
    """Serialize every input to files; {input id: {role: path}}."""
    paths = {}
    for ident, _form, fwd, inv in inputs:
        files = {}
        for role, obj in (("src", fwd.src), ("tgt", fwd.tgt), ("map", fwd),
                          ("inv", inv)):
            path = os.path.join(workdir, "%s.%s" % (ident, role))
            with open(path, "w") as fh:
                fh.write(env.jf.serialize(obj))
            files[role] = path
        paths[ident] = files
    return paths


def cli_argv(cmd, files):
    if cmd == "classify":
        args = ["--sys", files["tgt"]]
    else:
        args = ["--src", files["src"], "--tgt", files["tgt"],
                "--map", files["map"]]
        if cmd == "verify":
            args += ["--inv", files["inv"]]
    return [cmd] + args + ["--format", "machine"]


def cli_job(env, ident, cmd, files):
    argv = cli_argv(cmd, files)
    docdir = os.path.dirname(files["src"])

    def run():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = env.cli.main(argv)
        return rc, out.getvalue(), err.getvalue()

    def verdict(result):
        rc, out, err = result
        problems = []
        if rc != 0:
            problems.append("exit %d: %s" % (rc, err.strip()[:200]))
        try:
            env.jf.parse_document(out)
        except env.errors.JetError as exc:
            problems.append("output does not re-parse: %s" % exc)
        # reports name the map by its path; digest it without the temp dir
        return problems, out.replace(docdir + os.sep, "")

    return Job("cli-batch/%s/%s" % (cmd, ident), "cli:%s:%s" % (cmd, ident),
               run, verdict)


def cli_commands(form):
    """Factor needs a strict (J = K = 0) map: fixtures only.  Verifying a
    moved x2*u1 or 1+x2*u1 form is deep work with a seed-dependent cost
    (0.4-3.6 s at N = 4), not the shallow per-call path this workload
    measures, so those maps are pulled back, crosschecked and classified
    but not verified."""
    if form is None:
        return ["verify", "pullback", "factor", "crosscheck", "classify"]
    if form in CLI_DEEP_FORMS:
        return ["pullback", "crosscheck", "classify"]
    return ["verify", "pullback", "crosscheck", "classify"]


def cli_batch(env, rng, workdir):
    inputs = cli_inputs(env, rng)
    paths = write_documents(env, inputs, workdir)
    jobs = [cli_job(env, ident, cmd, paths[ident])
            for ident, form, _, _ in inputs for cmd in cli_commands(form)]
    rng.shuffle(jobs)
    return jobs


# ---------------------------------------------------------------------------
# kernel-suites: the five property suites, called one by one

def suite_job(env, fname, seed):
    def run():
        return getattr(env.suites, fname)(count=SUITE_COUNT, seed=seed)

    def verdict(failures):
        problems = ["%s: %s" % (fname, f) for f in failures[:3]]
        return problems, json.dumps(failures)

    return Job("kernel-suites/%s" % fname, "suite:%s:%d" % (fname, seed),
               run, verdict)


def kernel_suites(env, rng, workdir):
    jobs = []
    for _label, fn in env.suites.ALL_SUITES:
        for seed in rng.sample(range(SUITE_POOL), SUITE_SEEDS):
            jobs.append(suite_job(env, fn.__name__, seed))
    rng.shuffle(jobs)
    return jobs


WORKLOADS = {
    "equiv-deep": equiv_deep,
    "classify-sweep": classify_sweep,
    "cli-batch": cli_batch,
    "kernel-suites": kernel_suites,
}
