"""Outside-in tracing of jetfactor's layers.

The tracer wraps public functions of each module from outside the package:
module-level names are replaced in every loaded ``jetfactor`` module that
bound them (modules use ``from .x import y``, so each binding is patched
where it is looked up), methods are replaced on their class.  Each wrapped
call opens a span; spans carry name, start, end, parent span and job id.

A metric key counts outermost calls only: a call made while a call with the
same key is already open (recursive ``poly_gcd``, ``parse_document`` calling
``parse_system``) runs unwrapped and its time stays in the outer span.
Self time is a span's duration minus the time of the spans directly inside
it.  Kernel targets (the ``ratfn`` layer) are aggregated without keeping a
span record each, because they are called millions of times.
"""

import json
import sys
import time

_RAISED = object()
MAX_SPANS = 300_000   # span records kept in memory; later ones are counted

# (module, attribute, metric key, keep span records, counter hook name)
TARGETS = [
    ("ratfn", "poly_gcd", "ratfn.poly_gcd", False, "gcd"),
    ("ratfn", "p_mul", "ratfn.p_mul", False, "mul"),
    ("ratfn", "RatFn.substitute", "ratfn.substitute", False, None),
    ("ratfn", "RatFn.diff", "ratfn.diff", False, None),
    ("jets", "ControlSystem.D", "jets.D", True, None),
    ("jets", "lie_bracket", "jets.lie_bracket", True, "bracket"),
    ("jets", "generic_rank", "jets.generic_rank", True, None),
    ("coframes", "exterior_d", "coframes.exterior_d", True, None),
    ("coframes", "Coframe.__init__", "coframes.Coframe", True, None),
    ("equivalence", "verify_pair", "equivalence.verify_pair", True, None),
    ("equivalence", "pullback_matrix", "equivalence.pullback_matrix", True,
     None),
    ("equivalence", "block_rank", "equivalence.block_rank", True, None),
    ("factorize", "factor_JK0", "factorize.factor_JK0", True, "factor"),
    ("factorize", "check_gnice", "factorize.check_gnice", True, None),
    ("classify", "classify_static", "classify.classify_static", True, None),
    ("classify", "static_invariants", "classify.static_invariants", True,
     None),
    ("sysio", "parse_system", "sysio.parse", True, "parse"),
    ("sysio", "parse_map", "sysio.parse", True, "parse"),
    ("sysio", "parse_document", "sysio.parse", True, "parse"),
    ("sysio", "serialize", "sysio.serialize", True, "serialized"),
    ("sysio", "serialize_report", "sysio.serialize", True, "serialized"),
    ("cli", "main", "cli.main", True, "cli"),
    ("cli", "numeric_crosscheck", "cli.numeric_crosscheck", True, None),
]

SUITES = ["field_laws", "leibniz", "substitution_homomorphism",
          "d_squared_zero", "canonical_idempotence"]
TARGETS += [("_suites", fn, "suites." + fn, True, None) for fn in SUITES]

CLI_COMMANDS = ["verify", "pullback", "factor", "classify", "crosscheck"]

# stat field -> (unit, index into (calls, s, self_s))
_STAT = {"calls": ("count", 0), "s": ("s", 1), "self_s": ("s", 2)}


def _metric_plan():
    """[(metric name, unit, metric key, how to compute it)]; lower is
    better for every one of them."""
    plan = []

    def stats(key, *fields):
        for f in fields:
            plan.append(("%s.%s" % (key, f), _STAT[f][0], key,
                         ("stat", _STAT[f][1])))

    def extra(name, unit, key, how):
        plan.append((name, unit, key, how))

    stats("ratfn.poly_gcd", "calls", "s", "self_s")
    extra("ratfn.poly_gcd.trivial_share", "share", "ratfn.poly_gcd",
          ("share", "trivial"))
    stats("ratfn.p_mul", "calls", "self_s")
    extra("ratfn.p_mul.term_products", "count", "ratfn.p_mul",
          ("counter", "term_products"))
    stats("ratfn.substitute", "calls", "s")
    stats("ratfn.diff", "calls", "s")
    stats("jets.D", "calls", "s", "self_s")
    stats("jets.lie_bracket", "calls", "s", "self_s")
    extra("jets.lie_bracket.zero_share", "share", "jets.lie_bracket",
          ("share", "zero"))
    stats("jets.generic_rank", "calls", "s", "self_s")
    stats("coframes.exterior_d", "calls", "s", "self_s")
    stats("coframes.Coframe", "calls", "s")
    stats("equivalence.verify_pair", "calls", "s", "self_s")
    stats("equivalence.pullback_matrix", "calls", "s", "self_s")
    stats("equivalence.block_rank", "calls", "s")
    stats("factorize.factor_JK0", "calls", "s", "self_s")
    extra("factorize.factor_JK0.assumptions", "count", "factorize.factor_JK0",
          ("counter", "assumptions"))
    stats("factorize.check_gnice", "calls", "s")
    stats("classify.classify_static", "calls", "s", "self_s")
    stats("classify.static_invariants", "calls", "s", "self_s")
    stats("sysio.parse", "calls", "s")
    extra("sysio.parse.bytes", "bytes", "sysio.parse", ("counter", "bytes"))
    stats("sysio.serialize", "calls", "s")
    extra("sysio.serialize.bytes", "bytes", "sysio.serialize",
          ("counter", "bytes"))
    stats("cli.main", "calls", "s", "self_s")
    for cmd in CLI_COMMANDS:
        extra("cli.main.%s.s" % cmd, "s", "cli.main", ("counter", cmd + ".s"))
    stats("cli.numeric_crosscheck", "calls", "s")
    extra("cli.exit_nonzero", "count", "cli.main", ("counter", "exit_nonzero"))
    for fn in SUITES:
        stats("suites." + fn, "calls", "s")
    return plan


METRIC_PLAN = _metric_plan()


class _Stat:
    __slots__ = ("calls", "s", "self_s", "counters")

    def __init__(self):
        self.calls = 0
        self.s = 0.0
        self.self_s = 0.0
        self.counters = {}

    def bump(self, name, by=1):
        self.counters[name] = self.counters.get(name, 0) + by


def _hook_gcd(st, args, kwargs, result, dur):
    if result == {(): 1}:
        st.bump("trivial")


def _hook_mul(st, args, kwargs, result, dur):
    st.bump("term_products", len(args[0]) * len(args[1]))


def _hook_bracket(st, args, kwargs, result, dur):
    if result.is_zero():
        st.bump("zero")


def _hook_factor(st, args, kwargs, result, dur):
    st.bump("assumptions", len(result.assumptions))


def _hook_parse(st, args, kwargs, result, dur):
    text = args[0] if args else kwargs.get("text", "")
    st.bump("bytes", len(text))


def _hook_serialized(st, args, kwargs, result, dur):
    st.bump("bytes", len(result))


def _hook_cli(st, args, kwargs, result, dur):
    argv = args[0] if args else kwargs.get("argv")
    if argv:
        st.bump(str(argv[0]) + ".s", dur)
    if result != 0:
        st.bump("exit_nonzero")


_HOOKS = {"gcd": _hook_gcd, "mul": _hook_mul, "bracket": _hook_bracket,
          "factor": _hook_factor, "parse": _hook_parse,
          "serialized": _hook_serialized, "cli": _hook_cli}


def _resolve(owner, dotted):
    """(holder, attribute, object) for 'name' or 'Class.name' on a module."""
    holder = owner
    parts = dotted.split(".")
    for part in parts[:-1]:
        holder = getattr(holder, part)
    return holder, parts[-1], getattr(holder, parts[-1])


class Tracer:
    """Patches the targets on install(); records while enabled."""

    def __init__(self):
        self.enabled = False
        self.stats = {}
        self.missing = []     # metric keys whose patch target is gone
        self.spans = []       # (id, name, start, end, parent, job)
        self.dropped = 0
        self._stack = []      # frames: [child time, span id for children]
        self._open = set()    # metric keys with an open outermost call
        self._job = None
        self._next_id = 0
        self._undo = []

    # -- patching ----------------------------------------------------------

    def install(self):
        """Patch every target in the loaded jetfactor modules.  A target
        that is gone leaves its metric key absent, with a warning.  After
        uninstall() it may be called again, on a fresh import; the counts
        carry on."""
        mods = {name: mod for name, mod in sys.modules.items()
                if mod is not None
                and (name == "jetfactor" or name.startswith("jetfactor."))}
        for modname, attr, key, keep, hook in TARGETS:
            self.stats.setdefault(key, _Stat())
            try:
                holder, name, fn = _resolve(mods["jetfactor." + modname],
                                            attr)
            except (KeyError, AttributeError):
                if key not in self.missing:
                    self.missing.append(key)
                    sys.stderr.write("perfbench: trace target %s.%s is gone; "
                                     "metrics of %s are absent\n"
                                     % (modname, attr, key))
                continue
            wrapped = self._wrap(key, "%s.%s" % (modname, attr), fn, keep,
                                 _HOOKS.get(hook))
            if holder in mods.values():
                # every module that bound the same function object
                for mod in mods.values():
                    if mod.__dict__.get(name) is fn:
                        self._undo.append((mod, name, fn))
                        setattr(mod, name, wrapped)
            else:
                self._undo.append((holder, name, fn))
                setattr(holder, name, wrapped)

    def uninstall(self):
        while self._undo:
            holder, name, fn = self._undo.pop()
            setattr(holder, name, fn)

    def _wrap(self, key, span_name, fn, keep, hook):
        tr = self
        st = self.stats[key]
        perf = time.perf_counter

        def traced(*args, **kwargs):
            if not tr.enabled or key in tr._open:
                return fn(*args, **kwargs)
            stack = tr._stack
            parent = stack[-1] if stack else None
            parent_id = parent[1] if parent is not None else None
            if keep:
                span_id = tr._next_id
                tr._next_id += 1
            else:
                span_id = parent_id
            frame = [0.0, span_id]
            stack.append(frame)
            tr._open.add(key)
            result = _RAISED
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = perf()
                stack.pop()
                tr._open.discard(key)
                dur = t1 - t0
                if parent is not None:
                    parent[0] += dur
                st.calls += 1
                st.s += dur
                st.self_s += dur - frame[0]
                if hook is not None and result is not _RAISED:
                    hook(st, args, kwargs, result, dur)
                if keep:
                    tr._record(span_id, span_name, t0, t1, parent_id)

        traced.__wrapped__ = fn
        return traced

    def _record(self, span_id, name, t0, t1, parent_id):
        if len(self.spans) < MAX_SPANS:
            self.spans.append((span_id, name, t0, t1, parent_id, self._job))
        else:
            self.dropped += 1

    # -- jobs ----------------------------------------------------------------

    def job(self, job_id, label, fn):
        """Run fn() as the root span of one job, with recording on."""
        self._job = job_id
        span_id = self._next_id
        self._next_id += 1
        self._stack.append([0.0, span_id])
        self.enabled = True
        t0 = time.perf_counter()
        try:
            return fn()
        finally:
            t1 = time.perf_counter()
            self.enabled = False
            self._stack.pop()
            self._record(span_id, "job:" + label, t0, t1, None)
            self._job = None

    # -- output ----------------------------------------------------------------

    def metrics(self):
        """Per-layer metrics; a metric whose target is gone is left out."""
        out = {}
        for name, unit, key, how in METRIC_PLAN:
            if key in self.missing:
                continue
            st = self.stats[key]
            if how[0] == "stat":
                value = (st.calls, st.s, st.self_s)[how[1]]
            elif how[0] == "share":
                value = st.counters.get(how[1], 0) / st.calls if st.calls else 0.0
            else:
                value = st.counters.get(how[1], 0)
            out[name] = {"value": value, "unit": unit}
        return out

    def write_spans(self, path):
        with open(path, "w") as fh:
            for span_id, name, t0, t1, parent, job in self.spans:
                fh.write(json.dumps({"id": span_id, "name": name,
                                     "start": t0, "end": t1,
                                     "parent": parent, "job": job}) + "\n")
