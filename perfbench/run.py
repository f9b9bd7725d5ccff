"""jetfactor benchmark: time to verdict on four workloads.

    python3 perfbench/run.py --workload equiv-deep --seed 1 --seconds 20 --trace 0

One client runs a closed loop: each job starts when the previous one has
returned, and every job ends in a verdict that is checked against a known
answer and a recorded SHA-256 digest of its serialized result.  Jobs run in
whole rounds of the workload's job list, as many as fit in --seconds (at
least one), each on a fresh import of jetfactor with its inputs rebuilt
from the seed.  Times are reported at reference speed (see end_to_end).

With --trace 0 the last line of standard output is a JSON object carrying
the end-to-end metrics.  With --trace 1 the same jobs run once untraced and
once traced (see tracer.py), and the object carries the per-layer metrics
and the tracing overhead instead.  The lines above it are a human summary.
See README.md for the workloads and metrics.
"""

import argparse
import gc
import hashlib
import json
import math
import os
import random
import resource
import shutil
import statistics
import sys
import time
from fractions import Fraction

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DIGESTS = os.path.join(HERE, "digests.json")
OUT = os.path.join(ROOT, ".perfbench")
SETUP_REPS = 5
TAIL_BEYOND = 10      # jobs a tail percentile must have beyond it
PROBE_EVERY_S = 0.4   # least time between two reference probes
REF_LOOPS = 50_000
REF_NOMINAL_S = 0.01  # reference probe time that defines "reference speed"


def digest(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def judge(job, result, error, digests):
    """Problems with one job's verdict; empty when it is correct."""
    if error is not None:
        return ["raised %s: %s" % (type(error).__name__, error)]
    try:
        problems, text = job.verdict(result)
    except Exception as exc:  # noqa: BLE001 - a broken result is a failure
        return ["verdict check raised %s: %s" % (type(exc).__name__, exc)]
    want = digests.get(job.key)
    if want is None:
        problems.append("no recorded digest for %s" % job.key)
    elif digest(text) != want:
        problems.append("result digest differs from the recorded one")
    return problems


def _probe_poly(rng):
    return {tuple(rng.randrange(4) for _ in range(5)):
            Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            for _ in range(40)}


_PROBE_A = _probe_poly(random.Random(1))
_PROBE_B = _probe_poly(random.Random(2))


def reference_probe():
    """Seconds taken by fixed pure-Python work that shares no code with
    jetfactor: an integer loop and a sparse polynomial product over
    Fractions.  Its time tracks how fast the machine runs right now; the
    two halves slow down differently under contention and together follow
    the jobs closely."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(REF_LOOPS):
        acc += i * i % 7
    out = {}
    for ma, ca in _PROBE_A.items():
        for mb, cb in _PROBE_B.items():
            m = tuple(x + y for x, y in zip(ma, mb))
            out[m] = out.get(m, 0) + ca * cb
    return time.perf_counter() - t0


def run_job(job, digests, tracer=None, job_id=0):
    """(seconds to verdict, problems) for one job."""
    result, error = None, None
    t0 = time.perf_counter()
    try:
        if tracer is None:
            result = job.run()
        else:
            result = tracer.job(job_id, job.label, job.run)
    except Exception as exc:  # noqa: BLE001 - a raising job is a failure
        error = exc
    dt = time.perf_counter() - t0
    return dt, judge(job, result, error, digests)


def run_rounds(jobs, remake, digests, seconds=None, rounds=None, tracer=None):
    """Whole rounds of a job list: exactly `rounds` of them, or as many as
    fit in `seconds` (at least one), judging each job's verdict.

    `jobs` is the first round's list.  Each later round runs a new one from
    remake(), built outside the timing: a fresh import of jetfactor and
    inputs rebuilt from the same seed, so that no cache inside the package
    carries results from one round into the next.  A `tracer` is installed
    on each round's modules for the length of the round.

    Returns [label, seconds, problems, probe seconds] per job, and the
    number of rounds.  A reference probe runs (untimed) before each round
    and between jobs once PROBE_EVERY_S has passed since the last one, and
    each job gets the mean of the probes before and after it."""
    records = []
    waiting = []
    before = [None]
    start = time.perf_counter()
    done = 0
    while True:
        if done:
            jobs = remake()
            gc.collect()
        before[0] = reference_probe()
        last_probe = time.perf_counter()
        if tracer is not None:
            tracer.install()
        try:
            for job in jobs:
                dt, problems = run_job(job, digests, tracer, len(records))
                records.append([job.label, dt, problems, None])
                waiting.append(records[-1])
                if time.perf_counter() - last_probe >= PROBE_EVERY_S:
                    _assign_probe(waiting, before)
                    last_probe = time.perf_counter()
        finally:
            if tracer is not None:
                tracer.uninstall()
        if waiting:
            _assign_probe(waiting, before)
        done += 1
        elapsed = time.perf_counter() - start
        if rounds is not None:
            if done >= rounds:
                break
        elif elapsed + elapsed / done > seconds:
            break
    return records, done


def _assign_probe(waiting, before):
    """Give each waiting job the mean of before[0] and a new probe, which
    then becomes before[0]."""
    after = reference_probe()
    for rec in waiting:
        rec[3] = (before[0] + after) / 2
    waiting.clear()
    before[0] = after


def setup(workload, seed):
    """Fresh import, fixtures, seeded inputs and documents, SETUP_REPS
    times, each followed by a reference probe; returns the last job list,
    its document dir and (seconds, probe seconds) of each set-up."""
    times = []
    workdir = None
    for rep in range(SETUP_REPS):
        if workdir is not None:
            shutil.rmtree(workdir)
        workdir = os.path.join(OUT, "tmp-%d-%d" % (os.getpid(), rep))
        gc.collect()
        t0 = time.perf_counter()
        os.makedirs(workdir)
        try:
            env = workloads.Env()
            jobs = workloads.WORKLOADS[workload](env, random.Random(seed),
                                                 workdir)
        except BaseException:
            shutil.rmtree(workdir, ignore_errors=True)
            raise
        times.append((time.perf_counter() - t0, reference_probe()))
    return jobs, workdir, times


def tail(durations, round_size):
    """(percentile, value, jobs beyond it) for the highest whole percentile
    of one round of the job list that has at least TAIL_BEYOND jobs above
    it, taken over every job of the run.  None when that percentile would
    not lie above the median: a tail needs 2 * TAIL_BEYOND + 1 jobs a round.

    The percentile depends on the job list only, not on how many rounds
    fitted in the run, so a faster program is compared at the same one."""
    if round_size <= 2 * TAIL_BEYOND:
        return None
    pct = math.floor(100 * (round_size - TAIL_BEYOND) / round_size)
    ordered = sorted(durations)
    rank = max(1, math.ceil(pct * len(ordered) / 100))   # nearest rank
    return pct, ordered[rank - 1], len(ordered) - rank


def end_to_end(records, round_size, setups):
    """The gated end-to-end metrics, and the reported-only ones.

    Each time is scaled to reference speed: multiplied by REF_NOMINAL_S
    over the reference probe time around it (see run_rounds), so that a
    machine running slower for a while (a shared host) does not read as a
    slower program.  The raw wall-clock figures, the tail (absent on a
    short job list) and the failed share (0 when correct) are reported,
    not gated."""
    raw = [dt for _, dt, _, _ in records]
    scaled = [dt * REF_NOMINAL_S / p for _, dt, _, p in records]
    correct = sum(1 for _, _, problems, _ in records if not problems)
    probes = [p for _, _, _, p in records] + [p for _, p in setups]
    metrics = {
        "setup_s": (statistics.median(t * REF_NOMINAL_S / p
                                      for t, p in setups), "s"),
        "verdicts_per_s": (correct / sum(scaled), "1/s"),
        "verdict_p50_s": (statistics.median(scaled), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
    }
    reported = {
        "failed_share": ((len(records) - correct) / len(records), "share"),
        "wall.setup_s": (statistics.median(t for t, _ in setups), "s"),
        "wall.verdicts_per_s": (correct / sum(raw), "1/s"),
        "wall.verdict_p50_s": (statistics.median(raw), "s"),
        "reference_probe_s": (statistics.median(probes), "s"),
    }
    notes = {"jobs": len(records), "jobs_per_round": round_size,
             "setup_samples": len(setups)}
    for name, times in (("verdict_tail_s", scaled),
                        ("wall.verdict_tail_s", raw)):
        t = tail(times, round_size)
        if t is None:
            notes[name] = "absent (%d jobs a round)" % round_size
        else:
            reported[name] = (t[1], "s")
            notes["tail_percentile"], notes["tail_jobs_beyond"] = t[0], t[2]
    return metrics, reported, notes


def per_layer(tracer, untraced, traced):
    """The tracer's metrics, and the tracing overhead from job times scaled
    to reference speed, as in end_to_end."""
    busy_u = sum(dt * REF_NOMINAL_S / p for _, dt, _, p in untraced)
    busy_t = sum(dt * REF_NOMINAL_S / p for _, dt, _, p in traced)
    ok_t = sum(1 for _, _, p, _ in traced if not p)
    ok_u = sum(1 for _, _, p, _ in untraced if not p)
    metrics = {k: (v["value"], v["unit"]) for k, v in tracer.metrics().items()}
    metrics["trace.overhead_ratio"] = (busy_t / busy_u, "ratio")
    metrics["trace.verdicts_per_s"] = (ok_t / busy_t, "1/s")
    metrics["trace.untraced_verdicts_per_s"] = (ok_u / busy_u, "1/s")
    return metrics


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "jetfactor", "__init__.py")):
        sys.stderr.write("perfbench: no jetfactor sources under %s\n" % src)
        return 2
    if not os.path.isfile(DIGESTS):
        sys.stderr.write("perfbench: missing %s\n" % DIGESTS)
        return 2
    sys.path.insert(0, src)
    with open(DIGESTS) as fh:
        digests = json.load(fh)

    jobs, workdir, setups = setup(a.workload, a.seed)

    def remake():
        return workloads.WORKLOADS[a.workload](
            workloads.Env(), random.Random(a.seed), workdir)

    try:
        gc.collect()   # outside the timed phase, like the set-up
        if a.trace:
            import tracer as tracing
            untraced, rounds = run_rounds(jobs, remake, digests,
                                          seconds=a.seconds / 3)
            tr = tracing.Tracer()
            traced, _ = run_rounds(remake(), remake, digests, rounds=rounds,
                                   tracer=tr)
            records = untraced + traced
            metrics = per_layer(tr, untraced, traced)
            spans = os.path.join(OUT, "spans-%s-seed%d.jsonl"
                                 % (a.workload, a.seed))
            tr.write_spans(spans)
            reported = {}
            notes = {"rounds": rounds, "spans": len(tr.spans),
                     "spans_dropped": tr.dropped, "spans_file": spans,
                     "missing_targets": ",".join(tr.missing) or "none"}
        else:
            records, rounds = run_rounds(jobs, remake, digests,
                                         seconds=a.seconds)
            metrics, reported, notes = end_to_end(records, len(jobs), setups)
            notes["rounds"] = rounds
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = [(label, p) for label, _, p, _ in records if p]
    for label, problems in failed[:10]:
        sys.stderr.write("perfbench: FAILED %s: %s\n"
                         % (label, "; ".join(problems)))
    print("workload %s seed %d trace %d: %s"
          % (a.workload, a.seed, a.trace,
             ", ".join("%s=%s" % kv for kv in sorted(notes.items()))))
    for name, (value, unit) in sorted(metrics.items()):
        print("  %-40s %14.6g %s" % (name, value, unit))
    for name, (value, unit) in sorted(reported.items()):
        print("  %-40s %14.6g %s (reported, not gated)" % (name, value, unit))
    print(json.dumps({
        "correct": not failed,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
