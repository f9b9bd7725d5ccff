"""Self-test of the benchmark's checker and tracer.

    python3 -m pytest -q perfbench/test_checker.py

Corrupted jobs must count as failed (so the checker is not vacuous), their
uncorrupted twins must pass, and a trace target that has gone away must
leave its metrics absent instead of crashing the traced run.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import pytest  # noqa: E402

import run  # noqa: E402
import tracer  # noqa: E402
import workloads as wl  # noqa: E402


@pytest.fixture(scope="module")
def env():
    return wl.Env()


@pytest.fixture(scope="module")
def digests():
    with open(run.DIGESTS) as fh:
        return json.load(fh)


def problems(job, digests):
    return run.run_job(job, digests)[1]


def test_phi_with_a_corrupted_control_fails(env, digests):
    good = env.fixtures["phi"][0]
    x1 = env.jf.RatFn.var(env.jf.X(1))
    bad = env.jf.EquivMap(good.src, good.tgt, good.y,
                          (good.v[0], good.v[1] + x1), name="phi")  # v2 = u2' + x1
    assert problems(wl.verify_job(env, "phi", 6), digests) == []
    assert problems(wl.verify_job(env, "phi", 6, fwd=bad), digests)


def test_classify_with_a_wrong_expected_tag_fails(env, digests):
    assert problems(wl.classify_job(env, 0, 5), digests) == []
    wrong = wl.classify_job(env, 0, 5, want=("u1, u2, 1", "Class3"))
    assert problems(wrong, digests)


def test_flipped_digest_fails(env, digests):
    # a pullback's digest covers every entry of its canonical matrix
    job = wl.pullback_job(env, "phi", 6, shared={})
    want = digests[job.key]
    flipped = dict(digests)
    flipped[job.key] = ("0" if want[0] != "0" else "1") + want[1:]
    assert problems(job, digests) == []
    assert problems(job, flipped) == ["result digest differs from the "
                                      "recorded one"]


def test_raising_job_fails(env, digests):
    # a factor job whose pullback never ran has no matrix to factor
    job = wl.factor_job(env, "theta", 6, shared={})
    assert problems(job, digests)[0].startswith("raised KeyError")


def test_missing_trace_target_is_absent_not_fatal(env):
    classify = sys.modules["jetfactor.classify"]
    saved = classify.static_invariants
    del classify.static_invariants
    tr = tracer.Tracer()
    try:
        tr.install()
        metrics = tr.metrics()
    finally:
        tr.uninstall()
        classify.static_invariants = saved
    assert "classify.static_invariants.calls" not in metrics
    assert "classify.classify_static.calls" in metrics
    assert env.jf.classify_static is not None
    assert not hasattr(env.jf.classify_static, "__wrapped__")


def test_later_rounds_run_on_a_fresh_import(env, digests):
    made = []

    def remake():
        made.append(wl.Env())
        return [wl.classify_job(made[-1], 0, 5)]

    tr = tracer.Tracer()
    records, rounds = run.run_rounds(remake(), remake, digests, rounds=2,
                                     tracer=tr)
    assert rounds == 2 and len(made) == 2
    assert made[0].jf is not made[1].jf
    assert [problems for _, _, problems, _ in records] == [[], []]
    assert all(p > 0 for _, _, _, p in records)
    # the tracer follows each round's import and keeps counting
    assert tr.metrics()["classify.classify_static.calls"]["value"] == 2
