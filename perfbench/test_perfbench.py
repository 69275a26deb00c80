"""Self-tests of the benchmark.  Run from the repository root:

    python3 -m pytest perfbench -q
"""

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import harness  # noqa: E402
import tracing  # noqa: E402
from budgetmech import cli, xos  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _benchmark_spec():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        return json.load(fh)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_toy_workload_passes_its_checks(name, trace, tmp_path):
    result = harness.run_workload(name, seed=3, seconds=0, trace=trace, toy=True,
                                  workdir=str(tmp_path))
    assert result["attempted"] > 0
    assert result["failed"] == 0, result["first_error"]
    spec = _benchmark_spec()
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


def test_workload_names_match_benchmark_json():
    assert sorted(w["name"] for w in _benchmark_spec()["workloads"]) == sorted(WORKLOADS)


def test_self_time_of_nested_spans():
    tracer = tracing.Tracer()
    # root [0, 100] holds a [10, 40] and b [50, 90]; a holds c [15, 25]
    for name, parent, start, end in (("root", -1, 0, 100), ("a", 0, 10, 40),
                                     ("c", 1, 15, 25), ("b", 0, 50, 90)):
        tracer.name.append(len(tracer.names))
        tracer.names.append(name)
        tracer.parent.append(parent)
        tracer.start.append(start)
        tracer.end.append(end)
    assert list(tracer.self_times()) == [30, 20, 10, 40]


def test_wrappers_record_nesting_and_raised():
    tracer = tracing.Tracer()

    def inner():
        raise ValueError("boom")

    traced_inner = tracer.wrap("oracle.inner", inner)
    traced_outer = tracer.wrap("verify.outer", lambda: traced_inner())
    with pytest.raises(ValueError):
        traced_outer()
    assert [tracer.names[n] for n in tracer.name] == ["verify.outer", "oracle.inner"]
    assert list(tracer.parent) == [-1, 0]
    assert tracer.counters["oracle.raised"] == 1
    assert tracer.counters["verify.raised"] == 1


def test_install_and_uninstall_restore_every_site():
    before = [getattr(tracing._resolve(t), a) for _, t, a, _ in tracing.SITES]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert all(getattr(tracing._resolve(t), a) is not f
                   for (_, t, a, _), f in zip(tracing.SITES, before))
    finally:
        tracer.uninstall()
    assert [getattr(tracing._resolve(t), a) for _, t, a, _ in tracing.SITES] == before


def _tamper_once(monkeypatch, owner, attr, alter):
    """Replaces ``owner.attr`` so that the first result with a payment is
    returned with that payment altered, and every other result unchanged."""
    original = getattr(owner, attr)
    done = []

    def tampered(*args, **kwargs):
        result = original(*args, **kwargs)
        if done or not _payments(result):
            return result
        done.append(1)
        return alter(result)

    monkeypatch.setattr(owner, attr, tampered)


def _payments(result):
    return result["payments"] if isinstance(result, dict) else result.payments


def test_tampered_run_payment_is_counted(monkeypatch, tmp_path):
    def alter(doc):
        first = sorted(doc["payments"])[0]
        doc["payments"][first] += "1"
        return doc

    # the warm-up op's output is never checked, so it must not take the tamper
    monkeypatch.setattr(harness, "set_up", _set_up_without_warm_up)
    _tamper_once(monkeypatch, cli, "outcome_to_json", alter)
    result = harness.run_workload("run-large", seed=3, seconds=0, trace=0, toy=True,
                                  workdir=str(tmp_path))
    assert result["failed"] == 1


def test_tampered_xos_payment_is_counted(monkeypatch, tmp_path):
    def alter(outcome):
        first = sorted(outcome.payments)[0]
        payments = {**outcome.payments, first: outcome.payments[first] + 1}
        return xos.XosOutcome(**{**outcome.__dict__, "payments": payments})

    monkeypatch.setattr(harness, "set_up", _set_up_without_warm_up)
    _tamper_once(monkeypatch, xos, "xos_mechanism_main", alter)
    result = harness.run_workload("xos-sampling", seed=3, seconds=0, trace=0, toy=True,
                                  workdir=str(tmp_path))
    assert result["failed"] == 1


def test_changed_digest_is_counted(monkeypatch, tmp_path):
    ops = WORKLOADS["xos-sampling"](3, toy=True).setup(str(tmp_path))
    pinned = {op.key: op.check(op.run())[1] for op in ops}
    pinned[ops[5].key] = "0" * 16
    checker = harness.Checker(pinned, pinned=True)
    checker.one_pass(ops, [])
    assert (checker.attempted, checker.failed) == (len(ops), 1)


def test_op_without_pinned_digest_is_counted(tmp_path):
    ops = WORKLOADS["xos-sampling"](3, toy=True).setup(str(tmp_path))
    pinned = {op.key: op.check(op.run())[1] for op in ops}
    del pinned[ops[2].key]
    checker = harness.Checker(pinned, pinned=True)
    checker.one_pass(ops, [])
    assert checker.failed == 1


def test_pinned_digest_without_op_is_counted(tmp_path):
    first = harness.run_workload("xos-sampling", seed=3, seconds=0, trace=0, toy=True,
                                 workdir=str(tmp_path), expected={})
    assert first["failed"] == 0
    pinned = {**first["digests"], "xos i=99 coin=0": "0" * 16}
    result = harness.run_workload("xos-sampling", seed=3, seconds=0, trace=0, toy=True,
                                  workdir=str(tmp_path), expected=pinned)
    assert result["failed"] == 1


def test_harrell_davis_quantile():
    assert harness.hd_quantile([5.0] * 7, 0.5) == pytest.approx(5.0)
    assert harness.hd_quantile([1, 2, 3], 0.5) == pytest.approx(2.0)
    # symmetric around 50: the weights of the median are symmetric too
    assert harness.hd_quantile([0, 10, 40, 60, 90, 100], 0.5) == pytest.approx(50.0)
    values = list(range(1001))
    assert harness.hd_quantile(values, 0.9) == pytest.approx(900, abs=1)


def test_times_are_scaled_by_the_nearest_reference_slices():
    speed = harness.Speed()
    # the machine runs at nominal speed until t = 100, then at half speed
    speed.at = list(range(0, 200, 10))
    speed.ns = [harness.NOMINAL_REF_NS] * 10 + [2 * harness.NOMINAL_REF_NS] * 10
    assert speed.scaled([(25, 1000), (175, 1000)]) == [1000, 500]
    assert speed.factor() == 2 / 3


def test_source_missing_exits_nonzero(tmp_path, monkeypatch):
    import run

    monkeypatch.setattr(run, "SRC", str(tmp_path / "src"))
    assert run.main(["--workload", "run-large"]) == 2


def _set_up_without_warm_up(name, seed, toy, workdir):
    workload = WORKLOADS[name](seed, toy=toy)
    return workload, workload.setup(workdir)
