"""Verification harness: generators, probes, reports, replay."""

import hashlib
import json
import random
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from budgetmech import (
    FreeMatroid,
    InputError,
    Instance,
    SchemaError,
    UniformMatroid,
    XosParams,
    first_price_greedy,
    intersection,
    utility,
    verify,
    xos,
)
from budgetmech.instance_io import instance_to_json, load_instance
from budgetmech.rationals import format_rational, mpq
from budgetmech.verify import (
    EPSILON,
    Failure,
    GeneratorConfig,
    VerificationReport,
    check_bid_independence,
    check_lemma1,
    check_outcome_invariants,
    check_ratio,
    check_truthfulness,
    check_xos_truthfulness,
    gen_bipartite_instance,
    gen_matroid_instance,
    gen_xos_instance,
    make_runner,
    ratio_denominator,
    replay_failure,
    run_verification,
    truthful_deviation_bids,
)
from conftest import RATIONALS


def test_epsilon_is_exact():
    assert EPSILON == mpq(1, 10**9)


@pytest.mark.parametrize("name, gen, denominator", [
    ("matroid", gen_matroid_instance, 4),
    ("intersection-exact", gen_bipartite_instance, 4),
    ("intersection-greedy", gen_bipartite_instance, 7),  # k = 2
], ids=["matroid", "intersection-exact", "intersection-greedy"])
def test_ratio_denominator_is_3_alpha_plus_1(name, gen, denominator):
    inst = gen(GeneratorConfig(count=1, seed=0), 0)
    assert ratio_denominator(name, inst) == denominator


def test_make_runner_rejects_an_unknown_mechanism():
    inst = gen_matroid_instance(GeneratorConfig(count=1, seed=0), 0)
    with pytest.raises(InputError) as err:
        make_runner("x", inst)
    assert str(err.value) == "unknown mechanism 'x'"


def test_ratio_denominator_rejects_uncertified_mechanism():
    inst = gen_matroid_instance(GeneratorConfig(count=1, seed=0), 0)
    with pytest.raises(InputError) as err:
        ratio_denominator("broken-first-price", inst)
    assert str(err.value) == "no certified ratio for mechanism 'broken-first-price'"


@pytest.mark.parametrize("mechanism", ["broken-first-price", "xos"])
def test_bid_independence_rejects_a_mechanism_without_a_threshold_trace(mechanism):
    inst = gen_matroid_instance(GeneratorConfig(count=1, seed=0), 0)
    with pytest.raises(InputError) as err:
        check_bid_independence(inst, first_price_greedy(inst), mechanism)
    assert str(err.value) == f"no bid-independence check for mechanism {mechanism!r}"


def test_bid_independence_recomputes_every_intersection_step():
    # tight budgets at n = 30 remove many elements outside the current set,
    # which the mechanism keeps without asking its blackbox again
    cfg = GeneratorConfig(count=4, seed=3, n_range=(30, 30), budget_regime="tight")
    for mechanism in ("intersection-exact", "intersection-greedy"):
        for index in range(4):
            inst = gen_bipartite_instance(cfg, index)
            out = make_runner(mechanism, inst)(inst)
            assert any(step.removed not in step.chosen for step in out.trace[:-1])
            assert check_bid_independence(inst, out, mechanism).passed


def test_a_runner_asks_its_blackbox_once_per_exclusion_set(monkeypatch):
    # get_blackbox reads the procedures when it runs, so the runners built
    # below ask these wrappers; check_bid_independence asks a fresh blackbox
    # on purpose, as a second route, and is not run here
    asked = []
    for name in ("exact_bipartite_matching", "greedy_common_independent"):
        procedure = getattr(intersection, name)

        def recording(spec, weights, excluded=frozenset(), procedure=procedure):
            asked.append((spec, frozenset(excluded)))
            return procedure(spec, weights, excluded)

        monkeypatch.setattr(intersection, name, recording)
    cfg = GeneratorConfig(count=3, seed=4, n_range=(4, 9))
    for mechanism in ("intersection-exact", "intersection-greedy"):
        for index in range(3):
            inst = gen_bipartite_instance(cfg, index)
            runner = make_runner(mechanism, inst)
            asked.clear()
            check_truthfulness(runner, inst, 12, seed=index, mechanism=mechanism)
            check_ratio(runner, inst, ratio_denominator(mechanism, inst), mechanism)
            assert asked and all(spec is inst.structure for spec, _ in asked)
            excluded = [x for _, x in asked]
            assert len(excluded) == len(set(excluded))


def test_an_xos_check_runs_the_inner_mechanism_once_per_chosen_set(monkeypatch):
    # each chosen set keeps one inner runner for the check's plan, so a later
    # run that moves at most one of its bids is answered without a full run
    full, inner_runs = [], []
    run = xos.run_matroid_mechanism
    sweep_run = verify.xos_mechanism_main

    def recording(inst, plan=None):
        full.append(tuple(inst.structure.ground))
        return run(inst, plan)

    def recording_sweep_run(*args):
        outcome = sweep_run(*args)
        inner_runs.append(outcome.inner is not None)
        return outcome

    monkeypatch.setattr(xos, "run_matroid_mechanism", recording)
    monkeypatch.setattr(verify, "xos_mechanism_main", recording_sweep_run)
    answered = 0
    for n in (6, 10):
        for index in range(3):
            valuation, costs, budget = gen_xos_instance(21, index, n=n)
            for tape in (1, 4, 7):  # the sub-mechanism tapes of the pinned pool
                full.clear()
                inner_runs.clear()
                params = XosParams(seed=tape, alpha=218, beta=mpq(9, 2), gamma=4)
                check_xos_truthfulness(valuation, costs, budget, params, seed=index)
                assert len(full) == len(set(full))
                answered += sum(inner_runs) - len(full)
    assert answered > 0


def test_generator_determinism():
    cfg = GeneratorConfig(count=10, seed=3)
    a = gen_matroid_instance(cfg, 4)
    b = gen_matroid_instance(cfg, 4)
    assert instance_to_json(a) == instance_to_json(b)
    x = gen_bipartite_instance(cfg, 4)
    y = gen_bipartite_instance(cfg, 4)
    assert instance_to_json(x) == instance_to_json(y)
    v1 = gen_xos_instance(5, 2)
    v2 = gen_xos_instance(5, 2)
    assert v1[0].functions == v2[0].functions and v1[1] == v2[1]


def test_generated_instances_satisfy_invariants():
    cfg = GeneratorConfig(count=30, seed=8)
    for index in range(30):
        for gen in (gen_matroid_instance, gen_bipartite_instance):
            inst = gen(cfg, index)
            for e in inst.structure.ground:
                assert 0 < inst.bids[e] <= inst.budget
                assert 0 < inst.true_costs[e] <= inst.budget
                assert inst.weights[e] > 0
            assert inst.bids == inst.true_costs


def test_kind_mix_and_regimes():
    cfg = GeneratorConfig(count=8, seed=1)
    kinds = {gen_matroid_instance(cfg, i).structure.kind for i in range(8)}
    assert kinds == {"uniform", "partition", "graphic", "deadline"}


def test_probe_count_meets_minimum():
    cfg = GeneratorConfig(count=1, seed=2)
    inst = gen_matroid_instance(cfg, 0)
    runner = make_runner("matroid", inst)
    out = runner(inst.truthful())
    import random

    probes = truthful_deviation_bids(
        inst.truthful(), inst.structure.ground[0], out, random.Random(0), 50
    )
    assert len(probes) >= 50
    assert all(0 < d <= inst.budget for d in probes)


def _plain_anchors(inst, e, final_rate):
    """The threshold probe anchors as rationals, built as first written."""
    def around(x):
        return (x - EPSILON, x, x + EPSILON)

    w_e = inst.weights[e]
    anchors = [d for o in inst.ground if o != e
               for d in around(inst.bids[o] / inst.weights[o] * w_e)]
    if final_rate is not None:
        anchors.extend(around(final_rate * w_e))
    anchors.append(inst.budget)
    return anchors


def _plain_probe_bids(anchors, budget, rng, min_count):
    """Second route to the probe set: a set of rationals filtered to
    (0, budget], topped up with draws ``budget * k / 10**6``, sorted."""
    probes = {d for d in anchors if 0 < d <= budget}
    while len(probes) < min_count:
        probes.add(budget * mpq(rng.randint(1, 10**6), 10**6))
    return sorted(probes)


@st.composite
def probe_cases(draw):
    """An instance, an element ``e`` and a final rate whose anchors tie
    often: equal buck-per-bang values, anchors on grid points, and anchors
    or their EPSILON neighbours at 0 and at the budget."""
    ids = [f"x{j}" for j in range(draw(st.integers(1, 5)))]
    weights = {x: draw(RATIONALS) for x in ids}
    budget = draw(RATIONALS)
    e = draw(st.sampled_from(ids))
    grid = st.builds(lambda k: budget * mpq(k, 10**6), st.integers(1, 10**6))
    # the level each rate reaches at e's weight
    levels = st.one_of(RATIONALS, st.just(budget), st.just(budget - EPSILON),
                       st.just(EPSILON), grid, grid.map(lambda g: g + EPSILON))
    bids = {x: draw(levels) * weights[x] / weights[e] for x in ids}
    final_rate = draw(st.one_of(st.none(), levels.map(lambda a: a / weights[e])))
    return Instance(FreeMatroid(ids), weights, bids, bids, budget), e, final_rate


@settings(max_examples=300, deadline=None)
@given(case=probe_cases(), seed=st.integers(0, 2**16), min_count=st.integers(1, 40))
def test_probes_match_a_plain_rational_route(case, seed, min_count):
    """The probes built on integers over one denominator are the rational
    route's probes, in its order, and use the same draws of the rng."""
    inst, e, final_rate = case
    anchors = _plain_anchors(inst, e, final_rate)
    outcomes = [SimpleNamespace(final_rate=final_rate)]
    if final_rate is None:
        outcomes.append(None)
    for outcome in outcomes:
        rng, plain_rng = random.Random(seed), random.Random(seed)
        probes = truthful_deviation_bids(inst, e, outcome, rng, min_count)
        assert probes == _plain_probe_bids(anchors, inst.budget, plain_rng, min_count)
        assert rng.getstate() == plain_rng.getstate()
    rng, plain_rng = random.Random(seed), random.Random(seed)
    probes = verify._probe_fractions([(a.numerator, a.denominator) for a in anchors], [],
                                     inst.budget, rng, min_count)
    assert probes == _plain_probe_bids(anchors, inst.budget, plain_rng, min_count)
    assert rng.getstate() == plain_rng.getstate()


def test_a_probe_count_past_the_reachable_values_raises_before_drawing():
    inst = gen_matroid_instance(GeneratorConfig(count=1, seed=0), 0)
    with pytest.raises(InputError, match="cannot draw 1000050 distinct deviation bids"):
        check_truthfulness(make_runner("matroid", inst), inst,
                           deviations_per_element=10**6 + 50)
    # an anchor on a grid point adds no reachable value; one off the grid does
    budget, rng = mpq(7, 3), random.Random(0)
    state = rng.getstate()
    with pytest.raises(InputError, match="only 1000000 are reachable"):
        verify._probe_fractions([(7, 3), (7, 6)], [], budget, rng, 10**6 + 1)
    with pytest.raises(InputError, match="only 1000001 are reachable"):
        verify._probe_fractions([(7, 3), (7, 9)], [], budget, rng, 10**6 + 2)
    assert rng.getstate() == state


def test_broken_mechanism_caught_and_replayable():
    inst = Instance(
        UniformMatroid(["a", "b"], 2), {"a": 5, "b": 4}, {"a": 2, "b": 2},
        {"a": 2, "b": 2}, 10,
    )
    report = check_truthfulness(
        first_price_greedy, inst, deviations_per_element=25, seed=0,
        mechanism="broken-first-price",
    )
    assert not report.passed
    for failure in report.failures:
        assert replay_failure(failure.to_json())


def test_replay_rejects_fabricated_violation():
    inst = Instance(
        UniformMatroid(["a", "b"], 2), {"a": 5, "b": 4}, {"a": 2, "b": 2},
        {"a": 2, "b": 2}, 10,
    )
    fake = Failure(
        property="Truthful", mechanism="matroid", instance=instance_to_json(inst),
        element="a", deviation="3", observed="bogus", required="bogus",
    )
    assert not replay_failure(fake.to_json())


def test_theorem_backed_checks_pass_on_samples():
    cfg = GeneratorConfig(count=25, seed=12)
    for index in range(25):
        inst = gen_matroid_instance(cfg, index)
        runner = make_runner("matroid", inst)
        out = runner(inst)
        assert not check_outcome_invariants(inst, out, "matroid")
        assert check_ratio(runner, inst, 4, "matroid").passed
        assert check_lemma1(inst, out, "matroid").passed
        assert check_bid_independence(inst, out, "matroid").passed
        assert check_truthfulness(runner, inst, 12, seed=index).passed


def test_run_verification_default_clean():
    config = {"count": 6, "n_range": [3, 6], "deviations_per_element": 6, "seed": 4}
    reports, failures = run_verification(config)
    assert failures == 0
    assert all(isinstance(r, VerificationReport) for r in reports)
    properties = {(r.property, r.mechanism) for r in reports}
    assert ("Lemma1Bound", "matroid") in properties
    assert ("ApproxRatio", "intersection-greedy") in properties


def test_run_verification_flags_broken():
    config = {
        "count": 4, "n_range": [2, 5], "deviations_per_element": 8,
        "include_broken": True, "seed": 4, "mechanisms": ["matroid"],
    }
    reports, failures = run_verification(config)
    assert failures > 0
    broken = [r for r in reports if r.mechanism == "broken-first-price"
              and r.property == "Truthful"]
    assert broken and not broken[0].passed


def test_verify_and_replay_read_one_property_map():
    config = {"count": 2, "n_range": [3, 4], "deviations_per_element": 2, "seed": 4,
              "include_broken": True}
    reports, _ = run_verification(config)
    assert {(r.property, r.mechanism) for r in reports} == {
        (p, m) for m in verify.MECHANISM_NAMES for p in verify.CHECKED_PROPERTIES[m]}
    inst = Instance(UniformMatroid(["a", "b"], 2), {"a": 5, "b": 4}, {"a": 2, "b": 2},
                    {"a": 2, "b": 2}, 10)
    every = {p for checked in verify.CHECKED_PROPERTIES.values() for p in checked}
    for mechanism, checked in verify.CHECKED_PROPERTIES.items():
        for prop in sorted(every - set(checked)):
            record = Failure(prop, mechanism, instance_to_json(inst)).to_json()
            with pytest.raises(SchemaError) as err:
                replay_failure(record)
            assert err.value.field == "property"


def test_report_round_trip():
    report = VerificationReport("Truthful", "matroid", instances_checked=2)
    report.failures.append(
        Failure("Truthful", "matroid", {"budget": "3"}, element="a",
                deviation="5/2", observed="1", required="<= 0")
    )
    doc = report.to_json()
    again = Failure.from_json(doc["failures"][0])
    assert again == report.failures[0]
    assert list(doc) == ["property", "mechanism", "instances_checked", "failures"]
    # only the three required keys: the others take their defaults
    minimal = Failure.from_json(
        {"property": "IR", "mechanism": "matroid", "instance": {"budget": "3"}}
    )
    assert (minimal.element, minimal.deviation, minimal.observed, minimal.required) == (
        None, None, "", "")
    assert list(minimal.to_json()) == [
        "property", "mechanism", "instance", "element", "deviation", "observed", "required"]


def test_instance_doc_round_trip():
    cfg = GeneratorConfig(count=1, seed=6)
    inst = gen_matroid_instance(cfg, 0)
    loaded = load_instance(instance_to_json(inst))
    again = loaded.mechanism_instance()
    assert again.weights == inst.weights
    assert again.bids == inst.bids
    assert again.budget == inst.budget
    assert instance_to_json(again) == instance_to_json(inst)


def test_utility_consistency_with_harness():
    inst = Instance(
        UniformMatroid(["a", "b"], 1), {"a": 5, "b": 4}, {"a": 2, "b": 2},
        {"a": 2, "b": 2}, 6,
    )
    runner = make_runner("matroid", inst)
    out = runner(inst)
    for e in inst.structure.ground:
        u = utility(inst, out, e)
        assert u >= 0  # truthful bids: IR implies nonnegative utility


# sha256 of the deviation sequences, pinned before the two truthfulness
# sweeps were folded into one: every bid vector a sweep hands to a mechanism,
# in call order, followed by the report it returns
GOLDEN_DEVIATION_SHA256 = "1839f4c3fbcfb4bb368134965577646b3048631c591a7c0c8daa09d644db2070"


def test_deviation_sequences_are_pinned(monkeypatch):
    digest = hashlib.sha256()

    def record(bids):
        line = ",".join(f"{e}={format_rational(bids[e])}" for e in sorted(bids))
        digest.update(line.encode() + b"\n")

    def report_done(report):
        digest.update(json.dumps(report.to_json()).encode() + b"\n")

    xos_run = verify.xos_mechanism_main

    def recording_xos_run(*args):
        record(args[2])
        return xos_run(*args)

    monkeypatch.setattr(verify, "xos_mechanism_main", recording_xos_run)
    config = GeneratorConfig(count=6, seed=5, n_range=(3, 7))
    for mechanism in verify.MECHANISM_NAMES:
        for index in range(6):
            if mechanism in ("matroid", "broken-first-price"):
                inst = gen_matroid_instance(config, index)
            else:
                inst = gen_bipartite_instance(config, index)
            runner = make_runner(mechanism, inst)

            def recording_runner(i, runner=runner):
                record(i.bids)
                return runner(i)

            report_done(check_truthfulness(recording_runner, inst, 12, seed=index,
                                           mechanism=mechanism))
    for index in range(3):
        valuation, costs, budget = gen_xos_instance(21, index, n=6)
        for tape in (0, 1, 4, 7):  # max-element on 0, sub-mechanism on 1, 4, 7
            params = XosParams(seed=tape, alpha=218, beta=mpq(9, 2), gamma=4)
            report_done(check_xos_truthfulness(valuation, costs, budget, params,
                                               seed=index))
    assert digest.hexdigest() == GOLDEN_DEVIATION_SHA256


# every outcome the XOS truthfulness sweep computes, the truthful run and each
# deviation, in call order: the pool of the test above plus n = 10 instances,
# whose tapes 1, 4 and 7 leave 5 to 9 elements in T2
GOLDEN_XOS_OUTCOME_SHA256 = "37dced64dae213a9537e367e2ba3cfb3a772109702bc2e172f4ac8d4b7898fbd"


def test_deviated_xos_outcomes_are_pinned(monkeypatch):
    digest = hashlib.sha256()
    xos_run = verify.xos_mechanism_main

    def rational(x):
        return "-" if x is None else format_rational(x)

    def recording_xos_run(*args):
        outcome = xos_run(*args)
        fields = [
            outcome.branch,
            ",".join(sorted(outcome.allocation)),
            ",".join(f"{e}={rational(p)}" for e, p in sorted(outcome.payments.items())),
            rational(outcome.threshold),
            "-" if outcome.s_star is None else ",".join(sorted(outcome.s_star)),
            str(outcome.clause_index),
        ]
        digest.update("|".join(fields).encode() + b"\n")
        return outcome

    monkeypatch.setattr(verify, "xos_mechanism_main", recording_xos_run)
    for n in (6, 10):
        for index in range(3):
            valuation, costs, budget = gen_xos_instance(21, index, n=n)
            for tape in (0, 1, 4, 7):
                params = XosParams(seed=tape, alpha=218, beta=mpq(9, 2), gamma=4)
                check_xos_truthfulness(valuation, costs, budget, params, seed=index)
    assert digest.hexdigest() == GOLDEN_XOS_OUTCOME_SHA256


# the full surplus argmaxes over the pool above when this ceiling was set;
# the count may fall, never rise
POOL_FULL_ARGMAXES = 87


def test_xos_sweep_builds_each_one_bid_table_at_most_once(monkeypatch):
    """Over the pool of ``test_deviated_xos_outcomes_are_pinned``, each
    check builds the T1 and the T2 one-bid table at most once, and the full
    surplus argmaxes stay within the pinned count.  Each counted kernel is
    called somewhere in the pool, so a plan that stops calling a kernel by
    its module name fails here."""
    calls = {"_one_bid_optima": 0, "_class_winners": 0, "_argmax_surplus": 0}
    totals = dict.fromkeys(calls, 0)
    for name in calls:
        def counted(*tables, kernel=getattr(xos, name), name=name):
            calls[name] += 1
            return kernel(*tables)

        monkeypatch.setattr(xos, name, counted)
    for n in (6, 10):
        for index in range(3):
            valuation, costs, budget = gen_xos_instance(21, index, n=n)
            for tape in (0, 1, 4, 7):
                params = XosParams(seed=tape, alpha=218, beta=mpq(9, 2), gamma=4)
                check_xos_truthfulness(valuation, costs, budget, params, seed=index)
                assert calls["_one_bid_optima"] <= 1 and calls["_class_winners"] <= 1
                for name, count in calls.items():
                    totals[name] += count
                calls.update(dict.fromkeys(calls, 0))
    assert totals["_argmax_surplus"] <= POOL_FULL_ARGMAXES
    assert all(totals.values()), totals


# every outcome a threshold truthfulness sweep computes, the truthful run and
# each deviation, in call order: the pool of ``test_deviation_sequences_are_pinned``
# plus four n = 10..12 instances per threshold mechanism, whose removal loops
# run long
GOLDEN_THRESHOLD_OUTCOME_SHA256 = "0de8d15ac00ea33de44a3f01757d56f4dd0e2444b00713310777b9dbfad6bf24"


def test_threshold_deviation_outcomes_are_pinned():
    digest = hashlib.sha256()

    def rational(x):
        return "-" if x is None else format_rational(x)

    def record(outcome):
        fields = [
            outcome.branch,
            ",".join(sorted(outcome.allocation)),
            ",".join(f"{e}={rational(p)}" for e, p in sorted(outcome.payments.items())),
            rational(outcome.final_rate),
        ]
        fields.extend(f"{s.iteration}:{rational(s.rate)}:{s.removed or '-'}:"
                      f"{','.join(s.chosen)}:{rational(s.value)}" for s in outcome.trace)
        digest.update("|".join(fields).encode() + b"\n")
        return outcome

    def sweep(mechanism, inst, index):
        runner = make_runner(mechanism, inst)
        check_truthfulness(lambda i: record(runner(i)), inst, 12, seed=index,
                           mechanism=mechanism)

    small = GeneratorConfig(count=6, seed=5, n_range=(3, 7))
    large = GeneratorConfig(count=4, seed=5, n_range=(10, 12))
    for mechanism in verify.MECHANISM_NAMES:
        gen = gen_matroid_instance if mechanism in ("matroid", "broken-first-price") \
            else gen_bipartite_instance
        for index in range(6):
            sweep(mechanism, gen(small, index), index)
        if mechanism != "broken-first-price":
            for index in range(4):
                sweep(mechanism, gen(large, index), index)
    assert digest.hexdigest() == GOLDEN_THRESHOLD_OUTCOME_SHA256
