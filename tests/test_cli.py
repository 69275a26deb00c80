"""CLI: subcommands, exit codes, wire formats, determinism."""

import contextlib
import copy
import csv
import hashlib
import io
import json
import tempfile
from concurrent.futures.process import BrokenProcessPool

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from budgetmech import Instance, UniformMatroid, cli, first_price_greedy, instance_io, verify
from budgetmech.cli import main
from budgetmech.errors import SchemaError
from budgetmech.instance_io import (
    instance_to_json,
    load_instance,
    parse_rational_field,
    xos_instance_to_json,
)
from budgetmech.rationals import format_rational, mpq, parse_rational
from budgetmech.verify import (
    Failure,
    GeneratorConfig,
    _xos_failure_doc,
    check_truthfulness,
    gen_bipartite_instance,
    gen_matroid_instance,
    gen_xos_instance,
    replay_failure,
)
from budgetmech.xos import XosParams, xos_mechanism_main

EXAMPLE2 = {
    "matroid": {"kind": "uniform", "rank": 2},
    "elements": [
        {"id": "a", "weight": 6, "cost": 6},
        {"id": "b", "weight": 5, "cost": 2},
        {"id": "c", "weight": 4, "cost": 2},
    ],
    "budget": 10,
}

BIPARTITE_2X2 = {
    "matroid": {
        "intersection": [
            {
                "kind": "partition",
                "blocks": [
                    {"members": ["e11", "e12"], "capacity": 1},
                    {"members": ["e21", "e22"], "capacity": 1},
                ],
            },
            {
                "kind": "partition",
                "blocks": [
                    {"members": ["e11", "e21"], "capacity": 1},
                    {"members": ["e12", "e22"], "capacity": 1},
                ],
            },
        ]
    },
    "elements": [
        {"id": "e11", "weight": 4, "cost": 1},
        {"id": "e12", "weight": 3, "cost": 1},
        {"id": "e21", "weight": 3, "cost": 1},
        {"id": "e22", "weight": 1, "cost": 1},
    ],
    "budget": 12,
}


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_run_example2(tmp_path, capsys):
    path = write(tmp_path, "ex2.json", EXAMPLE2)
    assert main(["run", path]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["payments"] == {"b": "50/9", "c": "40/9"}
    assert doc["total_payment"] == "10"
    assert parse_rational(doc["payments"]["b"]) == mpq(50, 9)


def test_run_outputs_are_byte_identical(tmp_path, capsys):
    path = write(tmp_path, "ex2.json", EXAMPLE2)
    main(["run", path, "--trace"])
    first = capsys.readouterr().out
    main(["run", path, "--trace"])
    second = capsys.readouterr().out
    assert first == second


def _golden_run_stdout(tmp_path, case, trace=True):
    """``run --trace`` stdout (plain ``run`` stdout when not ``trace``) on the
    generated instance named by ``case``, ``<kind>-<n>-<budget regime>`` plus
    ``-<apx>`` for bipartite."""
    kind, n, regime, *apx = case.split("-", 3)
    config = GeneratorConfig(1, 0, (int(n), int(n)), (kind,), budget_regime=regime)
    if kind == "bipartite":
        inst, flags = gen_bipartite_instance(config, 0), ["--apx", *apx]
    else:
        inst, flags = gen_matroid_instance(config, 0), []
    path = write(tmp_path, "golden.json", instance_to_json(inst))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["run", path, *(["--trace"] if trace else []), *flags]) == 0
    return out.getvalue()


# sha256 of `run --trace` stdout, pinned before any kernel speedup: a faster
# greedy, repair or blackbox must leave every byte of the output unchanged
GOLDEN_RUN_SHA256 = {
    "bipartite-30-loose-exact-bipartite":
        "0b6f8bd4c838ad975dd6ff2e9f77e6f1b1ef3de76f207a9c53b228dc6872b243",
    "bipartite-30-loose-greedy":
        "0b6f8bd4c838ad975dd6ff2e9f77e6f1b1ef3de76f207a9c53b228dc6872b243",
    "bipartite-30-tight-exact-bipartite":
        "e6d819ad6b735e855667df84bd4325e83a06f06b516a80e14424a28658e067fc",
    "bipartite-30-tight-greedy":
        "2af43e3a6b1580505df29528e883702d07ef25025d040b407cf19c972df1cfc0",
    "deadline-12-loose":
        "f3e9da57195ed425db85ec2866ac7deab40795565e08729f84ba0bdce87f1cf4",
    "deadline-12-tight":
        "f28045ee42572915d86f6009147d5eb759f92aae06e000b557bda567d2c9ffc0",
    "deadline-60-loose":
        "b4f91ca732b621f49a7535eec54cc07fab74bbead3750e8dfc1735c4c23f64e2",
    "deadline-60-tight":
        "d92f7ef9240ead85f716e657da1791b5abaef2d1450240174de89b78be3b01fb",
    "free-12-loose":
        "c58a4173c548e960c62398d738dd83a7cd8629b1b6622310867debc888bed46f",
    "free-12-tight":
        "58058bca723b0280703b9906be6b76571b70bb0b706416bb5aca0d2a0da2bf1d",
    "free-60-loose":
        "a2a06e2e18e8d56fd312ef10e5a10a3d0e402fffb09e62cd85fd5ea394e5abd8",
    "free-60-tight":
        "718c262fbaf98af1c1acc8ae23c90e528f47e409be32e24c10ba63f0d0b573ad",
    "graphic-12-loose":
        "b6b4c9cc4fef8ceabe90e1fd3f6abd0aa0b297ca1760bf092dbf372aa8e8259f",
    "graphic-12-tight":
        "dd9dbd370eb9b57eb6dc49792080d5235823e5cea3028fd8d33de51fb7d4515b",
    "graphic-60-loose":
        "34a96a0142a96448a2064c8442faa73ea83dfd8ca5d0eaf1e5d63b9ae2e747d7",
    "graphic-60-tight":
        "defd7df41fffc25bb5dee7af3e3744f684419961fca6d86610f5b81323f8412a",
    "partition-12-loose":
        "e9b15674b3322fab1a0ced848873fd8ee3d9f6af1c5f1be773c88b91330d6a38",
    "partition-12-tight":
        "3bc4b5986026fe584a359bfdc0478ab661a773045f8161c455d537f3afb62566",
    "partition-60-loose":
        "b85256da7d56468a97439946863857198e7d7e330cc32fe8af08b184d152f6ae",
    "partition-60-tight":
        "512fbd82faab910393fa1721da7abf6083850b99c011d559eff888090cdc332c",
    "uniform-12-loose":
        "0aa0c697b640d061f2347aa54a3fc0dfca93074868446dc993c1cfe348e979f7",
    "uniform-12-tight":
        "e4b9fd997e73b9a718752db341eac566a75f359353c1d48ea89adb4811e92508",
    "uniform-60-loose":
        "44ed312a2818f32f3bc88c93565dba478d0058ce5e5f66564e12cb35641811a5",
    "uniform-60-tight":
        "da73f82b4c28753ea67c3245a1c51f7ee90c0f95055bbea9936fc2e7beebc957",
}


@pytest.mark.parametrize("case", sorted(GOLDEN_RUN_SHA256))
def test_run_trace_output_is_pinned(tmp_path, case):
    stdout = _golden_run_stdout(tmp_path, case)
    assert hashlib.sha256(stdout.encode()).hexdigest() == GOLDEN_RUN_SHA256[case]


# sha256 of plain `run` stdout at the sizes the run-large benchmark measures,
# pinned before the loader and renderer ran on integers: it covers the
# `payments_decimal` and `total_payment` rendering of many payments
PLAIN_RUN_SHA256 = {
    "bipartite-100-loose-exact-bipartite":
        "c5976ff5b2d59a20d3d174aaf689cfd03de18a893c5c349ed12f8c4103763314",
    "bipartite-100-loose-greedy":
        "4add91db2131be807137d1972b408448321e5e909e2b8ff11adb5f0fe2b6eb39",
    "bipartite-100-tight-exact-bipartite":
        "f2c33851d3049040d9e9fa7f92d95571c1371c5f419007aba07f15dc83069198",
    "bipartite-100-tight-greedy":
        "8742841b08939a7d25dffcdff9f9595d0e365b1cc10f71a315f9da374e0f0f79",
    "bipartite-200-loose-exact-bipartite":
        "007e7f17062361a2b349c2ca33f00032b4057d1fec04c74522d5b5400d1cefb6",
    "bipartite-200-loose-greedy":
        "b6a3298ac2a3e4a525a5250f77cea07920356029c27785b857584771424c059e",
    "bipartite-200-tight-exact-bipartite":
        "7d8d834d2a08cf22abd974884aab5202e408528d3a0912e3cf9ba4f0dd344557",
    "bipartite-200-tight-greedy":
        "ff017c896f748bc5c99aa7d8acd7b809414f9981c70fdbe4f32381719fb2938f",
    "deadline-100-loose":
        "d9ea3266090ee1bfa11e451c00b9ae43411d0c2d2f0ac245a231e84d89f03b12",
    "deadline-100-tight":
        "d13095f0c341772df1ae45f008a284d1bb9ac165b934de15acba7556047e87c9",
    "deadline-200-loose":
        "38ebe191137d8c0ef991456c0cf422a1e55e68cb7fba84c03706c65ef8bae6bf",
    "deadline-200-tight":
        "54dcea4bf7a2fff49f485f2d44b073499122915c17b07fbf4d1608be1d434869",
    "free-100-loose":
        "da7d759932e48978d0ce3b0b888380deb2a5984a377693ad0fbea7651b3f4b2f",
    "free-100-tight":
        "c963b34ad1df3acd8dc494ecba679ffeeb2e3f14ca5ce9cc2b80a8e1ede2eaf5",
    "free-200-loose":
        "2a0ac29053865577cd05252f86097c22f5c24e113b49852986e5d43287f8841f",
    "free-200-tight":
        "72605ef236208102549f26cb059e9b1a54534cc652ef89bb9aa9be5349c13bd1",
    "graphic-100-loose":
        "c32547cff3cf493d760e4b0e3e726b7ac131b664fba829c52d404061ad7f8251",
    "graphic-100-tight":
        "d7053c86a7937830b74b35bcf6e53c88134cc4e21bf9c3a9302f4c0fe5c92873",
    "graphic-200-loose":
        "8db780e70a9114a0676471c96aeb1c6c61b89f0103a31d52485e7667b09bf8dc",
    "graphic-200-tight":
        "357f77256cc521fb06e3f0d8a53738e64e88689237b591b036af43292a4ceb9f",
    "partition-100-loose":
        "f33511c4d53920223aef07b46e93758e7691153b1861699dab2b0a305d84bd93",
    "partition-100-tight":
        "36bdb8e605dd822b7c3911f6f4c8562daa209bbedcf75c9fd0972f0ef8d91562",
    "partition-200-loose":
        "0de4436a21dc9775cf241f3e1b55f4b8b930c5de0b2eccd50e022da4ba1459b7",
    "partition-200-tight":
        "9e08904a96433dd249491b09160b477df022aa89c358f01bcf0adef2c542fd9d",
    "uniform-100-loose":
        "9854ca310f40569387c67bb7358f53a40b1c8fef845d861fd320adf7a1373be2",
    "uniform-100-tight":
        "be0a210865748af1aaa5886dcd061e67579e6c5fc0cdcd9c2b085652b7c68bf8",
    "uniform-200-loose":
        "8856d96723923e0babe94be134bfe2b072d171a2023934a35b19ec4288d79846",
    "uniform-200-tight":
        "9cdcbcaf6dec5f7e1d6d6e1ae368efff78686eacb70c1d8fcc193ac3cbdda075",
}


@pytest.mark.parametrize("case", sorted(PLAIN_RUN_SHA256))
def test_plain_run_output_at_benchmark_sizes_is_pinned(tmp_path, case):
    stdout = _golden_run_stdout(tmp_path, case, trace=False)
    assert hashlib.sha256(stdout.encode()).hexdigest() == PLAIN_RUN_SHA256[case]


# sha256 of `run --trace` stdout on XOS instance files, keyed by
# (n, instance index, coin seed, branch): the sub-mechanism tapes render the
# inner trace, and seed 14 at n = 6 sends every element to T1 (branch empty)
XOS_TRACE_SHA256 = {
    (6, 0, 0, "max-element"):
        "4ff59619027b2d1768ad8bc18b85afacf596ed05d111301cc99010ad079ffa9e",
    (6, 0, 1, "sub-mechanism"):
        "e8e3a41f5d5fe5e3a74caf4b9c6ee908c6e4f5317e3e422d16a7f78912a67236",
    (6, 0, 14, "empty"):
        "367bcfbc64cc30dbaba5aeb434f754b27db37c2954aadd2e0954d1b0d7cd13cf",
    (10, 2, 4, "sub-mechanism"):
        "e25f9a74865311fd89c756b52616774c2538bbb133623ea54bc55f810a1035dc",
    (10, 2, 8, "sub-mechanism"):
        "860609a6cfaa6e36b33fcb740d43bb705ed112a9d71e2a9c9f16636b3da5e3d5",
}


@pytest.mark.parametrize("case", sorted(XOS_TRACE_SHA256))
def test_xos_run_trace_output_is_pinned(tmp_path, case):
    n, index, seed, branch = case
    valuation, costs, budget = gen_xos_instance(0, index, n=n)
    path = write(tmp_path, "xos.json", xos_instance_to_json(valuation, costs, costs, budget))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["run", path, "--trace", "--seed", str(seed)]) == 0
    doc = json.loads(out.getvalue())
    assert doc["branch"] == branch
    assert ("inner" in doc) == (branch == "sub-mechanism")
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == XOS_TRACE_SHA256[case]


def test_run_intersection_both_blackboxes(tmp_path, capsys):
    path = write(tmp_path, "sq.json", BIPARTITE_2X2)
    assert main(["run", path, "--apx", "exact-bipartite"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["mechanism"] == "intersection"
    assert doc["payments"] == {"e12": "6", "e21": "6"}
    assert main(["run", path, "--apx", "greedy"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["total_payment_decimal"]


@pytest.mark.parametrize("apx", ["exact-bipartite", "greedy"])
def test_run_intersection_on_a_single_matroid_exit2(tmp_path, capsys, apx):
    path = write(tmp_path, "ex2.json", EXAMPLE2)
    assert main(["run", path, "--mechanism", "intersection", "--apx", apx]) == 2
    assert capsys.readouterr().err == \
        f"error: blackbox {apx!r} needs a matroid intersection, not a single matroid\n"


@pytest.mark.parametrize("matroid, message", [
    ({"intersection": 5}, "matroid.intersection: must be a list of matroids"),
    ({"intersection": "ab"}, "matroid.intersection: must be a list of matroids"),
    ({"intersection": [5, 6]}, "matroid: matroid spec must be an object with a 'kind' field"),
    ({"intersection": []}, "matroid: an intersection needs at least two matroids"),
    ("ab", "matroid: matroid spec must be an object with a 'kind' field"),
], ids=["int", "string", "not-objects", "empty", "matroid-string"])
def test_malformed_matroid_exit2(tmp_path, capsys, matroid, message):
    path = write(tmp_path, "bad.json", {**BIPARTITE_2X2, "matroid": matroid})
    assert main(["run", path]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_empty_elements_exit2(tmp_path, capsys):
    path = write(tmp_path, "bad.json", {"matroid": {"kind": "free"}, "elements": [],
                                        "budget": 1})
    assert main(["run", path]) == 2
    assert "elements" in capsys.readouterr().err


def test_bid_above_budget_exit2(tmp_path, capsys):
    doc = {
        "matroid": {"kind": "free"},
        "elements": [{"id": "a", "weight": 1, "cost": 1, "bid": 9}],
        "budget": 5,
    }
    path = write(tmp_path, "bad.json", doc)
    assert main(["run", path]) == 2


# ---------------------------------------------------------------------------
# the loader's sign and budget checks, at their boundaries


def _one_element(budget="5/2", **fields):
    element = {"id": "a", "weight": 1, "cost": 1, **fields}
    return {"matroid": {"kind": "free"}, "elements": [element], "budget": budget}


def _schema_error(doc):
    with pytest.raises(SchemaError) as err:
        load_instance(doc)
    return str(err.value)


@pytest.mark.parametrize("field", ["weight", "cost", "bid"])
@pytest.mark.parametrize("value", ["0", "0/5", "-1/3", "3/-4", 0, -2])
def test_non_positive_element_field_rejected(field, value):
    assert _schema_error(_one_element(**{field: value})) == \
        f"elements[0].{field}: must be positive"


@pytest.mark.parametrize("value", ["0", "0/5", "-1/3", "3/-4"])
def test_non_positive_budget_rejected(value):
    assert _schema_error(_one_element(budget=value)) == "budget: must be positive"


def test_sign_in_the_denominator_is_read_as_negative_everywhere(tmp_path, capsys):
    doc = {**_one_element(), "elements": [{"id": "a", "weight": 1, "cost": 1},
                                          {"id": "b", "weight": 1, "cost": "3/-4"}]}
    assert main(["run", write(tmp_path, "bad.json", doc)]) == 2
    assert capsys.readouterr().err == "error: elements[1].cost: must be positive\n"


@pytest.mark.parametrize("field", ["cost", "bid"])
def test_value_equal_to_the_budget_in_another_spelling_accepted(field):
    loaded = load_instance(_one_element(**{field: "10/4"}))
    assert getattr(loaded, field + "s")["a"] == loaded.budget == mpq(5, 2)


@pytest.mark.parametrize("field", ["cost", "bid"])
def test_one_step_above_the_budget_rejected(tmp_path, capsys, field):
    above = format_rational(mpq(5, 2) + mpq(1, 10**12))
    doc = _one_element(**{field: above, "cost" if field == "bid" else "bid": 1})
    message = f"elements: {field} of 'a' exceeds the budget"
    assert _schema_error(doc) == message
    assert main(["run", write(tmp_path, "bad.json", doc)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_bid_above_the_budget_reported_before_the_cost():
    assert _schema_error(_one_element(cost=3, bid=4)) == \
        "elements: bid of 'a' exceeds the budget"
    doc = _one_element()
    doc["elements"] = [{"id": "a", "weight": 1, "cost": 3, "bid": 1},
                       {"id": "b", "weight": 1, "cost": 1, "bid": 3}]
    assert _schema_error(doc) == "elements: cost of 'a' exceeds the budget"


def test_repeated_over_budget_text_names_the_first_offender():
    # "3" is one shared rational; it exceeds the budget as a weight too,
    # but only a bid or a cost is ever named
    assert _schema_error(_one_element(cost="3", bid="4")) == \
        "elements: bid of 'a' exceeds the budget"
    doc = _one_element()
    doc["elements"] = [{"id": "a", "weight": "3", "cost": "1", "bid": "1"},
                       {"id": "b", "weight": "1", "cost": "3", "bid": "1"},
                       {"id": "c", "weight": "1", "cost": "1", "bid": "3"}]
    assert _schema_error(doc) == "elements: cost of 'b' exceeds the budget"
    doc["elements"][1]["bid"] = "3"
    assert _schema_error(doc) == "elements: bid of 'b' exceeds the budget"
    doc["elements"][1:] = [{"id": "b", "weight": "3", "cost": "1"}]
    assert load_instance(doc).weights == {"a": 3, "b": 3}


@pytest.mark.parametrize("weight", ["1", 1], ids=["text", "int"])
@pytest.mark.parametrize("cost, message", [
    (True, "booleans are not rationals"),
    (1.0, "expected int or 'p/q' string, got float"),
], ids=["true", "float"])
def test_a_value_equal_to_a_parsed_one_is_still_rejected(weight, cost, message):
    # True == 1.0 == 1, with one hash: neither may be read as the 1 parsed before
    doc = _one_element()
    doc["elements"] = [{"id": "a", "weight": weight, "cost": 1},
                       {"id": "b", "weight": 1, "cost": cost}]
    assert _schema_error(doc) == f"elements[1].cost: {message}"


def _load_field_by_field(doc):
    """What ``load_instance`` reads of ``doc``'s rationals, by a second route: a
    fresh parse per field and the budget test per element, on rationals."""
    weights, costs, bids = {}, {}, {}
    for idx, entry in enumerate(doc["elements"]):
        e = entry["id"]
        try:
            weights[e] = parse_rational_field(entry["weight"], "weight")
            costs[e] = parse_rational_field(entry["cost"], "cost")
            bids[e] = parse_rational_field(entry.get("bid", entry["cost"]), "bid")
        except SchemaError as exc:
            raise SchemaError(f"elements[{idx}].{exc.field}", exc.message) from exc
    budget = parse_rational_field(doc["budget"], "budget")
    for e in weights:
        for name, q in (("bid", bids[e]), ("cost", costs[e])):
            if q > budget:
                raise SchemaError("elements", f"{name} of {e!r} exceeds the budget")
    functions = None
    if "xos" in doc:
        functions = [{e: parse_rational(v, f"xos.functions[{k}][{j}]")
                      for j, (e, v) in enumerate(zip(weights, row))}
                     for k, row in enumerate(doc["xos"]["functions"])]
        if any(v < 0 for f in functions for v in f.values()):
            return None  # rejected by XosValuation, past the parsing compared here
    return weights, costs, bids, budget, functions


# repeated texts, JSON ints beside strings and several spellings of one value
WIRE = st.sampled_from([1, 2, 7, "1", "2", "7", " 7 ", "14/2", "5/2", "10/4"])
# zero, a sign in the denominator, a boolean and a float
BAD = st.sampled_from([0, "0", "0/5", "3/-4", True, 1.0])
# above a budget of 10, equal to one of 11; drawn twice, a text repeats
ABOVE = st.sampled_from(["11", "22/2", 11])
XOS_WIRE = st.sampled_from([0, 1, "0", "0/3", "7", " 7 ", "14/2", 7, "5/2", "-1", True])


@st.composite
def wire_documents(draw):
    n = draw(st.integers(1, 5))
    elements = []
    for e in draw(st.permutations([f"e{j}" for j in range(n)])):  # file order is not id order
        entry = {"id": e, "weight": draw(WIRE), "cost": draw(WIRE)}
        if draw(st.booleans()):
            entry["bid"] = draw(WIRE)
        elements.append(entry)
    fields = [(entry, f) for entry in elements for f in ("weight", "cost", "bid") if f in entry]
    for values in (draw(st.lists(BAD, max_size=1)), draw(st.lists(ABOVE, max_size=3))):
        for value in values:
            entry, f = draw(st.sampled_from(fields))
            entry[f] = value
    doc = {"matroid": {"kind": "free"}, "elements": elements,
           "budget": draw(st.sampled_from([10, "10", " 20/2 ", "11", "22/2"]))}
    if draw(st.booleans()):
        rows = st.lists(XOS_WIRE, min_size=n, max_size=n)
        doc["xos"] = {"functions": draw(st.lists(rows, min_size=1, max_size=2))}
    return doc


@settings(max_examples=300, deadline=None, derandomize=True)
@given(wire_documents())
def test_the_text_table_reads_what_a_fresh_parse_per_field_reads(doc):
    try:
        expected = _load_field_by_field(doc)
    except SchemaError as exc:
        assert _schema_error(doc) == str(exc)
        return
    if expected is None:
        assert _schema_error(doc).startswith("xos: ")
        return
    loaded = load_instance(doc)
    weights, costs, bids, budget, functions = expected
    assert (loaded.weights, loaded.costs, loaded.bids, loaded.budget) == \
        (weights, costs, bids, budget)
    assert (loaded.xos and list(loaded.xos.functions)) == functions


def test_each_distinct_text_is_parsed_once(tmp_path, monkeypatch):
    config = GeneratorConfig(1, 0, (200, 200), ("partition",))
    doc = instance_to_json(gen_matroid_instance(config, 0))
    texts = {el[f] for el in doc["elements"] for f in ("weight", "cost", "bid")}
    assert len(texts) < 60  # of 600 fields: the file repeats its texts
    calls = []

    def counting(value, field="value"):
        calls.append(value)
        return parse_rational(value, field)

    monkeypatch.setattr(instance_io, "parse_rational", counting)
    instance_io.load_instance_file(write(tmp_path, "n200.json", doc))
    assert len(calls) == len(texts) + 1  # and the budget
    assert sorted(calls[:-1]) == sorted(texts) and calls[-1] == doc["budget"]


def test_xos_clause_values_may_be_zero():
    doc = {"elements": [{"id": "a", "weight": 1, "cost": 1},
                        {"id": "b", "weight": 1, "cost": 1}],
           "budget": 2, "xos": {"functions": [[0, "0/3"], [1, 0]]}}
    loaded = load_instance(doc)
    assert loaded.xos.functions[0] == {"a": 0, "b": 0}
    assert loaded.xos.functions[1] == {"a": 1, "b": 0}
    doc["xos"]["functions"][1][1] = "1/-3"
    assert _schema_error(doc) == "xos: clause 1 value for 'b' is negative"


def test_xos_cap_exit3(tmp_path, capsys):
    n = 20
    doc = {
        "elements": [{"id": f"e{j:02d}", "weight": 1, "cost": 1} for j in range(n)],
        "budget": 30,
        "xos": {"functions": [[1] * n]},
    }
    path = write(tmp_path, "big.json", doc)
    assert main(["run", path, "--mechanism", "xos"]) == 3


def test_xos_run(tmp_path, capsys):
    doc = {
        "elements": [
            {"id": "a", "weight": 1, "cost": 2},
            {"id": "b", "weight": 1, "cost": 3},
        ],
        "budget": 9,
        "xos": {"functions": [[4, 1], [1, 5]]},
    }
    path = write(tmp_path, "xos.json", doc)
    assert main(["run", path, "--seed", "0"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["mechanism"] == "xos"
    assert parse_rational(out["total_payment"]) <= 9


def test_verify_clean_and_reports(tmp_path, capsys):
    config = write(tmp_path, "cfg.json", {
        "count": 4, "n_range": [3, 5], "deviations_per_element": 5,
        "mechanisms": ["matroid"], "seed": 2,
    })
    out_dir = tmp_path / "reports"
    assert main(["verify", config, "--out", str(out_dir)]) == 0
    report = json.loads((out_dir / "report.json").read_text())
    assert report["reports"]
    with open(out_dir / "summary.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["property", "mechanism", "checked", "failed"]
    assert all(row[3] == "0" for row in rows[1:])


def test_verify_broken_then_replay(tmp_path, capsys):
    config = write(tmp_path, "cfg.json", {
        "count": 3, "n_range": [2, 4], "deviations_per_element": 8,
        "mechanisms": ["matroid"], "include_broken": True, "seed": 2,
    })
    out_dir = tmp_path / "reports"
    assert main(["verify", config, "--out", str(out_dir)]) == 1
    capsys.readouterr()
    assert main(["replay", str(out_dir / "report.json")]) == 0
    assert "reproduced" in capsys.readouterr().out


def test_xos_truthful_replay_of_a_tie_is_missing(tmp_path, capsys):
    # a T2 loser that raises its bid to the budget still loses, so its
    # utility stays 0: the record is a tie, not a violation
    valuation, costs, budget = gen_xos_instance(21, 0, n=6)
    params = XosParams(seed=1, alpha=218, beta=mpq(9, 2), gamma=4)
    outcome = xos_mechanism_main(valuation, costs, costs, budget, params)
    assert outcome.branch == "sub-mechanism"
    loser = min(outcome.t2 - outcome.allocation)
    record = Failure(
        "Truthful", "xos", _xos_failure_doc(valuation, costs, costs, budget, params),
        element=loser, deviation=format_rational(budget), observed="0",
        required="<= truthful utility 0",
    ).to_json()
    assert not replay_failure(record)
    path = write(tmp_path, "report.json", {"reports": [{"failures": [record]}]})
    assert main(["replay", path]) == 1
    assert "MISSING" in capsys.readouterr().out


@pytest.mark.parametrize("deviation", ["budget", "cost"])
def test_threshold_truthful_replay_of_a_tie_is_missing(tmp_path, capsys, monkeypatch,
                                                       deviation):
    # a loser that raises its bid to the budget still loses, so its utility
    # stays 0; a bid equal to the true cost is no deviation, and the sweep
    # skips it: neither record is a violation
    inst = gen_matroid_instance(GeneratorConfig(count=1, seed=0), 0)
    outcome = verify.make_runner("matroid", inst)(inst)
    assert outcome.branch == "set"
    loser = min(set(inst.ground) - outcome.allocation - {outcome.tau})
    bid = inst.budget if deviation == "budget" else inst.true_costs[loser]
    record = Failure(
        "Truthful", "matroid", instance_to_json(inst), element=loser,
        deviation=format_rational(bid), observed="0", required="<= truthful utility 0",
    ).to_json()
    runs = []
    real = verify.run_matroid_mechanism

    def recording(i, *rest):
        runs.append(i.bids[loser])
        return real(i, *rest)

    monkeypatch.setattr(verify, "run_matroid_mechanism", recording)
    assert not replay_failure(record)
    # one full run is the shared runner's first call; the deviation, unless
    # skipped, runs in full on a runner of its own
    assert runs == ([inst.true_costs[loser], bid] if deviation == "budget"
                    else [inst.true_costs[loser]])
    path = write(tmp_path, "report.json", {"reports": [{"failures": [record]}]})
    assert main(["replay", path]) == 1
    assert "MISSING" in capsys.readouterr().out


def test_verify_malformed_config_exit2(tmp_path, capsys):
    bad = tmp_path / "cfg.json"
    bad.write_text("{not json")
    assert main(["verify", str(bad)]) == 2
    config = write(tmp_path, "cfg2.json", {"count": -4})
    assert main(["verify", config]) == 2


def test_bench_writes_csv(tmp_path, capsys):
    config = write(tmp_path, "bench.json", {
        "count": 6, "n_range": [3, 6], "seed": 3,
        "mechanisms": ["matroid", "intersection-exact", "intersection-greedy"],
    })
    out_csv = tmp_path / "sweep.csv"
    assert main(["bench", config, str(out_csv)]) == 0
    with open(out_csv) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 18
    # alpha of the matroid greedy (1, not a column value), the exact
    # blackbox, and the greedy blackbox on two partition matroids
    alphas = {"matroid": ("", 1), "intersection-exact": ("1", 1),
              "intersection-greedy": ("2", 2)}
    for row in rows:
        assert set(row) == {"instance_hash", "n", "matroid_kind", "mechanism",
                            "alpha", "ratio", "total_payment_over_budget", "runtime_us"}
        column, alpha = alphas[row["mechanism"]]
        assert row["alpha"] == column
        assert float(row["ratio"]) <= 3 * alpha + 1
        assert float(row["total_payment_over_budget"]) <= 1.0


def test_bench_builds_one_blackbox_per_row(tmp_path, monkeypatch):
    """The alpha column reads the blackbox the row's runner runs."""
    calls = []

    def counted(name, spec, build=verify.get_blackbox):
        calls.append(name)
        return build(name, spec)

    monkeypatch.setattr(verify, "get_blackbox", counted)
    config = write(tmp_path, "bench.json", {
        "count": 5, "n_range": [3, 5], "seed": 2,
        "mechanisms": ["matroid", "intersection-exact", "intersection-greedy"],
    })
    out_csv = tmp_path / "sweep.csv"
    assert main(["bench", config, str(out_csv)]) == 0
    with open(out_csv) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 15
    assert sorted(calls) == ["exact-bipartite"] * 5 + ["greedy"] * 5


# sha256 of the `verify` outputs and of the `bench` CSV without its
# runtime_us column, taken at --threads 1: the process pool must give the
# serial sweep's bytes
POOL_MECHANISMS = ["matroid", "intersection-exact", "intersection-greedy"]
POOL_SWEEP_SHA256 = {
    "report.json": "c0e23c03f9e874e57bff98ea8fa2c77098dba8b02401600a9bcc12d728416fab",
    "summary.csv": "d3447f0f08d3e3d4ddd3f2536bb349aac10c937292bdfa262935a05e1f637d5c",
    "stdout": "67c4447950330829792d6a64abea39a7eec2fa0db176306d085dada51c228e76",
    "bench": "3c3d03694155583a26cea21ce3826d8eccee52cf78bd21ba0fa5b6a9b0acbe5d",
}


def test_process_pool_sweeps_match_the_serial_outputs(tmp_path, capsys):
    def sha(data):
        return hashlib.sha256(data).hexdigest()

    config = write(tmp_path, "verify.json", {
        "seed": 3, "count": 6, "n_range": [3, 6], "deviations_per_element": 4,
        "mechanisms": POOL_MECHANISMS, "include_broken": True,
    })
    out_dir = tmp_path / "reports"
    assert main(["verify", config, "--out", str(out_dir), "--threads", "2"]) == 1
    digests = {name: sha((out_dir / name).read_bytes())
               for name in ("report.json", "summary.csv")}
    digests["stdout"] = sha(capsys.readouterr().out.encode())

    config = write(tmp_path, "bench.json", {
        "seed": 3, "count": 6, "n_range": [3, 6], "mechanisms": POOL_MECHANISMS,
    })
    out_csv = tmp_path / "sweep.csv"
    assert main(["bench", config, str(out_csv), "--threads", "2"]) == 0
    with open(out_csv, newline="") as fh:
        rows = [row[:-1] for row in csv.reader(fh)]
    digests["bench"] = sha(json.dumps(rows).encode())
    assert digests == POOL_SWEEP_SHA256


def test_bench_empty_sweep_header_only(tmp_path):
    config = write(tmp_path, "bench.json", {"count": 0, "mechanisms": ["matroid"]})
    out_csv = tmp_path / "sweep.csv"
    assert main(["bench", config, str(out_csv)]) == 0
    lines = out_csv.read_text().strip().splitlines()
    assert len(lines) == 1


# n = 23 is past the brute-force oracle's cap: the bench ratio column and the
# ratio check stop the sweep at its first instance
CAPPED = "error: brute-force oracle capped at 22 elements, got 23\n"


def test_bench_past_the_oracle_cap_exits_3_and_writes_no_file(tmp_path, capsys):
    config = write(tmp_path, "bench.json", {"count": 3, "n_range": [23, 23]})
    out_csv = tmp_path / "sweep.csv"
    assert main(["bench", config, str(out_csv)]) == 3
    assert capsys.readouterr().err == CAPPED
    assert not out_csv.exists()


def test_verify_past_the_oracle_cap_exits_3_and_writes_no_report(tmp_path, capsys):
    config = write(tmp_path, "verify.json", {
        "count": 3, "n_range": [23, 23], "mechanisms": ["matroid"],
        "deviations_per_element": 1,
    })
    out_dir = tmp_path / "reports"
    assert main(["verify", config, "--out", str(out_dir)]) == 3
    assert capsys.readouterr().err == CAPPED
    assert not out_dir.exists()


def test_xos_constant_command(capsys):
    assert main(["xos-constant", "--gamma", "3"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert 430 <= float(doc["ratio_decimal"]) <= 436.5
    assert 210 <= float(doc["alpha_decimal"]) <= 226


def test_missing_file_exit4(tmp_path, capsys):
    assert main(["run", "/nonexistent/instance.json"]) == 4
    capsys.readouterr()
    assert main(["run", str(tmp_path)]) == 4
    assert capsys.readouterr().err == f"error: {tmp_path}: Is a directory\n"
    config = write(tmp_path, "cfg.json", {"count": 1, "mechanisms": ["matroid"]})
    taken = write(tmp_path, "taken", {})
    assert main(["verify", config, "--out", taken]) == 4
    assert capsys.readouterr().err == f"error: {taken}: File exists\n"


def test_float_weight_names_field_once(tmp_path, capsys):
    doc = copy.deepcopy(EXAMPLE2)
    doc["elements"][0]["weight"] = 1.5
    assert main(["run", write(tmp_path, "float.json", doc)]) == 2
    assert capsys.readouterr().err == \
        "error: elements[0].weight: expected int or 'p/q' string, got float\n"


def test_decimal_flag_rejected_like_instance_files(tmp_path, capsys):
    element = {"elements": [{"id": "a", "weight": 1, "cost": 2}], "budget": 9}
    # the flags only steer the XOS mechanism, yet every instance kind checks them
    for name, structure in (("xos.json", {"xos": {"functions": [[4]]}}),
                            ("matroid.json", {"matroid": {"kind": "free"}})):
        path = write(tmp_path, name, {**element, **structure})
        assert main(["run", path, "--alpha", "1.5"]) == 2
        assert capsys.readouterr().err == "error: --alpha: cannot parse rational '1.5'\n"


@pytest.mark.parametrize("command", ["verify", "bench"])
def test_zero_threads_rejected(tmp_path, capsys, command):
    config = write(tmp_path, "cfg.json", {"count": 1, "mechanisms": ["matroid"]})
    out = str(tmp_path / ("reports" if command == "verify" else "sweep.csv"))
    argv = [command, config, "--out", out] if command == "verify" else [command, config, out]
    assert main([*argv, "--threads", "0"]) == 2
    assert capsys.readouterr().err == "error: threads: must be an integer from 1 to 64\n"


@pytest.mark.parametrize("command", ["verify", "bench"])
def test_threads_past_the_cap_rejected(tmp_path, capsys, command):
    # the config is validated before any worker starts; with count 1 a sweep
    # would run in this process anyway, so even a broken cap starts no worker
    config = write(tmp_path, "cfg.json", {"count": 1, "mechanisms": ["matroid"]})
    out = str(tmp_path / ("reports" if command == "verify" else "sweep.csv"))
    argv = [command, config, "--out", out] if command == "verify" else [command, config, out]
    assert main([*argv, "--threads", "65"]) == 2
    assert capsys.readouterr().err == "error: threads: must be an integer from 1 to 64\n"
    assert not (tmp_path / "reports").exists() and not (tmp_path / "sweep.csv").exists()


def test_deviations_past_the_probe_grid_rejected(tmp_path, capsys):
    config = write(tmp_path, "cfg.json", {"count": 1, "mechanisms": ["matroid"],
                                          "deviations_per_element": 1000001})
    assert main(["verify", config, "--out", str(tmp_path / "reports")]) == 2
    assert capsys.readouterr().err == \
        "error: deviations_per_element: must be an integer from 1 to 1000000\n"


@pytest.mark.parametrize("command", ["verify", "bench"])
def test_broken_worker_pool_exits_4(tmp_path, capsys, monkeypatch, command):
    """A pool whose worker died is an operating-system failure, not a
    verification failure: one error line and exit 4, no traceback."""
    def broken_sweep(job, cfg, mechanisms):
        raise BrokenProcessPool("a worker process terminated abruptly")

    monkeypatch.setattr(verify, "run_sweep", broken_sweep)
    monkeypatch.setattr(cli, "run_sweep", broken_sweep)
    config = write(tmp_path, "cfg.json", {"count": 2, "mechanisms": ["matroid"]})
    out = str(tmp_path / ("reports" if command == "verify" else "sweep.csv"))
    argv = [command, config, "--out", out] if command == "verify" else [command, config, out]
    assert main([*argv, "--threads", "2"]) == 4
    assert capsys.readouterr().err == \
        "error: worker pool: a worker process terminated abruptly\n"
    assert not (tmp_path / "sweep.csv").exists()
    assert not (tmp_path / "reports" / "report.json").exists()


# ---------------------------------------------------------------------------
# every malformed document exits 2 with one error line, never a traceback


def _report_doc():
    inst = Instance(UniformMatroid(["a", "b"], 2), {"a": 5, "b": 4}, {"a": 2, "b": 2},
                    {"a": 2, "b": 2}, 10)
    truthful = check_truthfulness(first_price_greedy, inst, deviations_per_element=25,
                                  mechanism="broken-first-price").failures[0]
    valuation, costs, budget = gen_xos_instance(0, 0, n=3)
    xos_doc = _xos_failure_doc(valuation, costs, costs, budget,
                               XosParams(alpha=218, beta="9/2", gamma=4, seed=0))
    xos = Failure("BudgetFeasible", "xos", xos_doc, observed="61", required="<= budget 60")
    lemma1 = Failure("Lemma1Bound", "matroid", instance_to_json(inst))
    intersection = Failure("IR", "intersection-greedy", BIPARTITE_2X2)
    return {"reports": [
        {"property": "Truthful", "mechanism": "broken-first-price",
         "instances_checked": 1, "failures": [truthful.to_json()]},
        {"property": "BudgetFeasible", "mechanism": "xos",
         "instances_checked": 1, "failures": [xos.to_json()]},
        {"property": "Lemma1Bound", "mechanism": "matroid",
         "instances_checked": 1, "failures": [lemma1.to_json()]},
        {"property": "IR", "mechanism": "intersection-greedy",
         "instances_checked": 1, "failures": [intersection.to_json()]},
    ]}


def _run_doc(matroid):
    """A three-element instance over ``matroid``."""
    return {"matroid": matroid, "budget": 6, "elements": [
        {"id": e, "weight": w, "cost": 2} for e, w in (("a", 4), ("b", 3), ("c", 2))]}


DOCUMENTS = {
    "run": EXAMPLE2,
    "run-graphic": _run_doc({"kind": "graphic",
                             "edges": [["a", "u", "v"], ["b", "v", "w"], ["c", 0, "u"]]}),
    "run-partition": _run_doc({"kind": "partition", "blocks": [
        {"members": ["a", "b"], "capacity": 1}, {"members": ["c"], "capacity": 1}]}),
    "run-deadline": _run_doc({"kind": "deadline", "deadlines": {"a": 1, "b": 1, "c": 2}}),
    "run-xos": {
        "elements": [{"id": "a", "weight": 1, "cost": 2}, {"id": "b", "weight": 1, "cost": 3}],
        "budget": 9,
        "xos": {"functions": [[4, 1], [1, 5]]},
    },
    "verify": {"seed": 1, "count": 2, "n_range": [3, 4], "kinds": ["uniform", "graphic"],
               "weight_dist": "uniform", "budget_regime": "mixed",
               "deviations_per_element": 2, "mechanisms": ["matroid"],
               "include_broken": False, "threads": 1},
    "bench": {"seed": 1, "count": 2, "n_range": [3, 4], "kinds": ["uniform", "graphic"],
              "weight_dist": "heavy", "budget_regime": "tight",
              "mechanisms": ["matroid", "intersection-greedy"]},
    "replay": _report_doc(),
}
DELETE = "<delete>"
VALUES = [None, True, -1, 0, 1, 2, 1.5, "3", "x", [], [5, 3], {}, DELETE]


def _paths(doc, prefix=()):
    yield prefix
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from _paths(value, prefix + (key,))


# a document first, then a position in it, so that the large report does
# not crowd out the small configs
TARGETS = st.sampled_from(sorted(DOCUMENTS)).flatmap(
    lambda name: st.tuples(st.just(name), st.sampled_from(list(_paths(DOCUMENTS[name]))))
)


def _mutated_text(name, path, value):
    """The document with the value at ``path`` replaced, or deleted."""
    if not path:
        return "" if value == DELETE else json.dumps(value)
    doc = copy.deepcopy(DOCUMENTS[name])
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if value == DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return json.dumps(doc)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(TARGETS, st.sampled_from(VALUES))
@example(("run-xos", ("xos", "functions")), 3)
@example(("run", ("matroid", "rank")), 1.5)
@example(("run", ("matroid", "rank")), True)
@example(("run", ("matroid", "rank")), "2")
@example(("run-partition", ("matroid", "blocks", 0, "capacity")), 1.5)
@example(("run-partition", ("matroid", "blocks", 0, "members")), "abc")
@example(("run-deadline", ("matroid", "deadlines", "a")), 1.5)
@example(("run-graphic", ("matroid", "edges", 0, 1)), ["u"])
@example(("replay", ("reports", 2, "failures", 0, "mechanism")), "broken-first-price")
@example(("replay", ("reports", 0, "failures", 0, "property")), "Lemma1Bound")
@example(("replay", ("reports", 0, "failures", 0, "property")), "BidIndependence")
@example(("replay", ("reports", 0, "failures", 0, "mechanism")), "intersection-exact")
@example(("replay", ("reports", 3, "failures", 0, "instance", "matroid")),
         {"kind": "uniform", "rank": 1})
@example(("bench", ("n_range",)), [5, 3])
@example(("bench", ("count",)), "3")
@example(("bench", ("kinds",)), [])
@example(("verify", ("kinds",)), [])
@example(("replay", ("reports", 0, "failures", 0, "instance")), DELETE)
@example(("replay", ("reports", 0, "failures", 0, "element")), DELETE)
@example(("replay", ()), [])
def test_mutated_documents_exit_cleanly(target, value):
    name, path = target
    command = name.split("-")[0]
    with tempfile.TemporaryDirectory() as tmp:
        doc_path = f"{tmp}/doc.json"
        with open(doc_path, "w") as fh:
            fh.write(_mutated_text(name, path, value))
        argv = {
            "run": ["run", doc_path],
            "verify": ["verify", doc_path, "--out", f"{tmp}/reports"],
            "bench": ["bench", doc_path, f"{tmp}/sweep.csv"],
            "replay": ["replay", doc_path],
        }[command]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv)
    err = err.getvalue()
    assert code in (0, 2, 3, 4) or (code == 1 and command in ("verify", "replay"))
    assert "Traceback" not in err
    if code >= 2:
        assert err.startswith("error: ") and err.count("\n") == 1


# ---------------------------------------------------------------------------
# the exit-code contract on each error branch: the code and the one line


def _replay_record(**changes):
    """The report document holding one Lemma1Bound record, with ``changes``."""
    record = Failure("Lemma1Bound", "matroid", EXAMPLE2).to_json()
    return {"reports": [{"failures": [{**record, **changes}]}]}


def _xos_record(run=None):
    """The report document holding the XOS record of ``_report_doc``, with
    its ``run`` block replaced by ``run`` when given."""
    doc = copy.deepcopy(_report_doc()["reports"][1])
    if run is not None:
        doc["failures"][0]["instance"]["xos"]["run"] = run
    return {"reports": [doc]}


THREE_MATROIDS = {**BIPARTITE_2X2, "matroid": {
    "intersection": [*BIPARTITE_2X2["matroid"]["intersection"], {"kind": "free"}]}}

ERROR_BRANCHES = {
    "verify-unknown-key": (
        ["verify"], {**DOCUMENTS["verify"], "colour": 1}, 2,
        "error: colour: unknown key\n"),
    "run-duplicate-id": (
        ["run"], {**EXAMPLE2, "elements": [*EXAMPLE2["elements"], EXAMPLE2["elements"][0]]},
        2, "error: elements[3].id: duplicate id 'a'\n"),
    "run-matroid-on-an-xos-file": (
        ["run", "--mechanism", "matroid"], DOCUMENTS["run-xos"], 2,
        "error: matroid: missing (required unless running the XOS mechanism)\n"),
    "run-xos-without-an-xos-block": (
        ["run", "--mechanism", "xos"], EXAMPLE2, 2,
        "error: xos: missing (required for --mechanism xos)\n"),
    "run-exact-bipartite-on-three-matroids": (
        ["run", "--apx", "exact-bipartite"], THREE_MATROIDS, 2,
        "error: bipartite matching needs exactly two matroids\n"),
    "run-uniform-rank-minus-one": (
        ["run"], _run_doc({"kind": "uniform", "rank": -1}), 2,
        "error: matroid: uniform rank must be nonnegative\n"),
    "run-partition-capacity-minus-one": (
        ["run"], _run_doc({"kind": "partition", "blocks": [
            {"members": ["a", "b"], "capacity": -1}, {"members": ["c"], "capacity": 1}]}),
        2, "error: matroid: partition capacity must be nonnegative\n"),
    # a loop of each kind that can hold one, and of one matroid of an intersection
    "run-uniform-rank-zero": (
        ["run"], _run_doc({"kind": "uniform", "rank": 0}), 2,
        "error: element 'a' is a loop: no independent set holds it\n"),
    "run-partition-capacity-zero": (
        ["run"], _run_doc({"kind": "partition", "blocks": [
            {"members": ["a", "c"], "capacity": 1}, {"members": ["b"], "capacity": 0}]}),
        2, "error: element 'b' is a loop: no independent set holds it\n"),
    "run-graphic-self-loop": (
        ["run"], {"matroid": {"kind": "graphic", "edges": [["a", 0, 0], ["b", 0, 1],
                                                           ["c", 1, 2]]},
                  "budget": 3, "elements": [{"id": e, "weight": w, "cost": 1}
                                            for e, w in (("a", 5), ("b", 1), ("c", 1))]},
        2, "error: element 'a' is a loop: no independent set holds it\n"),
    "run-explicit-unlisted-element": (
        ["run"], _run_doc({"kind": "explicit", "independents": [["a"], ["b"]]}), 2,
        "error: element 'c' is a loop: no independent set holds it\n"),
    "run-greedy-intersection-with-a-loop": (
        ["run", "--apx", "greedy"], _run_doc({"intersection": [
            {"kind": "free"},
            {"kind": "partition", "blocks": [{"members": ["a", "b"], "capacity": 1},
                                             {"members": ["c"], "capacity": 0}]}]}),
        2, "error: element 'c' is a loop: no independent set holds it\n"),
    "run-xos-beta-zero": (
        ["run", "--mechanism", "xos", "--beta", "0"], DOCUMENTS["run-xos"], 2,
        "error: beta must be positive\n"),
    "run-no-xos-clauses": (
        ["run"], {**DOCUMENTS["run-xos"], "xos": {"functions": []}}, 2,
        "error: xos: an XOS valuation needs at least one additive clause\n"),
    "replay-reports-not-a-list": (
        ["replay"], {"reports": {"failures": []}}, 2,
        "error: reports: must be a list of report objects\n"),
    "replay-an-instance-file": (
        ["replay"], EXAMPLE2, 2, "error: reports: missing\n"),
    "replay-a-report-without-failures": (
        ["replay"], {"reports": [{"property": "IR"}]}, 2,
        "error: reports[0]: must be an object with a 'failures' list\n"),
    "replay-unknown-element": (
        ["replay"], _replay_record(element="zz"), 2,
        "error: element: must be null or an element id of the instance\n"),
    "replay-xos-record-without-xos": (
        ["replay"], _replay_record(mechanism="xos", property="IR"), 2,
        "error: instance.xos: missing (required to replay an XOS failure)\n"),
    "replay-xos-seed-not-an-integer": (
        ["replay"], _xos_record(run={"seed": "0", "alpha": "218", "beta": "9/2",
                                     "gamma": "4"}), 2,
        "error: instance.xos.run.seed: must be an integer\n"),
}


@pytest.mark.parametrize("case", sorted(ERROR_BRANCHES))
def test_error_branches_keep_the_exit_code_contract(tmp_path, capsys, case):
    argv, doc, code, stderr = ERROR_BRANCHES[case]
    path = write(tmp_path, "doc.json", doc)
    argv = [argv[0], path, *argv[1:]]
    if argv[0] == "verify":
        argv += ["--out", str(tmp_path / "reports")]
    assert main(argv) == code
    assert capsys.readouterr().err == stderr


def test_replay_of_a_report_without_failures_exits_0(tmp_path, capsys):
    path = write(tmp_path, "report.json", {"reports": [{"failures": []}]})
    assert main(["replay", path]) == 0
    assert capsys.readouterr() == ("report contains no failures; nothing to replay\n", "")
