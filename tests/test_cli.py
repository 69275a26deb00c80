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

from budgetmech import Instance, UniformMatroid, cli, first_price_greedy, verify
from budgetmech.cli import main
from budgetmech.instance_io import instance_to_json
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


def _golden_run_stdout(tmp_path, case):
    """``run --trace`` stdout on the generated instance named by ``case``,
    ``<kind>-<n>-<budget regime>`` plus ``-<apx>`` for bipartite."""
    kind, n, regime, *apx = case.split("-", 3)
    config = GeneratorConfig(1, 0, (int(n), int(n)), (kind,), budget_regime=regime)
    if kind == "bipartite":
        inst, flags = gen_bipartite_instance(config, 0), ["--apx", *apx]
    else:
        inst, flags = gen_matroid_instance(config, 0), []
    path = write(tmp_path, "golden.json", instance_to_json(inst))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["run", path, "--trace", *flags]) == 0
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
    assert not (out_dir / "report.json").exists()
    assert not (out_dir / "summary.csv").exists()


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
    assert capsys.readouterr().err == "error: threads: must be a positive integer\n"


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
