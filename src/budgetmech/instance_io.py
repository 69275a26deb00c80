"""Loading, validating and serializing instance files and outcomes.

Wire format (JSON):

    {
      "matroid": {"kind": "uniform", "rank": 2} |
                 {"intersection": [matroid, matroid, ...]},
      "elements": [{"id": "a", "weight": 6, "cost": 3, "bid": "7/2"}, ...],
      "budget": 10,
      "xos": {"functions": [[per-element values], ...]}      // optional
    }

Rationals travel as integers or "p/q" strings; floats are rejected.  "bid"
defaults to "cost".  "matroid" may be omitted only when "xos" is present.
"""

import hashlib
import json
from dataclasses import dataclass
from typing import Optional

from .errors import InputError, SchemaError
from .intersection import IntersectionSpec
from .matroids import matroid_from_json
from .mechanisms import Instance, Outcome
from .rationals import format_rational, is_int, parse_rational, to_decimal
from .xos import XosOutcome, XosValuation


@dataclass
class LoadedInstance:
    elements: tuple
    weights: dict
    costs: dict
    bids: dict
    budget: object
    structure: object  # Matroid | IntersectionSpec | None
    xos: Optional[XosValuation]
    raw: dict

    def mechanism_instance(self):
        if self.structure is None:
            raise SchemaError("matroid", "missing (required unless running the XOS mechanism)")
        return Instance(self.structure, self.weights, self.costs, self.bids, self.budget)


def parse_rational_field(value, field):
    """A positive rational read from outside input; SchemaError names ``field``."""
    q = parse_rational(value, field)
    if q.numerator <= 0:
        raise SchemaError(field, "must be positive")
    return q


def load_instance(obj):
    """Validate a parsed instance document; raises SchemaError naming the field.

    Each distinct wire text is parsed once: one table per document maps it to
    its rational for the element fields and the XOS clause values, so fields
    that share a text share one (immutable) rational.
    """
    if not isinstance(obj, dict):
        raise SchemaError("document", "instance file must be a JSON object")
    if "elements" not in obj:
        raise SchemaError("elements", "missing")
    elements = obj["elements"]
    if not isinstance(elements, list) or not elements:
        raise SchemaError("elements", "must be a nonempty list")

    texts = {}

    def rational(value, field):
        # parse_rational accepts only strings and JSON integers, so every
        # rational read is in the table.  True and 1.0 equal 1 but are never
        # keys: they reach parse_rational, which rejects them
        if not isinstance(value, str) and not is_int(value):
            return parse_rational(value, field)
        q = texts.get(value)
        if q is None:
            q = texts[value] = parse_rational(value, field)
        return q

    def positive(value, field):
        q = rational(value, field)
        if q.numerator <= 0:
            raise SchemaError(field, "must be positive")
        return q

    ids, weights, costs, bids = [], {}, {}, {}
    for idx, entry in enumerate(elements):
        if not isinstance(entry, dict) or "id" not in entry:
            raise SchemaError(f"elements[{idx}]", "must be an object with an 'id'")
        e = entry["id"]
        if not isinstance(e, str) or not e:
            raise SchemaError(f"elements[{idx}].id", "must be a nonempty string")
        if e in weights:
            raise SchemaError(f"elements[{idx}].id", f"duplicate id {e!r}")
        if "weight" not in entry:
            raise SchemaError(f"elements[{idx}].weight", "missing")
        if "cost" not in entry:
            raise SchemaError(f"elements[{idx}].cost", "missing")
        ids.append(e)
        try:  # the element's field name is built only for an error
            weights[e] = positive(entry["weight"], "weight")
            costs[e] = positive(entry["cost"], "cost")
            bids[e] = positive(entry["bid"], "bid") if "bid" in entry else costs[e]
        except SchemaError as exc:
            raise SchemaError(f"elements[{idx}].{exc.field}", exc.message) from exc

    if "budget" not in obj:
        raise SchemaError("budget", "missing")
    budget = parse_rational_field(obj["budget"], "budget")
    # q > budget on integers (every denominator is positive), once per
    # distinct rational; weights are tested too, but only a bid or a cost is
    # named, the first in element order, bid before cost
    num, den = budget.numerator, budget.denominator
    over = {id(q) for q in texts.values() if q.numerator * den > num * q.denominator}
    if over:
        for e in ids:
            for name, q in (("bid", bids[e]), ("cost", costs[e])):
                if id(q) in over:
                    raise SchemaError("elements", f"{name} of {e!r} exceeds the budget")

    structure = None
    if "matroid" in obj and obj["matroid"] is not None:
        spec = obj["matroid"]
        intersection = isinstance(spec, dict) and "intersection" in spec
        if intersection and not isinstance(spec["intersection"], list):
            raise SchemaError("matroid.intersection", "must be a list of matroids")
        try:
            if intersection:
                structure = IntersectionSpec(
                    [matroid_from_json(m, ids) for m in spec["intersection"]]
                )
            else:
                structure = matroid_from_json(spec, ids)
        except InputError as exc:
            raise SchemaError("matroid", str(exc)) from exc
    elif "xos" not in obj:
        raise SchemaError("matroid", "missing (required unless 'xos' is present)")

    valuation = None
    if "xos" in obj and obj["xos"] is not None:
        xspec = obj["xos"]
        if not isinstance(xspec, dict) or "functions" not in xspec:
            raise SchemaError("xos.functions", "missing")
        if not isinstance(xspec["functions"], list):
            raise SchemaError("xos.functions", "must be a list of per-element value lists")
        functions = []
        for k, row in enumerate(xspec["functions"]):
            if not isinstance(row, list) or len(row) != len(ids):
                raise SchemaError(
                    f"xos.functions[{k}]", f"must list one value per element ({len(ids)})"
                )
            try:  # the clause value's field name is built only for an error
                functions.append({e: rational(v, j) for j, (e, v) in enumerate(zip(ids, row))})
            except SchemaError as exc:
                raise SchemaError(f"xos.functions[{k}][{exc.field}]", exc.message) from exc
        try:
            valuation = XosValuation(ids, functions)
        except InputError as exc:
            raise SchemaError("xos", str(exc)) from exc

    return LoadedInstance(
        elements=tuple(ids),
        weights=weights,
        costs=costs,
        bids=bids,
        budget=budget,
        structure=structure,
        xos=valuation,
        raw=obj,
    )


def read_json(path):
    """Parse one JSON input file; malformed text is a SchemaError naming the path."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except ValueError as exc:  # invalid JSON or undecodable bytes
            raise SchemaError(path, f"invalid JSON: {exc}") from exc


def load_instance_file(path):
    return load_instance(read_json(path))


def instance_to_json(inst):
    """Canonical replayable document for a mechanism Instance."""
    return {
        "matroid": inst.structure.to_json(),
        "elements": [
            {
                "id": e,
                "weight": format_rational(inst.weights[e]),
                "cost": format_rational(inst.true_costs[e]),
                "bid": format_rational(inst.bids[e]),
            }
            for e in inst.structure.ground
        ],
        "budget": format_rational(inst.budget),
    }


def xos_instance_to_json(valuation, costs, bids, budget):
    ids = list(valuation.ground)
    return {
        "elements": [
            {
                "id": e,
                "weight": "1",
                "cost": format_rational(costs[e]),
                "bid": format_rational(bids[e]),
            }
            for e in ids
        ],
        "budget": format_rational(budget),
        "xos": {
            "functions": [
                [format_rational(f[e]) for e in ids] for f in valuation.functions
            ]
        },
    }


def instance_hash(doc):
    """Short stable identifier of a canonical instance document."""
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


def _rate_to_json(rate):
    return "inf" if rate is None else format_rational(rate)


def outcome_to_json(outcome, include_trace=False):
    payments, total = sorted(outcome.payments.items()), outcome.total_payment
    doc = {
        "allocation": sorted(outcome.allocation),
        "payments": {e: format_rational(p) for e, p in payments},
        "payments_decimal": {e: to_decimal(p) for e, p in payments},
        "total_payment": format_rational(total),
        "total_payment_decimal": to_decimal(total),
        "budget": format_rational(outcome.budget),
    }
    if isinstance(outcome, Outcome):
        doc["branch"] = outcome.branch
        doc["tau"] = outcome.tau
        doc["final_rate"] = _rate_to_json(outcome.final_rate)
        if include_trace:
            doc["trace"] = [
                {
                    "iteration": step.iteration,
                    "rate": None if step.rate is None else format_rational(step.rate),
                    "removed": step.removed,
                    "set": list(step.chosen),
                    "value": format_rational(step.value),
                }
                for step in outcome.trace
            ]
    elif isinstance(outcome, XosOutcome):
        doc["branch"] = outcome.branch
        doc["t1"] = sorted(outcome.t1)
        doc["t2"] = sorted(outcome.t2)
        doc["threshold"] = (
            None if outcome.threshold is None else format_rational(outcome.threshold)
        )
        doc["s_star"] = None if outcome.s_star is None else sorted(outcome.s_star)
        doc["clause_index"] = outcome.clause_index
        if include_trace and outcome.inner is not None:
            doc["inner"] = outcome_to_json(outcome.inner, include_trace=True)
    return doc
