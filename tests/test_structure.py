"""Module boundaries of the package source."""

import ast
import pathlib
from fractions import Fraction

import pytest

import budgetmech
from budgetmech import XosParams, XosPlan, XosValuation, xos
from budgetmech.rationals import mpq, scale_to_integers

SOURCE = pathlib.Path(budgetmech.__file__).parent


def _private_sibling_imports(path):
    """``(line, module, name)`` of each underscore-prefixed name that the
    module at ``path`` imports from another module of the package."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 0 and not (node.module or "").startswith("budgetmech"):
            continue
        for alias in node.names:
            if alias.name.startswith("_"):
                found.append((node.lineno, node.module, alias.name))
    return found


def test_no_module_imports_a_private_name_from_a_sibling():
    offenders = {
        path.name: found
        for path in sorted(SOURCE.glob("*.py"))
        if (found := _private_sibling_imports(path))
    }
    assert not offenders, offenders


def test_the_guard_sees_a_private_sibling_import(tmp_path):
    module = tmp_path / "sample.py"
    module.write_text("from .xos import XosPlan, _value_table\n"
                      "from budgetmech.verify import _around\n"
                      "from os import _exit\n")
    assert _private_sibling_imports(module) == [
        (1, "xos", "_value_table"), (2, "budgetmech.verify", "_around")]


def _package_imports(path):
    """``(line, module)`` of each package module that the module at ``path``
    imports, named within the package (``""`` is the package itself)."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.ImportFrom) and node.level:
            modules = [node.module] if node.module else [a.name for a in node.names]
            found.extend((node.lineno, module) for module in modules)
            continue
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules = [node.module]
        else:
            continue
        for name in modules:
            package, _, module = name.partition(".")
            if package == "budgetmech":
                found.append((node.lineno, module))
    return found


def test_the_oracle_imports_only_errors_and_rationals():
    """The brute-force oracle is the independent route of every ratio check,
    so it shares no code with the mechanisms and blackboxes it checks."""
    found = _package_imports(SOURCE / "oracle.py")
    assert {module for _, module in found} <= {"errors", "rationals"}, found


def test_the_guard_sees_a_package_import(tmp_path):
    module = tmp_path / "sample.py"
    module.write_text("from .errors import CapExceeded\n"
                      "from .matroids import Matroid\n"
                      "from . import verify\n"
                      "import budgetmech.mechanisms, os\n"
                      "from budgetmech import Instance\n"
                      "from fractions import Fraction\n")
    assert _package_imports(module) == [
        (1, "errors"), (2, "matroids"), (3, "verify"), (4, "mechanisms"), (5, "")]


# modules whose arithmetic must stay exact: integers and rationals only
EXACT_MODULES = ("matroids", "intersection", "mechanisms", "xos", "oracle", "rationals")


def _floats(path):
    """``(line, source)`` of each float literal and ``float(...)`` call in the
    module at ``path``."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        literal = isinstance(node, ast.Constant) and isinstance(node.value, float)
        call = (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "float")
        if literal or call:
            found.append((node.lineno, ast.unparse(node)))
    return found


def test_exact_modules_use_no_float():
    offenders = {
        name: found
        for name in EXACT_MODULES
        if (found := _floats(SOURCE / f"{name}.py"))
    }
    assert not offenders, offenders


def test_the_guard_sees_a_float(tmp_path):
    module = tmp_path / "sample.py"
    module.write_text("big = float('inf')\n"
                      "half = 0.5\n"
                      "exact = Fraction('1.5'), 3 // 2\n")
    assert _floats(module) == [(1, "float('inf')"), (2, "0.5")]


class RationalArithmetic(AssertionError):
    """A guarded rational took part in arithmetic or a comparison."""


class _Guarded(Fraction):
    """A rational whose arithmetic and comparison operators raise: code
    handed one may read its numerator and denominator only."""


def _refuse(self, *args):
    raise RationalArithmetic(f"arithmetic on {self.numerator}/{self.denominator}")


for _name in ("lt", "le", "gt", "ge", "eq", "ne", "neg", "pos", "abs", "trunc", "floor",
              "ceil", "round", *(f"{r}{op}" for op in ("add", "sub", "mul", "truediv",
                                                       "floordiv", "mod", "divmod", "pow")
                                 for r in ("", "r"))):
    setattr(_Guarded, f"__{_name}__", _refuse)


def _scoring_answers(bids, budget, threshold, beta, moves):
    """Every answer of the XOS scoring kernels and their one-bid reads over
    three elements whose values and bids mix denominators: the T1 optimum
    and the T2 argmax, in full and through a plan; both one-bid tables,
    each element's reads at each bid of ``moves``; the plan's threshold at
    ``beta``, built from its integer T1 optimum, and again at an equal
    budget in a new object; and the plan's membership breakpoints."""
    ids = ["e0", "e1", "e2"]
    valuation = XosValuation(ids, [{"e0": mpq(1), "e1": mpq(2, 3), "e2": mpq(0)},
                                   {"e0": mpq(1, 5), "e1": mpq(0), "e2": mpq(5, 3)}])
    value = scale_to_integers(xos._value_table(valuation, ids))
    cost = xos._bid_totals([bids[e] for e in ids])
    optima = xos._one_bid_optima(ids, cost, value, budget)
    winners = xos._class_winners(ids, cost, value, threshold)
    answers = [xos._opt_value_under_budget(cost, value, budget),
               xos._argmax_surplus(ids, cost, value, threshold), optima, winners]
    for e in ids:
        for bid in moves:
            answers.append(xos._optimum_at_shift(optima[e], budget, bid, bids[e]))
            answers.append(xos._argmax_at_shift(winners[e], threshold, bid, bids[e]))
    params = dict(alpha=218, beta=mpq(9, 2), gamma=4)
    t1_plan = XosPlan(valuation, XosParams(seed=1, **params))  # every element in T1
    t2_plan = XosPlan(valuation, XosParams(seed=16, **params))  # every element in T2
    t1_optimum = t1_plan.t1_optimum(bids, budget)
    assert type(t1_optimum) is int
    t1_threshold = t1_plan.threshold(t1_optimum, budget, beta)
    again = type(budget)(budget.numerator, budget.denominator)
    assert t1_plan.threshold(t1_optimum, again, beta) is t1_threshold
    answers += [t1_optimum, t1_threshold]
    answers.append(t2_plan.t2_argmax(bids, threshold))
    answers.append(t2_plan.t2_breakpoints())
    assert t1_plan.t1_ids == t2_plan.t2_ids == ids and answers[-1]
    return answers


def test_the_xos_scoring_kernels_do_no_rational_arithmetic():
    """The kernels score every subset on integers: handed bids, a budget,
    a threshold and a beta that refuse arithmetic, they read numerators
    and denominators only, and give what they give on plain rationals."""
    case = [{"e0": (1, 2), "e1": (1, 3), "e2": (5, 6)}, (5, 6), (1, 2), (9, 2),
            [(1, 7), (2, 3), (5, 6), (3, 2)]]

    def answers(kind):
        bids, budget, threshold, beta, moves = case
        return _scoring_answers({e: kind(*b) for e, b in bids.items()}, kind(*budget),
                                kind(*threshold), kind(*beta), [kind(*b) for b in moves])

    assert answers(_Guarded) == answers(mpq)


def test_the_guard_sees_rational_arithmetic():
    budget, bid, base_bid = _Guarded(5, 6), _Guarded(1, 7), _Guarded(1, 2)
    with pytest.raises(RationalArithmetic):
        budget - (bid - base_bid)
    with pytest.raises(RationalArithmetic):
        bid <= budget
    assert (bid.numerator, bid.denominator) == (1, 7)


def _identity_then_value(path):
    """``(line, source)`` of each boolean expression in the module at
    ``path`` that compares one pair of operands by identity and by value, as
    in ``a is b or a == b`` (an assignment expression counts as its
    target)."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if not isinstance(node, ast.BoolOp):
            continue
        tests = {}
        for value in node.values:
            if not (isinstance(value, ast.Compare) and len(value.ops) == 1):
                continue
            sides = frozenset(ast.unparse(getattr(side, "target", side))
                              for side in (value.left, value.comparators[0]))
            tests.setdefault(sides, set()).add(type(value.ops[0]))
        if any(kinds & {ast.Is, ast.IsNot} and kinds & {ast.Eq, ast.NotEq}
               for kinds in tests.values()):
            found.append((node.lineno, ast.unparse(node)))
    return sorted(found)


def test_only_rationals_compares_by_identity_then_value():
    """Which bid moved is one rule, ``rationals.same`` and ``moved``."""
    offenders = {
        path.name: found
        for path in sorted(SOURCE.glob("*.py"))
        if path.name != "rationals.py" and (found := _identity_then_value(path))
    }
    assert not offenders, offenders
    assert len(_identity_then_value(SOURCE / "rationals.py")) == 2


def test_the_guard_sees_an_identity_then_value_test(tmp_path):
    module = tmp_path / "sample.py"
    module.write_text("same = a is b or a == b\n"
                      "moved = [e for e in ids if (x := new[e]) is not (y := old[e]) and x != y]\n"
                      "flipped = budget != base and base is not budget\n"
                      "other = a is None or a == b\n"
                      "identity = a is b or c is d\n")
    assert [line for line, _ in _identity_then_value(module)] == [1, 2, 3]


def _sites(path, match, scope):
    """``(line, owner)`` of each node of the module at ``path`` that
    ``match`` accepts, with the name of the innermost ``scope`` node (a
    class or a function definition) around it (None outside every one)."""
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if match(child):
                found.append((child.lineno, owner))
            visit(child, child.name if isinstance(child, scope) else owner)

    visit(ast.parse(path.read_text(), str(path)), None)
    return sorted(found)


def _moved_calls(path):
    """``(line, class)`` of each call of ``moved`` (or ``rationals.moved``)
    in the module at ``path``, with the name of the innermost class around
    it (None outside every class)."""
    return _sites(path, lambda node: isinstance(node, ast.Call) and ast.unparse(node.func)
                  in ("moved", "rationals.moved"), ast.ClassDef)


def test_only_one_bid_asks_which_bid_moved():
    """Which calls a one-bid entry answers is one protocol,
    ``mechanisms.OneBid``."""
    calls = {path.name: found for path in sorted(SOURCE.glob("*.py"))
             if (found := _moved_calls(path))}
    assert list(calls) == ["mechanisms.py"], calls
    assert [owner for _, owner in calls["mechanisms.py"]] == ["OneBid"]


def test_the_guard_sees_a_moved_call(tmp_path):
    module = tmp_path / "sample.py"
    module.write_text("changed = moved(bids, base, ids)\n"
                      "class OneBid:\n"
                      "    def __call__(self, bids):\n"
                      "        return rationals.moved(bids, self.base, self.ids)\n"
                      "class Runner:\n"
                      "    def run(self):\n"
                      "        return [moved(b, c, d) for b, c, d in self.calls]\n"
                      "moved_ids = not_moved(bids, base, ids)\n")
    assert _moved_calls(module) == [(1, None), (4, "OneBid"), (7, "Runner")]


def _hint_uses(path):
    """``(line, function, use)`` of each use of the moved-bid hint in the
    module at ``path``: ``"passes"`` for a read of an ``origin`` attribute
    and ``"reads"`` for a function that takes an ``origin`` parameter, with
    the qualified name of the innermost function around the read and of the
    function itself (None outside every function)."""
    found = []

    def visit(node, scope, owner):
        for child in ast.iter_child_nodes(node):
            if (isinstance(child, ast.Attribute) and child.attr == "origin"
                    and isinstance(child.ctx, ast.Load)):
                found.append((child.lineno, owner, "passes"))
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                name = ".".join([*scope, child.name])
                if not isinstance(child, ast.ClassDef):
                    args = child.args
                    if any(a.arg == "origin"
                           for a in (*args.posonlyargs, *args.args, *args.kwonlyargs)):
                        found.append((child.lineno, name, "reads"))
                visit(child, [*scope, child.name],
                      owner if isinstance(child, ast.ClassDef) else name)
            else:
                visit(child, scope, owner)

    visit(ast.parse(path.read_text(), str(path)), [], None)
    return sorted(found)


def test_only_one_bid_reads_the_moved_bid_hint():
    """``Instance.with_bid`` records which bid moved (``origin``); only
    ``OneBidRunner.__call__`` passes it on, and only ``OneBid.__call__``
    reads it, trusting it on the one mapping it found equal to its base."""
    uses = sorted((path.name, owner, use) for path in sorted(SOURCE.glob("*.py"))
                  for _, owner, use in _hint_uses(path))
    assert uses == [("mechanisms.py", "OneBid.__call__", "reads"),
                    ("mechanisms.py", "OneBidRunner.__call__", "passes")], uses


def test_the_guard_sees_the_moved_bid_hint(tmp_path):
    module = tmp_path / "sample.py"
    module.write_text("hint = inst.origin\n"
                      "class OneBid:\n"
                      "    def __call__(self, bids, level, full, origin=None):\n"
                      "        return origin\n"
                      "class Runner:\n"
                      "    def __call__(self, inst):\n"
                      "        self.origin = None\n"
                      "        return self.one(inst.bids, inst.origin)\n"
                      "    def ask(self, *, origin):\n"
                      "        def inner(plan):\n"
                      "            return plan.origin\n"
                      "        return inner\n"
                      "origin = {'origin': None}\n")
    assert _hint_uses(module) == [
        (1, None, "passes"), (3, "OneBid.__call__", "reads"),
        (8, "Runner.__call__", "passes"), (9, "Runner.ask", "reads"),
        (11, "Runner.ask.inner", "passes")]


def _utility_calls(path):
    """``(line, function)`` of each ``.utility(...)`` call in the module at
    ``path``, with the name of the innermost function around it (None
    outside every function)."""
    return _sites(path, lambda node: isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Attribute) and node.func.attr == "utility",
                  ast.FunctionDef)


def test_verify_compares_utilities_only_in_the_deviation_sweep():
    """Whether a deviation raised a utility is one rule,
    ``verify._deviation_sweep``, which both sweeps and replay run."""
    found = _utility_calls(SOURCE / "verify.py")
    assert found and {owner for _, owner in found} == {"_deviation_sweep"}, found


def test_the_guard_sees_a_utility_call(tmp_path):
    module = tmp_path / "sample.py"
    module.write_text("u = outcome.utility(e, cost)\n"
                      "def _deviation_sweep(run):\n"
                      "    return run(e, d).utility(e, cost)\n"
                      "def replay(outcome):\n"
                      "    gained = lambda o: o.utility(e, cost) > 0\n"
                      "    return utility(inst, outcome, e)\n")
    assert _utility_calls(module) == [(1, None), (3, "_deviation_sweep"), (5, "replay")]


def _blackbox_of_reads(path):
    """``(line, function)`` of each subscript of ``BLACKBOX_OF`` (or
    ``verify.BLACKBOX_OF``) in the module at ``path``, with the name of the
    innermost function around it (None outside every function)."""
    return _sites(path, lambda node: isinstance(node, ast.Subscript)
                  and ast.unparse(node.value) in ("BLACKBOX_OF", "verify.BLACKBOX_OF"),
                  ast.FunctionDef)


def test_one_function_maps_a_mechanism_name_to_its_blackbox():
    """Which blackbox a threshold mechanism runs is one lookup,
    ``verify.threshold_blackbox``."""
    found = {(path.name, owner) for path in sorted(SOURCE.glob("*.py"))
             for _, owner in _blackbox_of_reads(path)}
    assert found == {("verify.py", "threshold_blackbox")}, found


def test_the_guard_sees_a_blackbox_of_subscript(tmp_path):
    module = tmp_path / "sample.py"
    module.write_text("name = BLACKBOX_OF['intersection-exact']\n"
                      "def runner(m, spec):\n"
                      "    return get_blackbox(verify.BLACKBOX_OF[m], spec)\n"
                      "known = m in BLACKBOX_OF\n"
                      "other = BLACKBOX_OF_NAMES[m]\n")
    assert _blackbox_of_reads(module) == [(1, None), (3, "runner")]


def _definers(path, method):
    """``(module, class)`` of each class in the module at ``path`` whose body
    defines ``method``, by a ``def`` or an assignment."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if not isinstance(node, ast.ClassDef):
            continue
        for item in node.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names = [item.name]
            elif isinstance(item, ast.Assign):
                names = [ast.unparse(target) for target in item.targets]
            elif isinstance(item, ast.AnnAssign):
                names = [ast.unparse(item.target)]
            else:
                names = []
            if method in names:
                found.append((path.stem, node.name))
    return sorted(found)


def test_matroids_keep_one_structure_per_job_and_two_for_graphic_and_deadline():
    """Uniform, free and partition count room in one class,
    ``_BlockExtender``, and repair with it; explicit repairs with its
    whole-set oracle.  Only graphic and deadline keep a second structure
    for the repair, each measured faster than one structure for both jobs."""
    exchange = [found for path in sorted(SOURCE.glob("*.py"))
                for found in _definers(path, "exchange")]
    assert exchange == [("matroids", "DeadlineMatroid"), ("matroids", "GraphicMatroid"),
                        ("matroids", "Matroid")], exchange
    fits = [found for path in sorted(SOURCE.glob("*.py")) for found in _definers(path, "fits")]
    assert fits == [("matroids", name) for name in sorted((
        "_OracleExtender", "_BlockExtender", "_ForestExtender", "_ForestCut",
        "_LatestFreeSlot", "_SlackSlots"))], fits


def test_the_guard_sees_a_method_definition(tmp_path):
    module = tmp_path / "sample.py"
    module.write_text("class Room:\n"
                      "    def fits(self, e):\n"
                      "        return True\n"
                      "class Outer:\n"
                      "    class Inner:\n"
                      "        async def fits(self, e): ...\n"
                      "    room = fits = None\n"
                      "class Typed:\n"
                      "    fits: object = len\n"
                      "class Other:\n"
                      "    def fit(self, e): ...\n"
                      "    room = 0\n"
                      "def fits(e):\n"
                      "    return e\n")
    assert _definers(module, "fits") == [
        ("sample", "Inner"), ("sample", "Outer"), ("sample", "Room"), ("sample", "Typed")]


def _private_uses(path):
    """``(line, owner, source)`` of each read or write of an
    underscore-prefixed attribute (not a dunder) on an object other than
    ``self`` or ``cls`` in the module at ``path``, with the qualified name
    of the innermost function around it (None outside every function)."""
    found = []

    def visit(node, scope, owner):
        for child in ast.iter_child_nodes(node):
            if (isinstance(child, ast.Attribute) and child.attr.startswith("_")
                    and not child.attr.endswith("__")
                    and not (isinstance(child.value, ast.Name)
                             and child.value.id in ("self", "cls"))):
                found.append((child.lineno, owner, ast.unparse(child)))
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                name = ".".join([*scope, child.name])
                visit(child, [*scope, child.name],
                      owner if isinstance(child, ast.ClassDef) else name)
            else:
                visit(child, scope, owner)

    visit(ast.parse(path.read_text(), str(path)), [], None)
    return sorted(found)


def test_objects_use_each_others_private_attributes_only_where_named():
    """A trace step, a plan and a matroid expose what other code reads.
    Two reads stay: ``IntersectionSpec.is_independent`` asks each matroid's
    ``_independent`` after one member check for all of them, and
    ``TraceStep.__eq__`` compares the other step's rendered fields."""
    found = {(path.name, owner, source) for path in sorted(SOURCE.glob("*.py"))
             for _, owner, source in _private_uses(path)}
    assert found == {
        ("intersection.py", "IntersectionSpec.is_independent", "m._independent"),
        ("mechanisms.py", "TraceStep.__eq__", "other._fields"),
    }, found


def test_the_guard_sees_a_private_use(tmp_path):
    module = tmp_path / "sample.py"
    module.write_text("key = step._key\n"
                      "class Spec:\n"
                      "    def check(self, m):\n"
                      "        return m._independent(self._ground) and self.__class__\n"
                      "    @classmethod\n"
                      "    def build(cls):\n"
                      "        def inner(plan):\n"
                      "            plan._ground = cls._cache\n"
                      "        return inner\n"
                      "size = obj.__len__() + len(obj.public)\n")
    assert _private_uses(module) == [
        (1, None, "step._key"), (4, "Spec.check", "m._independent"),
        (8, "Spec.build.inner", "plan._ground")]
