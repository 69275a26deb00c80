"""Shared test plumbing: acceptance-criterion reporting and the hypothesis
strategies for small matroids, intersections and tie-heavy rationals.

Criterion tests register one line each; the table is printed in the terminal
summary so it stays visible regardless of output capture.
"""

from hypothesis import strategies as st

from budgetmech import (
    DeadlineMatroid,
    ExplicitMatroid,
    FreeMatroid,
    GraphicMatroid,
    IntersectionSpec,
    PartitionMatroid,
    UniformMatroid,
)
from budgetmech.oracle import enumerate_independent_sets
from budgetmech.rationals import mpq

_CRITERION_LINES = []


def record_criterion(name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    line = f"[{status}] {name}" + (f" | {detail}" if detail else "")
    _CRITERION_LINES.append(line)
    print(line)


def pytest_terminal_summary(terminalreporter):
    if not _CRITERION_LINES:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for line in _CRITERION_LINES:
        terminalreporter.write_line(line)


MATROID_KINDS = ("uniform", "free", "partition", "graphic", "deadline", "explicit")


@st.composite
def matroids(draw, kind, loops=False):
    """Small matroid of ``kind`` over ids listed out of id order, with
    parallel edges in reach, and with ``loops`` (rank 0, capacity 0,
    self-loops) in reach too.  An ``Instance`` rejects a loop, so a draw for
    a mechanism run leaves them out."""
    least = 0 if loops else 1  # the least rank or capacity drawn
    n = draw(st.integers(1, 8))
    ids = [f"x{j}" for j in range(n)][::-1]
    if kind == "uniform":
        return UniformMatroid(ids, draw(st.integers(least, n)))
    if kind == "free":
        return FreeMatroid(ids)
    if kind == "partition":
        labels = [draw(st.integers(0, 2)) for _ in ids]
        blocks = []
        for label in sorted(set(labels)):
            members = {e for e, b in zip(ids, labels) if b == label}
            blocks.append((members, draw(st.integers(least, len(members)))))
        return PartitionMatroid(ids, blocks)
    if kind == "graphic":
        # three vertices: parallel edges are common, u == v is a self-loop
        ends = st.integers(0, 2)
        edges = [(e, draw(ends), draw(ends)) for e in ids]
        return GraphicMatroid([(e, u, v if loops or v != u else (u + 1) % 3)
                               for e, u, v in edges])
    if kind == "deadline":
        return DeadlineMatroid(ids, {e: draw(st.integers(1, n)) for e in ids})
    base = draw(matroids(draw(st.sampled_from(MATROID_KINDS[:-1])), loops))
    return ExplicitMatroid(base.ground, enumerate_independent_sets(base))


# small rationals over mixed denominators: value ties are common
RATIONALS = st.builds(mpq, st.integers(1, 9), st.sampled_from((1, 2, 3, 4, 6)))


@st.composite
def bipartite_specs(draw):
    """Two capacity-1 partition matroids: a bipartite graph, parallel edges
    and isolated vertices in reach."""
    ids = [f"x{j}" for j in range(draw(st.integers(1, 7)))][::-1]

    def side():
        labels = [draw(st.integers(0, 2)) for _ in ids]
        return PartitionMatroid(ids, [({e for e, b in zip(ids, labels) if b == label}, 1)
                                      for label in sorted(set(labels))])

    return IntersectionSpec([side(), side()])


@st.composite
def mixed_specs(draw, loops=False):
    """A matroid of any kind intersected with a partition matroid, with
    loops of either in reach when ``loops``."""
    base = draw(matroids(draw(st.sampled_from(MATROID_KINDS)), loops))
    labels = [draw(st.integers(0, 1)) for _ in base.ground]
    blocks = []
    for label in sorted(set(labels)):
        members = {e for e, b in zip(base.ground, labels) if b == label}
        blocks.append((members, draw(st.integers(0 if loops else 1, len(members)))))
    return IntersectionSpec([base, PartitionMatroid(base.ground, blocks)])
