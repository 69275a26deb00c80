"""Budget-feasible procurement mechanisms over matroids and XOS valuations.

Library layout:

- ``matroids``      matroid families, deletion, greedy maximum
- ``intersection``  matroid intersections and approximation blackboxes
- ``mechanisms``    the two threshold mechanisms (allocation + payments)
- ``xos``           the randomized XOS sampling mechanism and its constants
- ``oracle``        brute-force budgeted optima (the independent check side)
- ``verify``        property harness: truthfulness, IR, budget, ratios
- ``cli``           command-line front end (run / verify / bench / replay)
"""

from .errors import CapExceeded, InputError, SchemaError
from .intersection import (
    ApxBlackbox,
    IntersectionSpec,
    exact_bipartite_matching,
    get_blackbox,
    greedy_common_independent,
)
from .matroids import (
    DeadlineMatroid,
    ExplicitMatroid,
    FreeMatroid,
    GraphicMatroid,
    Matroid,
    PartitionMatroid,
    UniformMatroid,
    matroid_from_json,
    max_weight_independent_set,
    set_weight,
)
from .mechanisms import (
    Instance,
    Outcome,
    Plan,
    TraceStep,
    first_price_greedy,
    run_intersection_mechanism,
    run_matroid_mechanism,
    utility,
)
from .oracle import brute_force_max, brute_force_opt, xos_opt
from .rationals import format_rational, mpq, parse_rational, to_decimal
from .xos import (
    XosOutcome,
    XosParams,
    XosPlan,
    XosValuation,
    optimize_constant,
    partition_halves,
    random_split,
    xos_mechanism_main,
    xos_objective,
)

__version__ = "0.1.0"
