"""Desk-scale thermodynamic formalism for countable-state Markov shifts.

``import shiftlab`` loads the core: ``expsum``, ``kernels``, ``intervals``,
``graphs``, ``potentials`` and ``thermo``.  The two leaf layers, ``induction``
and ``codes``, load on first use of one of their names (PEP 562), so a
command that needs neither does not pay for them.
"""

from importlib import import_module as _import_module

from . import expsum, graphs, intervals, kernels, potentials, thermo
from .expsum import ExpSum
from .graphs import (
    BlockLabeling,
    BudgetExceededError,
    ExhaustionLevel,
    ExhaustionPresentation,
    FiniteGraph,
    FinitePresentation,
    GraphError,
    build_graph,
    enumerate_periodic,
    higher_block,
    irreducible_and_period,
)
from .potentials import FiniteRangePotential, birkhoff_sum, bowen_reduce
from .thermo import (
    ConvergenceError,
    MarkovMeasure,
    PartitionFunctionTable,
    PressureEstimate,
    RecurrenceClass,
    equilibrium_measure,
    export_zn_csv,
    measure_pressure,
    partition_function,
    pressure_exhaustion,
    pressure_from_table,
    pressure_spectral,
    recurrence_classify,
    zeta_series,
)

# name -> leaf module that defines it; the modules themselves load lazily too
_LAZY = {
    **dict.fromkeys(
        ("InducedPresentation Loop LoopSystem TailDescriptor induce lift_potential "
         "loop_partition_function phi_injective_on_periodic verify_zn_coincidence").split(),
        "induction",
    ),
    **dict.fromkeys(
        ("AlmostIsomorphism CodeError DomainError EventuallyPeriodicPoint MagicWordCertificate OneBlockCode "
         "assemble_ai from_periodic gamma_on_point labeling_code transport_measure "
         "verify_correspondence verify_magic").split(),
        "codes",
    ),
}

# the core's names and modules as imported above, then the leaf layers'
__all__ = sorted([name for name in globals() if not name.startswith("_")] + [*_LAZY, "induction", "codes"])

__version__ = "0.1.0"


def __getattr__(name):
    if name in ("induction", "codes"):
        return _import_module(f".{name}", __name__)
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f".{_LAZY[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
