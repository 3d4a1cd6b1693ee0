"""Desk-scale thermodynamic formalism for countable-state Markov shifts."""

from .expsum import ExpSum
from .graphs import (
    BlockLabeling,
    BudgetExceededError,
    ExhaustionLevel,
    ExhaustionPresentation,
    FiniteGraph,
    FinitePresentation,
    GraphError,
    PeriodicPoint,
    build_graph,
    enumerate_periodic,
    higher_block,
    irreducible_and_period,
)
from .potentials import (
    FiniteRangePotential,
    GeometricTail,
    PolynomialTail,
    RegularityClass,
    VariationCertificate,
    ZeroTail,
    birkhoff_sum,
    bowen_reduce,
    certify_class,
    check_variation_certificate,
    lift_variation,
)
from .thermo import (
    ConvergenceError,
    MarkovMeasure,
    PartitionFunctionTable,
    PressureEstimate,
    RecurrenceClass,
    distortion_constant,
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
from .induction import (
    InducedPresentation,
    Loop,
    LoopSystem,
    TailDescriptor,
    induce,
    induce_structured,
    lift_potential,
    loop_partition_function,
    phi_injective_on_periodic,
    verify_zn_coincidence,
)
from .codes import (
    AlmostIsomorphism,
    CodeError,
    DomainError,
    EventuallyPeriodicPoint,
    MagicWordCertificate,
    OneBlockCode,
    assemble_ai,
    from_periodic,
    gamma_on_point,
    labeling_code,
    points_equal,
    shift_point,
    transport_measure,
    verify_correspondence,
    verify_magic,
)

__version__ = "0.1.0"
