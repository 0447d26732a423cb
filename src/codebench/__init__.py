"""codebench: a finite-field coding-theory workbench.

Constructs the BCH codes C_(q,q+1,3,h) and their duals, computes exact
weight distributions and MDS/NMDS/AMDS classifications, extracts and
verifies the 3-designs these codes hold, and computes subfield subcodes.
"""

from .codes import (
    CodeSpec,
    LinearCode,
    TraceDualSpec,
    bch_build,
    classify_h,
    dual,
    min_distance,
    parity_check_rows,
    trace_dual,
)
from .config import default_budget
from .cyclotomic import CyclotomicCoset, Poly, coset, coset_leaders, minimal_poly
from .designs import (
    CyclicBlocks,
    Design,
    design_from_blocks,
    steiner_check,
    supports_of_weight,
    verify_design,
    weight4_blocks_det,
    weight5_blocks_rank,
)
from .diophantine import (
    SolutionCount,
    all_zeros_Pa,
    congruence_solutions,
    count_unit_solutions,
    count_zeros_Pa,
    gcd_minus_plus,
    gcd_plus_plus,
    predict_case12,
)
from .galois import (
    Field,
    FieldElement,
    UnitCircle,
    field_new,
    rel_trace,
    subfield_embedding,
    unit_circle,
)
from .subfield import (
    SubcodeReport,
    dimension_by_cosets,
    report_tables,
    subfield_subcode_bch,
    subfield_subcode_generic,
)
from .weights import (
    Classification,
    WeightDistribution,
    classify,
    enumerator_formula,
    macwilliams,
    verify_four_weight,
    weight_distribution,
)

__version__ = "0.1.0"
