"""Zhang-Zhang polynomials of regular benzenoid strips.

Computes the ZZ (Clar covering) polynomial of any Kekulean regular
multi-tier benzenoid strip as the extended strict order polynomial of
its DIB poset, generates explicit Kekule structures and Clar covers,
and cross-validates everything against a brute-force graph oracle.
"""

from .dib_poset import (
    Dib,
    DibPoset,
    NaturalLabeling,
    build_poset,
    natural_labeling,
)
from .errors import GuardExceeded, InvalidStripError, NonKekuleanError, StripParseError
from .extension_engine import LinearExtensionRecord, extension_records
from .kekule_bijection import (
    ClarCoverRecord,
    KekuleAssignment,
    OrderMap,
    enumerate_kekule,
    generate_clar_covers,
    kekule_from_map,
    map_from_kekule,
)
from .oracle import (
    count_clar_covers,
    count_proper_sextets,
    count_sextet_matchings,
    enumerate_perfect_matchings,
    extract_ki,
)
from .order_polynomials import (
    ClosedForm,
    ZzPolynomial,
    closed_form,
    extended_poly_subposet_sum,
    zz_polynomial,
)
from .strip_geometry import (
    BenzenoidGraph,
    Hexagon,
    InterfaceProfile,
    StripSpec,
    ValidationReport,
    build_graph,
    interface_profile,
    parse_strip,
    shapes_from_graph,
    validate,
)

__all__ = [
    "BenzenoidGraph",
    "ClarCoverRecord",
    "ClosedForm",
    "Dib",
    "DibPoset",
    "GuardExceeded",
    "Hexagon",
    "InterfaceProfile",
    "InvalidStripError",
    "KekuleAssignment",
    "LinearExtensionRecord",
    "NaturalLabeling",
    "NonKekuleanError",
    "OrderMap",
    "StripParseError",
    "StripSpec",
    "ValidationReport",
    "ZzPolynomial",
    "build_graph",
    "build_poset",
    "closed_form",
    "count_clar_covers",
    "count_proper_sextets",
    "count_sextet_matchings",
    "enumerate_kekule",
    "enumerate_perfect_matchings",
    "extended_poly_subposet_sum",
    "extension_records",
    "extract_ki",
    "generate_clar_covers",
    "interface_profile",
    "kekule_from_map",
    "map_from_kekule",
    "natural_labeling",
    "parse_strip",
    "shapes_from_graph",
    "validate",
    "zz_polynomial",
]

__version__ = "0.1.0"
