"""Exact construction and verification of certificates for
non-finitely-generated intermediate invariant algebras.

The pipeline: an invariant subring with a distinguished pair (f, g) is
collapsed onto the x1-axis, the quotient h and the monic annihilator of
the collapsed pair are derived, an x1-inversion twist with suitable
weights is built, and a family of honest polynomials q_0, q_1, ... is
produced whose membership data is bundled into a machine-checkable
certificate.  Everything is exact rational arithmetic.
"""

from .algebra import (
    LaurentPoly,
    VarSet,
    determinant_fraction_free,
    plain_vars,
    qq,
    resultant,
    sylvester_matrix,
    x_vars,
    xz_vars,
)
from .constructions import (
    Derivation,
    PermGroupSpec,
    apply_derivation,
    find_preslice,
    invariant_generators,
    invariant_witness_pack,
    orbit_sum,
    preslice_involution,
)
from .errors import (
    AlgebraError,
    ConstructionFailure,
    FormatError,
    NotDivisible,
    NotInvertible,
    UnsupportedCase,
    VariableMismatch,
    WitnessInvalid,
    ZeroInput,
)
from .family import (
    CertEntry,
    Certificate,
    build_certificate,
    decompose,
    reduce_by_annihilator,
    tail_coefficients,
    verify_certificate,
    witness_poly,
)
from .maps import RingMap, axis_map, inversion_map
from .report import Check, Report, format_report
from .serialize import (
    certificate_from_json,
    certificate_to_json,
    dumps,
    fgpoly_from_json,
    fgpoly_to_json,
    frac_from_str,
    group_from_json,
    load_json_file,
    pack_from_json,
    pack_to_json,
    poly_from_json,
    poly_to_json,
    unipoly_from_json,
    unipoly_to_json,
    write_json_file,
)
from .witness import (
    Resolved,
    SemigroupTable,
    WitnessPack,
    axis_quotient,
    build_annihilator,
    check_twist,
    choose_weights,
    clearing_exponent,
    generator_rows,
    is_normal,
    realize_annihilator,
    resolve_pack_fields,
    semigroup_orders,
    subalgebra_member,
    validate_pack,
)

__version__ = "0.1.0"
