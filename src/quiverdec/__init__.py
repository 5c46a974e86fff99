"""Exact root-system combinatorics for quiver moment-map reductions.

The package computes, entirely in exact integer and rational arithmetic:

- Kac root classification and positive-root enumeration for arbitrary
  quivers (loops and parallel arrows included), with Dynkin and extended
  Dynkin recognition and the minimal imaginary root delta;
- the weight-orthogonal root sets, their additive closure, the
  strict-inequality set Sigma, and the induced norm;
- the canonical decomposition of a dimension vector into Sigma members,
  with the factor classification, dimension, representation type, and
  product formula of the associated reduction;
- the admissible-reflection calculus on (weight, dimension) pairs;
- independent brute-force oracles and exhaustive lemma checks.

See the ``demos/`` directory for narrative walkthroughs and the
``quiverdec`` command for the CLI.
"""

from importlib import resources

from .caps import Caps, DEFAULT_CAPS
from .decomposer import (
    CanonicalDecomposition,
    Factor,
    ProductReport,
    Term,
    canonical_decompose,
    check_refinement,
    dimension_of_N,
    kleinian_label,
    product_structure_report,
    representation_type,
    sigma_maximizer_count,
)
from .errors import (
    DimensionMismatch,
    InadmissibleStep,
    InternalInconsistency,
    InvalidCaps,
    NotInNRLambdaPlus,
    NotIsotropicSigma,
    QuiverdecError,
    ResourceLimit,
    SumMismatch,
)
from .lambda_roots import (
    LambdaContext,
    in_N_R_lambda_plus,
    in_R_lambda_plus,
    in_sigma_lambda,
    max_proper_sum_p,
    norm_lambda,
    sigma_lambda_upto,
)
from .quiver_core import (
    Quiver,
    bilinear_form,
    coordinate_vector,
    dim_vector,
    lambda_dot,
    p_form,
    parse_quiver_json,
    q_form,
    quiver_from_json_dict,
    quiver_to_json_dict,
    restrict,
    support,
    weight_vector,
    zero_vector,
)
from .reflection_walk import (
    NormalizedPair,
    PairState,
    apply_sequence,
    descend,
    dual_reflection,
    fundamental_representative,
    is_admissible,
    make_pair,
    normalize_pair,
    reflect_pair,
    strip_simple,
)
from .root_system import (
    QuiverShape,
    RootClass,
    ShapeKind,
    ade_label,
    classify_root,
    classify_shape,
    dynkin_quiver,
    extended_dynkin_quiver,
    in_fundamental_region,
    positive_roots_upto,
    simple_reflection,
)

__version__ = "0.1.0"


def fixture_path(name: str) -> str:
    """Filesystem path of a bundled quiver fixture, e.g. ``kronecker.json``."""
    return str(resources.files(__name__).joinpath("fixtures", name))


def load_fixture(name: str) -> Quiver:
    """Load a bundled quiver fixture by file name."""
    text = resources.files(__name__).joinpath("fixtures", name).read_text()
    return parse_quiver_json(text)
