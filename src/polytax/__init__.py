"""polytax: economic-policy taxonomy engine and trait analytics.

The analytics names below are resolved on first access, so importing the
package does not import numpy; only analytics does.
"""

from .model import (
    AtomicPolicy,
    AtomicPolicySchema,
    CheckTable,
    Diagnostic,
    ParameterSpec,
    PolicyCategory,
    PolicyError,
    SubtraitDef,
    TableRow,
    TaxonomyModel,
    TaxonomyNode,
    TraitDef,
    TransactionChannel,
    instantiate_atomic_policy,
    validate_model,
)
from .ingest import (
    IngestError,
    load_bundled_dataset,
    merge_extension,
    parse_taxonomy_document,
    serialize_taxonomy_document,
)
from .enumeration import (
    EnumerationFilter,
    count_checkmarks,
    enumerate_schemas,
    lookup,
)

__version__ = "0.1.0"

_ANALYTICS = frozenset({
    "build_trait_matrix",
    "euclidean_distance",
    "kruskal_mst",
    "pearson_correlation",
})


def __getattr__(name: str):
    if name in _ANALYTICS:
        from . import analytics

        return getattr(analytics, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
