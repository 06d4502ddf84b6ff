"""Appendix-B featurization, in two tiers sharing one fit.

**Tier 1 — the scalar reference.**  :class:`Featurizer` is fitted on a
training corpus (one-hot vocabularies, per-type whitening statistics, the
latency scale) and maps any plan node to its fixed-size ``F(op)`` vector:
``transform_node`` walks the per-operator :class:`FeatureSchema`
(:data:`FEATURE_SCHEMAS`, a 1:1 transcription of paper Table 2) property
by property.  This tier is the readable source of truth —
every fast path is property-tested bitwise-equal against it in float64.

**Tier 2 — compiled feature programs** (:mod:`repro.featurize.compiled`).
Per logical type, :class:`FeatureProgram` pre-resolves the entire column
layout — scalar-numeric gather order, vector slots, the whitener's
mean/std rows, every one-hot's ``category -> absolute column`` dict, the
boolean columns — so featurizing a whole structure bucket is a handful of
vectorized column assignments plus one fancy-index scatter for all hot
one-hot cells.  :meth:`Featurizer.compiled` hands out the shared
:class:`FeatureProgramCache` (programs + per-signature layouts + plan
identity digests); :class:`FeatureVectorCache` adds a bounded LRU from
plan identity to finished feature rows, so the heavily templated
workloads production serving sees skip featurization entirely on repeat
queries.  The serving session (:class:`repro.serving.InferenceSession`)
and the training pre-grouping path
(:meth:`repro.core.batching.PreGroupedCorpus.from_samples`) both run this
tier.

All fitted state the transforms read is frozen at :meth:`Featurizer.fit`
time (including the ``extra_numeric_fn`` block width), so one featurizer
can be shared across serving threads; refitting or swapping the hook
invalidates the compiled tier.
"""

from .compiled import FeatureProgram, FeatureProgramCache, FeatureVectorCache
from .encoders import NumericWhitener, OneHotEncoder, encode_boolean
from .featurizer import Featurizer
from .schema import FEATURE_SCHEMAS, UNIVERSAL_NUMERIC, FeatureSchema, schema_for
from .serialize import featurizer_from_dict, featurizer_to_dict

__all__ = [
    "NumericWhitener",
    "OneHotEncoder",
    "encode_boolean",
    "Featurizer",
    "FeatureProgram",
    "FeatureProgramCache",
    "FeatureVectorCache",
    "FeatureSchema",
    "FEATURE_SCHEMAS",
    "UNIVERSAL_NUMERIC",
    "schema_for",
    "featurizer_to_dict",
    "featurizer_from_dict",
]
