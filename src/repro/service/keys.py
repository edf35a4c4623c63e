"""Canonical configuration keys: one stable content hash per simulation.

The service tier answers "has this exact simulation run before?" across
processes and CLI invocations, so the cache key must be a *pure function of
the simulation semantics* — never of incidental representation.  Three
invariances are required (and property-tested):

* **dict-order invariance** — a query arriving as JSON hashes the same
  whatever order its fields were written in;
* **default-filling invariance** — omitting a field and passing its default
  explicitly are the same configuration (``placement=None`` and
  ``placement="block"`` run the identical DAG schedule, so they share a key);
* **irrelevant-field invariance** — fields an algorithm never reads do not
  enter its key (a ScaLAPACK point is the same simulation whatever
  ``tree_kind`` says), while two *different* algorithms or shapes can never
  collide because the algorithm name and every consumed field are hashed.

The key also folds in everything else the result depends on: the platform
settings (reservation size, link overheads, kernel-efficiency curve) and the
**engine-semantics version tag** :data:`ENGINE_SEMANTICS_VERSION`.  The tag
is the cache-invalidation story: whenever a PR changes what the engine would
measure for the same config (cost charging, trace conventions, scheduling
order), the tag is bumped and every previously stored result silently
becomes a miss — no manual cache flush, no stale answers.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict
from functools import lru_cache
from typing import Mapping

from repro.dag.placement import DEFAULT_PLACEMENT, DEFAULT_PRIORITY
from repro.exceptions import ConfigurationError
from repro.experiments.grid5000 import Grid5000Settings
from repro.experiments.runner import PointSpec

__all__ = [
    "ENGINE_SEMANTICS_VERSION",
    "canonical_config",
    "canonical_spec",
    "config_key",
    "spec_from_config",
]

#: Version tag of the simulation engine's *observable semantics*.  Bump this
#: whenever a change makes the engine produce different numbers for the same
#: configuration (new cost charging, different schedule decision rule, trace
#: accounting changes): every result stored under the old tag then stops
#: matching and is re-simulated on next request.
ENGINE_SEMANTICS_VERSION = "pr10-streaming-obs.1"

#: PointSpec field names accepted in a query config, plus CLI-style aliases.
_FIELD_ALIASES = {
    "rows": "m",
    "cols": "n",
    "sites": "n_sites",
    "panel_tree": "tree_kind",
}
_SPEC_FIELDS = (
    "algorithm", "m", "n", "n_sites", "domains_per_cluster", "tree_kind",
    "want_q", "tile_size", "runtime", "placement", "priority", "failures",
)


def spec_from_config(config: Mapping[str, object]) -> PointSpec:
    """Build a validated :class:`PointSpec` from a plain query dictionary.

    Accepts the spec's own field names plus the CLI aliases (``rows``,
    ``cols``, ``sites``, ``panel_tree``); unknown fields are rejected so a
    typo can never silently select a default simulation.
    """
    fields: dict[str, object] = {}
    for raw_key, value in config.items():
        key = _FIELD_ALIASES.get(raw_key, raw_key)
        if key not in _SPEC_FIELDS:
            raise ConfigurationError(
                f"unknown config field {raw_key!r}; expected one of "
                f"{sorted(set(_SPEC_FIELDS) | set(_FIELD_ALIASES))}"
            )
        if key in fields:
            raise ConfigurationError(
                f"config field {key!r} given twice (alias collision)"
            )
        fields[key] = value
    # Cholesky/LU only exist on the DAG runtime; fill it so plain query
    # dictionaries do not have to know the runner's validation rules.
    if fields.get("algorithm") in PointSpec._DAG_ONLY:
        fields.setdefault("runtime", "dag")
    if fields.get("algorithm") == "cholesky" and "m" not in fields and "n" in fields:
        fields["m"] = fields["n"]  # square by definition
    return PointSpec(**fields)


def canonical_spec(spec: PointSpec) -> PointSpec:
    """Normalise a spec to its effective-semantics form.

    Fills the policy defaults the runner would apply (``placement=None`` on a
    DAG point *is* ``"block"``) and resets every field the algorithm never
    reads to the constructor default, so two specs that run the identical
    simulation compare — and hash — equal.
    """
    fields = {f: getattr(spec, f) for f in _SPEC_FIELDS}
    if spec.runtime == "dag":
        fields["placement"] = spec.placement or DEFAULT_PLACEMENT
        fields["priority"] = spec.priority or DEFAULT_PRIORITY
    if spec.algorithm != "tsqr":
        fields["domains_per_cluster"] = None  # only TSQR groups domains
    if spec.algorithm == "scalapack":
        fields["tree_kind"] = "grid-hierarchical"  # never consumed
    if spec.algorithm in PointSpec._DAG_ONLY:
        fields["tree_kind"] = "grid-hierarchical"  # no panel reduction tree
    return PointSpec(**fields)


def _config(spec: PointSpec | Mapping[str, object], platform: dict) -> dict[str, object]:
    """The canonical spec fields plus ``platform`` and the version tag."""
    if not isinstance(spec, PointSpec):
        spec = spec_from_config(spec)
    spec = canonical_spec(spec)
    config: dict[str, object] = {f: getattr(spec, f) for f in _SPEC_FIELDS}
    config["platform"] = platform
    config["engine_semantics"] = ENGINE_SEMANTICS_VERSION
    return config


def canonical_config(
    spec: PointSpec | Mapping[str, object],
    settings: Grid5000Settings | None = None,
) -> dict[str, object]:
    """The fully-canonicalised content of a simulation configuration.

    A flat dictionary of every input the simulation result depends on: the
    normalised :class:`PointSpec` fields, the complete platform settings
    (nested :class:`KernelEfficiency` included) and the engine-semantics
    version tag.  Serialising this with sorted keys gives the byte stream
    the content hash is computed over.
    """
    return _config(spec, asdict(settings or Grid5000Settings()))


@lru_cache(maxsize=8)
def _platform_fields(settings: Grid5000Settings) -> dict[str, object]:
    """``asdict(settings)``, built once per settings value.

    The dict is shared between calls, so only :func:`config_key`, which
    serialises it and hands it to no caller, may use it.  Settings that
    compare equal (``17`` and ``17.0`` alike) share one entry; they build
    the same platform, so at worst the key spells a number the other way.
    """
    return asdict(settings)


def config_key(
    spec: PointSpec | Mapping[str, object],
    settings: Grid5000Settings | None = None,
) -> str:
    """Stable content hash (SHA-256 hex) of one simulation configuration.

    It runs on every service query, cache hits included, and a runner's
    settings never change, so their part of :func:`canonical_config` is
    built once per settings value.
    """
    canonical = _config(spec, _platform_fields(settings or Grid5000Settings()))
    payload = json.dumps(canonical, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()
