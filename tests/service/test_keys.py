"""Tests for the canonical configuration keys (repro.service.keys)."""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.dag.runtime import DAGFactorizationConfig
from repro.exceptions import ConfigurationError
from repro.experiments.grid5000 import Grid5000Settings
from repro.experiments.runner import PointSpec
from repro.service import keys as keys_module
from repro.service.keys import (
    ENGINE_SEMANTICS_VERSION,
    canonical_config,
    canonical_spec,
    config_key,
    spec_from_config,
)

TSQR = {"algorithm": "tsqr", "m": 65536, "n": 32, "n_sites": 2, "domains_per_cluster": 8}


class TestSpecFromConfig:
    def test_builds_a_validated_spec(self):
        spec = spec_from_config(TSQR)
        assert spec == PointSpec(
            algorithm="tsqr", m=65536, n=32, n_sites=2, domains_per_cluster=8
        )

    def test_cli_aliases_are_accepted(self):
        spec = spec_from_config(
            {"algorithm": "tsqr", "rows": 65536, "cols": 32, "sites": 2,
             "domains_per_cluster": 8}
        )
        assert spec == spec_from_config(TSQR)

    def test_unknown_field_is_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown config field"):
            spec_from_config({**TSQR, "tilesize": 32})

    def test_alias_collision_is_rejected(self):
        with pytest.raises(ConfigurationError, match="twice"):
            spec_from_config({**TSQR, "rows": 1024})

    def test_dag_only_algorithms_imply_the_dag_runtime(self):
        spec = spec_from_config({"algorithm": "lu", "m": 256, "n": 128, "n_sites": 1,
                                 "tile_size": 64})
        assert spec.runtime == "dag"

    def test_cholesky_is_square_by_definition(self):
        spec = spec_from_config({"algorithm": "cholesky", "n": 256, "n_sites": 1,
                                 "tile_size": 64})
        assert spec.m == spec.n == 256

    def test_invalid_spec_still_fails_validation(self):
        with pytest.raises(ConfigurationError):
            spec_from_config({"algorithm": "nosuch", "m": 100, "n": 10, "n_sites": 1})


class TestCanonicalSpec:
    def test_dag_policy_defaults_are_filled(self):
        spec = spec_from_config({"algorithm": "caqr", "m": 4096, "n": 128,
                                 "n_sites": 2, "tile_size": 32, "runtime": "dag"})
        canon = canonical_spec(spec)
        assert canon.placement == "block"
        assert canon.priority == "critical-path"

    def test_explicit_defaults_and_omission_share_a_key(self):
        implicit = {"algorithm": "caqr", "m": 4096, "n": 128, "n_sites": 2,
                    "tile_size": 32, "runtime": "dag"}
        explicit = {**implicit, "placement": "block", "priority": "critical-path"}
        assert config_key(implicit) == config_key(explicit)

    def test_filled_defaults_are_the_runtime_defaults(self):
        """The key fills in exactly the policies the runtime would run."""
        spec = spec_from_config({"algorithm": "caqr", "m": 4096, "n": 128,
                                 "n_sites": 2, "tile_size": 32, "runtime": "dag"})
        canon = canonical_spec(spec)
        runtime = DAGFactorizationConfig(m=spec.m, n=spec.n)
        assert (canon.placement, canon.priority) == (runtime.placement, runtime.priority)

    def test_scalapack_ignores_the_panel_tree(self):
        base = {"algorithm": "scalapack", "m": 65536, "n": 32, "n_sites": 2}
        assert config_key(base) == config_key({**base, "tree_kind": "flat"})

    def test_non_tsqr_ignores_domains_per_cluster(self):
        base = {"algorithm": "scalapack", "m": 65536, "n": 32, "n_sites": 2}
        assert config_key(base) == config_key({**base, "domains_per_cluster": 8})

    def test_tsqr_reads_both_fields(self):
        assert config_key(TSQR) != config_key({**TSQR, "domains_per_cluster": 16})
        assert config_key(TSQR) != config_key({**TSQR, "tree_kind": "binary"})


class TestConfigKey:
    def test_dict_order_invariance(self):
        shuffled = dict(reversed(list(TSQR.items())))
        assert config_key(TSQR) == config_key(shuffled)

    def test_consumed_fields_change_the_key(self):
        assert config_key(TSQR) != config_key({**TSQR, "m": 65537})
        assert config_key(TSQR) != config_key({**TSQR, "algorithm": "scalapack"})
        assert config_key(TSQR) != config_key({**TSQR, "n_sites": 4})

    def test_platform_settings_enter_the_key(self):
        small = Grid5000Settings(nodes_per_cluster=2, processes_per_node=2)
        assert config_key(TSQR, small) != config_key(TSQR, Grid5000Settings())

    def test_engine_semantics_version_enters_the_key(self, monkeypatch):
        before = config_key(TSQR)
        monkeypatch.setattr(keys_module, "ENGINE_SEMANTICS_VERSION", "test-bump.1")
        assert config_key(TSQR) != before

    def test_canonical_config_carries_the_version_tag(self):
        config = canonical_config(TSQR)
        assert config["engine_semantics"] == ENGINE_SEMANTICS_VERSION
        assert config["platform"]["nodes_per_cluster"] == Grid5000Settings().nodes_per_cluster


#: Key digests captured before the settings part of the key was cached, with
#: the default settings.  Stored results are found under these bytes, so a
#: change of serialisation must fail here; an ENGINE_SEMANTICS_VERSION bump
#: changes all of them on purpose.
KEY_DIGESTS = [
    ({"algorithm": "tsqr", "m": 33554432, "n": 64, "n_sites": 4,
      "domains_per_cluster": 64},
     "37a635f2766539671044dc4eb4327753863f22a2968dbf617d7973264fba6f1d"),
    ({"algorithm": "cholesky", "n": 4096, "n_sites": 4, "tile_size": 128},
     "0c8378475b116451fce8b1de7876efadf8da25a4122ae8f463d71581c1e75dc8"),
    ({"algorithm": "caqr", "runtime": "dag", "m": 16384, "n": 128, "n_sites": 4,
      "tile_size": 32, "tree_kind": "binary"},
     "c934d0a83148de1007d90ead125efd4bdc30901d842612c1610365211b41ac49"),
]


class TestKeyBytes:
    @pytest.mark.parametrize("config,digest", KEY_DIGESTS)
    def test_digest_pinned(self, config, digest):
        assert config_key(config) == digest
        assert config_key(config, Grid5000Settings()) == digest

    @pytest.mark.parametrize(
        "settings",
        [Grid5000Settings(), Grid5000Settings(nodes_per_cluster=2, processes_per_node=2)],
        ids=["default", "small"],
    )
    def test_key_is_the_digest_of_canonical_config(self, settings):
        """The memoised settings part hashes like a freshly built one."""
        for config in (TSQR, {**TSQR, "m": 4096}):
            payload = json.dumps(
                canonical_config(config, settings), sort_keys=True, separators=(",", ":")
            )
            assert config_key(config, settings) == hashlib.sha256(payload.encode()).hexdigest()

    def test_canonical_config_returns_a_fresh_platform_dict(self):
        before = config_key(TSQR)
        canonical_config(TSQR)["platform"]["nodes_per_cluster"] = 1
        default = Grid5000Settings().nodes_per_cluster
        assert canonical_config(TSQR)["platform"]["nodes_per_cluster"] == default
        assert config_key(TSQR) == before
