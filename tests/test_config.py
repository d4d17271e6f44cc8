"""The typed runtime-config surface: validation, and no keyword shim."""

import dataclasses

import pytest

from repro.config import (
    ConfigValidationError,
    FactoryConfig,
    OrbConfig,
    ReplicationConfig,
    RuntimeConfig,
)
from repro.core.manager import ActivityManager
from repro.exceptions import ConfigurationError
from repro.orb.core import Orb
from repro.orb.socket_transport import SocketTransport
from repro.ots.factory import TransactionFactory


class TestValidation:
    def test_defaults_are_valid(self):
        OrbConfig()
        RuntimeConfig()
        FactoryConfig()

    @pytest.mark.parametrize(
        "cls, kwargs",
        [
            (OrbConfig, {"marshal_cache_entries": -1}),
            (OrbConfig, {"marshal_cache_entries": "lots"}),
            (RuntimeConfig, {"registry_shards": 0}),
            (RuntimeConfig, {"max_events": 0}),
            (RuntimeConfig, {"max_live": 0}),
            (FactoryConfig, {"retry_attempts": 0}),
            (FactoryConfig, {"group_commit_window": -0.5}),
            (FactoryConfig, {"parallel_participants": 0}),
            (FactoryConfig, {"registry_shards": 0}),
            (FactoryConfig, {"max_live": 0}),
            (FactoryConfig, {"tid_prefix": 7}),
        ],
    )
    def test_out_of_range(self, cls, kwargs):
        with pytest.raises(ConfigValidationError):
            cls(**kwargs)

    def test_validation_error_is_both_types(self):
        # Pre-dataclass constructors raised ValueError; the library's own
        # failures are ConfigurationError.  Callers catching either must
        # keep working.
        with pytest.raises(ValueError):
            FactoryConfig(parallel_participants=0)
        with pytest.raises(ConfigurationError):
            FactoryConfig(parallel_participants=0)

    def test_frozen(self):
        config = FactoryConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.retry_attempts = 5

    def test_replace_revalidates(self):
        config = RuntimeConfig(registry_shards=4)
        assert config.replace(registry_shards=2).registry_shards == 2
        with pytest.raises(ConfigValidationError):
            config.replace(registry_shards=0)


class TestLegacyShim:
    """Tuning keywords passed beside or instead of ``config=`` are plain
    unexpected keyword arguments: nothing folds, nothing warns."""

    def test_mixing_config_and_legacy_refused(self):
        with pytest.raises(TypeError):
            TransactionFactory(config=FactoryConfig(), parallel_participants=2)
        with pytest.raises(TypeError):
            Orb(config=OrbConfig(), marshal_cache_entries=16)
        with pytest.raises(TypeError):
            ActivityManager(config=RuntimeConfig(), registry_shards=4)

    def test_config_object_does_not_warn(self, recwarn):
        factory = TransactionFactory(config=FactoryConfig(parallel_participants=3))
        assert factory.config.parallel_participants == 3
        assert not recwarn.list

    def test_unknown_keyword_is_type_error(self):
        with pytest.raises(TypeError):
            TransactionFactory(no_such_option=1)
        with pytest.raises(TypeError):
            Orb(no_such_option=1)
        with pytest.raises(TypeError):
            ActivityManager(no_such_option=1)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: Orb(marshal_cache_entries=0),
            lambda: ActivityManager(registry_shards=4),
            lambda: TransactionFactory(marshal_once=False),
            lambda: OrbConfig(dispatch_loop="asyncio"),
            lambda: Orb(dispatch_loop=None),
            lambda: SocketTransport("srv", accept_loop="threads"),
        ],
        ids=[
            "orb",
            "manager",
            "factory",
            "orb-config-dispatch-loop",
            "orb-dispatch-loop",
            "transport-accept-loop",
        ],
    )
    def test_formerly_folded_keyword_is_type_error(self, build):
        with pytest.raises(TypeError):
            build()

    def test_retired_options_are_gone(self):
        assert "fast_path" not in {f.name for f in dataclasses.fields(RuntimeConfig)}
        assert "marshal_once" not in {f.name for f in dataclasses.fields(FactoryConfig)}
        assert [f.name for f in dataclasses.fields(OrbConfig)] == [
            "marshal_cache_entries",
            "domain_id",
        ]
        with pytest.raises(ConfigValidationError):
            ReplicationConfig(backend="file")


class TestOptionSurface:
    """The exact option surface of each service.  Adding, renaming or
    dropping a knob is a deliberate edit of this list, reviewed with the
    change that needs it."""

    def test_runtime_config_fields(self):
        assert [f.name for f in dataclasses.fields(RuntimeConfig)] == [
            "registry_shards",
            "max_live",
            "max_events",
        ]

    def test_factory_config_fields(self):
        assert [f.name for f in dataclasses.fields(FactoryConfig)] == [
            "retry_attempts",
            "group_commit_window",
            "parallel_participants",
            "registry_shards",
            "tid_prefix",
            "max_live",
            "max_events",
        ]

    def test_site_config_fields(self):
        from repro.orb.site import SiteConfig

        assert [f.name for f in dataclasses.fields(SiteConfig)] == [
            "site_id",
            "host",
            "port",
            "peers",
            "data_dir",
            "cell_store",
            "app",
            "poll_interval",
            "heartbeat",
            "retry",
            "orphan_min_age",
            "replication",
            "max_events",
        ]


class TestTidPrefix:
    def test_default_is_bare(self):
        factory = TransactionFactory()
        assert factory.create().tid == "tx-1"

    def test_prefix_applies(self):
        factory = TransactionFactory(config=FactoryConfig(tid_prefix="site-a.b00t:"))
        assert factory.create().tid == "site-a.b00t:tx-1"


class TestSiteConfigKeys:
    @pytest.mark.parametrize("key", ["orb", "factory", "poll_intervall", "quotas"])
    def test_unknown_key_is_refused_by_name(self, key):
        from repro.orb.site import SiteConfig

        with pytest.raises(ConfigValidationError, match=repr(key)):
            SiteConfig.from_dict({"site_id": "s", key: {}})

    def test_round_trip_through_a_dict(self):
        from repro.orb.site import SiteConfig

        config = SiteConfig(site_id="s", peers={"t": ("127.0.0.1", 9)})
        assert SiteConfig.from_dict(config.to_dict()) == config
