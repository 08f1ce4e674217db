"""Public-surface tests: exports, protocols, version metadata."""

import pytest

import repro
from repro._typing import SupportsProfile
from repro.baselines.registry import available_profilers, make_profiler


class TestPackageSurface:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_subpackage_all_exports_resolve(self):
        import repro.api
        import repro.apps
        import repro.approx
        import repro.baselines
        import repro.bench
        import repro.core
        import repro.engine
        import repro.streams

        for module in (
            repro.api,
            repro.apps,
            repro.approx,
            repro.baselines,
            repro.bench,
            repro.core,
            repro.engine,
            repro.streams,
        ):
            for name in module.__all__:
                assert hasattr(module, name), (module.__name__, name)

    def test_py_typed_marker_shipped(self):
        from pathlib import Path

        marker = Path(repro.__file__).parent / "py.typed"
        assert marker.exists()


class TestSupportsProfileProtocol:
    @pytest.mark.parametrize("name", available_profilers())
    def test_every_registered_profiler_satisfies_protocol(self, name):
        profiler = make_profiler(name, 4)
        assert isinstance(profiler, SupportsProfile)

    def test_unrelated_object_does_not(self):
        assert not isinstance(object(), SupportsProfile)


class TestConsumeFailureSemantics:
    """consume applies events in order with no rollback: events before a
    bad one stay applied, the structure stays valid (documented)."""

    def test_invalid_id_mid_stream(self):
        from repro.core.validation import audit_profile
        from repro.errors import CapacityError

        profile = repro.SProfile(4)
        with pytest.raises(CapacityError):
            profile.consume([(0, True), (1, True), (99, True), (2, True)])
        assert profile.frequencies() == [1, 1, 0, 0]
        assert profile.n_events == 2
        audit_profile(profile)

    def test_strict_underflow_mid_stream(self):
        from repro.core.validation import audit_profile
        from repro.errors import FrequencyUnderflowError

        profile = repro.SProfile(4, allow_negative=False)
        with pytest.raises(FrequencyUnderflowError):
            profile.consume([(0, True), (0, False), (0, False)])
        assert profile.frequencies() == [0, 0, 0, 0]
        assert profile.n_events == 2
        audit_profile(profile)
