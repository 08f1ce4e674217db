"""Keep the documentation examples executable."""

import doctest

import pytest

import repro.api.facade
import repro.api.plan
import repro.apps.click_analytics
import repro.apps.leaderboard
import repro.apps.median_service
import repro.apps.topk_tracker
import repro.approx.spacesaving
import repro.bench.reporting
import repro.core.profile
import repro.core.queries
import repro.engine.merge
import repro.engine.sharding

MODULES = [
    repro.api.facade,
    repro.api.plan,
    repro.apps.click_analytics,
    repro.apps.leaderboard,
    repro.apps.median_service,
    repro.apps.topk_tracker,
    repro.approx.spacesaving,
    repro.bench.reporting,
    repro.core.profile,
    repro.core.queries,
    repro.engine.merge,
    repro.engine.sharding,
]


@pytest.mark.parametrize(
    "module", MODULES, ids=[m.__name__ for m in MODULES]
)
def test_module_doctests(module):
    result = doctest.testmod(module)
    assert result.failed == 0
    assert result.attempted > 0  # the module must actually carry examples
