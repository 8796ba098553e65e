"""EX20–EX23 scenario experiments: shapes, gates, epoch determinism."""

from __future__ import annotations

import pytest

from repro.datasets.generators import CommunityConfig, generate_community
from repro.evaluation.scenarios import (
    run_ex20_churn,
    run_ex21_coldstart,
    run_ex22_evolving_sybil,
    run_ex23_drift,
    smooth_degradation,
)

TINY = dict(per_user=2, min_ratings=6, max_users=6)


@pytest.fixture(scope="module")
def community():
    """A small generated community shared by the scenario tests."""
    config = CommunityConfig(n_agents=50, n_products=100, n_clusters=4, seed=13)
    return generate_community(config)


class TestSmoothDegradation:
    def test_monotone_decline_passes(self):
        assert smooth_degradation([0.5, 0.4, 0.3, 0.1])

    def test_rise_within_tolerance_passes(self):
        assert smooth_degradation([0.5, 0.51, 0.49], tolerance=0.02)

    def test_rise_beyond_tolerance_fails(self):
        assert not smooth_degradation([0.5, 0.56], tolerance=0.02)

    def test_short_series_pass(self):
        assert smooth_degradation([])
        assert smooth_degradation([0.7])


class TestEx20Churn:
    def test_table_shape(self, community):
        table = run_ex20_churn(
            community=community,
            churn_rates=(0.0, 0.2),
            n_epochs=2,
            rounds=50,
            **TINY,
        )
        assert len(table.rows) == 2
        assert len(table.rows[0]) == len(table.headers) == 8
        assert table.rows[0][0] == "0.00"
        # Every accuracy cell parses as a probability.
        for row in table.rows:
            assert 0.0 <= float(row[3]) <= 1.0
            assert 0.0 <= float(row[4]) <= 1.0


class TestEx21Coldstart:
    def test_newcomers_counted_and_covered(self, community):
        table = run_ex21_coldstart(
            community=community,
            wave_sizes=(0, 4),
            n_epochs=2,
            rounds=50,
            **TINY,
        )
        assert [int(row[2]) for row in table.rows] == [0, 8]
        for row in table.rows:
            assert 0.0 <= float(row[5]) <= 1.0
            assert 0.0 <= float(row[6]) <= 1.0


class TestEx22EvolvingSybil:
    def test_zero_bridges_admits_nothing(self, community):
        table = run_ex22_evolving_sybil(
            community=community,
            bridge_rates=(0, 2),
            n_epochs=2,
            ring_growth=3,
            **TINY,
        )
        zero_row, bridged_row = table.rows
        assert float(zero_row[3]) == 0.0  # appleseed admission
        assert float(zero_row[4]) == 0.0  # hybrid contamination
        assert int(bridged_row[2]) > 0  # bridges accumulated
        # The trust-aware hybrid never out-contaminates blind CF.
        for row in table.rows:
            assert float(row[4]) <= float(row[5]) + 1e-9


class TestEx23Drift:
    def test_drifted_grows_with_rate(self, community):
        table = run_ex23_drift(
            community=community,
            drift_rates=(0.0, 0.3),
            n_epochs=2,
            rounds=50,
            **TINY,
        )
        drifted = [int(row[2]) for row in table.rows]
        assert drifted[0] == 0
        assert drifted[1] > 0


class TestEpochDeterminism:
    """Same seed ⇒ byte-identical tables on every rerun."""

    def render(self, community):
        return run_ex20_churn(
            community=community,
            churn_rates=(0.1,),
            n_epochs=2,
            rounds=50,
            **TINY,
        ).render()

    def test_repeated_runs_identical(self, community):
        assert self.render(community) == self.render(community)
