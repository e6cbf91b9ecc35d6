"""Scale sanity: the full pipeline at a few hundred nodes.

One deliberately larger run (everything else in the suite stays small and
fast) to catch size-dependent bugs: index arithmetic, grid-bucket
distribution, heap pressure in the event engine, channel matrix shapes.
"""

import numpy as np
import pytest

from repro import PhysicalParams, uniform_deployment
from repro.coloring.runner import run_mw_coloring


@pytest.fixture(scope="module")
def params():
    return PhysicalParams().with_r_t(1.0)


@pytest.fixture(scope="module")
def big_run(params):
    deployment = uniform_deployment(300, 11.0, seed=99)
    return run_mw_coloring(deployment, params, seed=7)


class TestScale:
    def test_three_hundred_nodes_end_to_end(self, big_run):
        result = big_run
        assert result.stats.completed
        assert result.is_proper()
        assert not result.audit_violations
        assert result.max_color <= result.palette_bound
        # sanity on structure sizes at this scale
        assert 30 <= len(result.leaders) <= 120
        assert result.num_colors <= 3 * result.constants.delta

    def test_decision_slots_all_within_budget(self, big_run):
        result = big_run
        assert (result.decision_slots >= 0).all()
        assert result.decision_slots.max() < result.stats.slots_run
