"""The experiment registry: every EX table by id, in one place.

``repro experiment EXnn`` runs one entry, and
``scripts/generate_experiments_md.py`` iterates all of them in order to
write EXPERIMENTS.md.  An entry names the function that builds the
table, whether that function takes the shared default community, and
which of its columns depend on the host (wall-clock timings, and EX19's
floating-point disagreement between engines) — the only cells
``scripts/check_experiments_md.py`` lets differ between the committed
document and a fresh run.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

from ..datasets.generators import SyntheticCommunity
from . import experiments as ex
from . import experiments_chaos as ex_chaos
from . import experiments_ext as ex_ext
from . import experiments_perf as ex_perf
from . import scenarios
from .protocol import Table

__all__ = ["EXPERIMENTS", "Experiment"]


@dataclass(frozen=True, slots=True)
class Experiment:
    """One experiment table and what it needs to run."""

    run: Callable[..., Table]
    needs_community: bool
    host_columns: tuple[str, ...] = ()

    def table(self, community: SyntheticCommunity | None = None) -> Table:
        """Build the table; community-bound runs default to the shared community."""
        if not self.needs_community:
            return self.run()
        return self.run(community or ex.default_community())


EXPERIMENTS: dict[str, Experiment] = {
    "EX01": Experiment(ex.run_ex01_example1, needs_community=False),
    "EX02": Experiment(ex.run_ex02_trust_similarity, needs_community=True),
    "EX03": Experiment(ex.run_ex03_appleseed_convergence, needs_community=True),
    "EX04": Experiment(ex.run_ex04_attack_resistance, needs_community=True),
    "EX05": Experiment(ex.run_ex05_profile_overlap, needs_community=True),
    "EX06": Experiment(ex.run_ex06_recommendation_quality, needs_community=True),
    "EX07": Experiment(ex.run_ex07_manipulation, needs_community=True),
    "EX08": Experiment(
        ex.run_ex08_scalability,
        needs_community=False,
        host_columns=("hybrid ms", "global CF ms", "ratio CF/hybrid"),
    ),
    "EX09": Experiment(ex.run_ex09_taxonomy_structure, needs_community=False),
    "EX10": Experiment(ex.run_ex10_synthesis, needs_community=True),
    "EX11": Experiment(ex.run_ex11_crawler, needs_community=True),
    "EX12": Experiment(ex_ext.run_ex12_prediction, needs_community=False),
    "EX13": Experiment(ex_ext.run_ex13_stereotypes, needs_community=True),
    "EX14": Experiment(ex_ext.run_ex14_ablations, needs_community=True),
    "EX15": Experiment(ex_ext.run_ex15_weblog_mining, needs_community=True),
    "EX16": Experiment(ex_ext.run_ex16_diversification, needs_community=True),
    "EX17": Experiment(ex_ext.run_ex17_distrust, needs_community=True),
    "EX18": Experiment(ex_chaos.run_ex18_chaos, needs_community=True),
    "EX19": Experiment(
        ex_perf.run_ex19_engine,
        needs_community=False,
        host_columns=("python ms", "numpy ms", "speedup", "max|delta|"),
    ),
    "EX20": Experiment(scenarios.run_ex20_churn, needs_community=False),
    "EX21": Experiment(scenarios.run_ex21_coldstart, needs_community=False),
    "EX22": Experiment(scenarios.run_ex22_evolving_sybil, needs_community=False),
    "EX23": Experiment(scenarios.run_ex23_drift, needs_community=False),
}
