#!/usr/bin/env python
"""Regenerate EXPERIMENTS.md from a full run of the experiment suite.

Runs EX1-EX23 in the order of :data:`repro.evaluation.registry.EXPERIMENTS`,
the community-bound ones on one shared default community (seeded,
deterministic), and writes each measured table under its paper claim and
verdict.  Commentary text lives here; numbers come from the run.
``scripts/check_experiments_md.py`` compares the output with the
committed file.

Usage:  python scripts/generate_experiments_md.py [output-path]
"""

from __future__ import annotations

import sys
from pathlib import Path

from repro.evaluation.experiments import default_community
from repro.evaluation.registry import EXPERIMENTS
from repro.obs import Stopwatch

HEADER = """\
# EXPERIMENTS — paper vs. measured

Reproduction of *Semantic Web Recommender Systems* (Ziegler, EDBT 2004).

The paper is a short framework paper: its evaluation section contains
**one figure** (the Figure 1 taxonomy fragment), **one worked example**
(Example 1's topic score assignment) and **zero numeric tables**.  EX1
reproduces the worked example exactly; EX2-EX11 operationalize every
quantitative claim the paper makes in §2/§3 (and the §6 future-work
questions) as measured tables; EX12-EX18 extend the study to numeric
prediction, stereotype generation, design ablations, weblog mining,
topic diversification, explicit distrust, and crawling under injected
Web faults; EX19 contrasts the two similarity engines; EX20-EX23 run the
pipeline over evolving communities (churn, cold-start waves, a growing
sybil ring, interest drift).
See DESIGN.md §5 for the experiment index and the substitution ledger.

All numbers below come from one deterministic run of
`scripts/generate_experiments_md.py` (seeded generators), which runs
EX1-EX23 in the order of the registry in `repro.evaluation.registry`.
Any one table prints on its own with `repro experiment EXnn`, e.g.
`repro experiment EX07`.  CI regenerates this file and compares it with
the committed copy through `scripts/check_experiments_md.py`: every line
must match except the cells of the host-dependent columns the registry
declares (EX8's latencies, EX19's engine timings and disagreement),
which vary with the host and between runs.

"""

#: Section heading and commentary for each registry id, in any order;
#: the document follows the registry's order.
SECTIONS: dict[str, tuple[str, str]] = {
    "EX01": (
        "EX1 — Example 1: taxonomy-based topic score assignment",
        """**Paper source:** Figure 1 + Example 1 (§3.3).  The paper reports
scores 29.087 / 14.543 / 4.848 / 1.212 / 0.303 for Algebra / Pure /
Mathematics / Science / Books, given `s = 1000`, 4 rated books, and 5
descriptors on *Matrix Analysis* (per-descriptor budget 50).

**Verdict: reproduced.**  With the sibling counts visible in Figure 1
(Algebra 1, Pure 2, Mathematics 3, Science 3) the exact Eq. 3 solution is
29.0909 / 14.5454 / 4.8484 / 1.2121 / 0.30303 — identical to the paper's
figures to three significant digits; the residual ≤0.004 difference is
the paper's rounding.""",
    ),
    "EX02": (
        "EX2 — trust and interest profiles correlate",
        """**Paper claim (§3.2, ref [5]):** "trust and interest profiles tend to
correlate", justifying trust as a similarity surrogate and pre-filter.

**Expected shape:** direct-trust pairs more similar than 2-hop pairs,
both more similar than random pairs.

**Verdict: shape reproduced.**  Both Pearson and cosine order the pair
classes direct > 2-hop > random with clear separation, and each agent's
top Appleseed peer is the most similar class of all on both measures.
(Union-domain Pearson over sparse non-negative profiles is negatively
offset as a whole; the ordering, not the absolute level, is the
claim.)""",
    ),
    "EX03": (
        "EX3 — Appleseed convergence and neighborhood size",
        """**Paper claim (§3.2, ref [12]):** Appleseed converges and "allows the
neighborhood detection process to retain scalability", with the
spreading factor and convergence threshold controlling the trade-off.

**Expected shape:** higher spreading factor d and tighter threshold T_c
cost more iterations and rank more peers; low d concentrates rank near
the source.

**Verdict: shape reproduced.**  Iterations grow monotonically with d and
with tighter T_c; the ranked neighborhood grows with d (about 73 peers at
d=0.5 vs 193-222 at d=0.95 on a 400-agent community).""",
    ),
    "EX04": (
        "EX4 — attack resistance of group trust metrics",
        """**Paper claim (§2, §3.2):** decentralized systems cannot prevent
identity forging; trust metrics make agents "less vulnerable to others".
Advogato's defining property (ref [11]) is that sybil admission is
bounded by the attack-edge cut, and Appleseed inherits a similar bound
from bounded energy injection.

**Expected shape:** with 0 attack edges no metric admits sybils; as
attack edges grow, the scalar path metric admits more of the region
than the group metrics, which admit ≈0.

**Verdict: shape reproduced.**  No metric admits a sybil below 5
bridges.  From 5 bridges on the scalar-path baseline admits sybils, and
at 20 bridges 0.116 of its admitted set are sybils.  Appleseed and
PageRank stay at 0 through 10 bridges and admit 0.020 of their top-K at
20; Advogato certifies no sybil across the whole sweep.""",
    ),
    "EX05": (
        "EX5 — the low-profile-overlap problem and the taxonomy fix",
        """**Paper claim (§2, §3.3):** raw product vectors barely overlap ("the
probability that two persons have read several same books becomes
considerably low"); flat category vectors lose inter-category
relationships; taxonomy propagation "may establish high user similarity
for users which have not even rated one single product in common".

**Expected shape:** fraction of agent pairs with non-zero overlap:
product vectors < flat categories < taxonomy profiles (→ ~1.0).

**Verdict: shape reproduced.**  Taxonomy propagation lifts pairwise
overlap to 100% of sampled pairs while raw product vectors overlap in a
small minority of pairs.""",
    ),
    "EX06": (
        "EX6 — recommendation quality across methods",
        """**Paper claim (§3):** the combined trust + taxonomy pipeline produces
useful recommendations while computing only over a bounded trust
neighborhood (the paper itself reports no quality numbers).

**Expected shape:** all personalized methods beat popularity and random;
the hybrid is competitive with global pure CF despite seeing only the
trust neighborhood.

**Verdict: shape reproduced.**  The hybrid matches or exceeds global
taxonomy-CF and clearly beats the non-personalized floors; trust-only
(no similarity computation at all) already carries most of the signal,
which is itself the paper's trust-as-similarity-surrogate claim.""",
    ),
    "EX07": (
        "EX7 — robustness to profile-copy manipulation",
        """**Paper claim (§3.2):** "collaborative filtering tends to be highly
susceptive to manipulation.  For instance, malicious agents can
accomplish high similarity by simply copying its profile"; trust makes
agents "less vulnerable".

**Expected shape:** attacker-pushed items contaminate trust-blind CF's
top-10 and are absent from the trust-filtered pipeline's top-10,
independent of the number of sybils.

**Verdict: shape reproduced.**  Trust-blind CF recommends every pushed
product (contamination 0.3 = 3 pushed items in the top 10) while the
trust-filtered pipeline recommends none — sybils receive no trust edges
from honest agents, so they never enter the voting set.""",
    ),
    "EX08": (
        "EX8 — scalability: bounded neighborhoods vs global CF",
        """**Paper claim (§2):** "computing similarity measures for all these
individuals becomes infeasible.  Scalability can only be ensured when
restricting computations to sufficiently narrow neighborhoods."

**Expected shape:** global CF latency grows with community size; the
trust-bounded pipeline's cost tracks neighborhood size, so the
CF/hybrid cost ratio grows with |A|.

**Verdict: shape reproduced in the committed run.**  Global CF's
latency and the CF/hybrid ratio grow with community size.  All three
measured columns are wall-clock milliseconds on the host that generated
this file; they vary between hosts and runs, so the document check does
not compare them, and no crossover point is claimed.""",
    ),
    "EX09": (
        "EX9 — taxonomy structure impact (books vs DVDs)",
        """**Paper source (§6, future work):** "Amazon's taxonomy for DVD
classification contains more topics than its book counterpart, though
being less deep.  We would like to better understand the impact that
taxonomy structure may have upon profile generation and similarity
computation."

**Expected shape:** the generated book-like taxonomy is deeper and
narrower than the DVD-like one; both support near-universal profile
overlap and working recommendations, with quality differing moderately.

**Verdict: study delivered** (the paper poses the question without an
answer).  Measured here: both taxonomies give every sampled pair some
overlap, and the broad-shallow taxonomy doubles the hybrid's F1 at equal
catalogue size (0.096 against 0.048) — shallower paths concentrate score
mass in fewer, more discriminative coordinates.""",
    ),
    "EX10": (
        "EX10 — rank synthesization strategies",
        """**Paper source (§3.4, future work):** "One must now merge trust rank
and similarity rank into one single measure … We have not attacked
latter issue yet."  The paper proposes peer voting weighted by overall
rank.

**Expected shape:** the proposed alternatives are all viable; trust-
leaning blends should not collapse (trust correlates with similarity).

**Verdict: study delivered.**  All §3.4 candidates produce useful
recommendations.  F1 falls as the linear blend leans from similarity
toward trust (γ=0.25 leads), the trust filter ties the even blend,
position-based Borda comes fifth, and the multiplicative interaction
scores lowest.""",
    ),
    "EX11": (
        "EX11 — crawler coverage, staleness, and local computability",
        """**Paper source (§2, §4.1):** recommendations are computed locally from
crawled replicas; "tailored crawlers search the Web for weblogs and
ensure data freshness"; communication is asynchronous document
publishing.

**Expected shape:** recommendation agreement with a full-knowledge
reference rises with the crawl budget and saturates well below 100%
coverage, because the trust neighborhood is local.

**Verdict: shape reproduced.**  A crawl covering ~10% of the community
already reproduces most of the reference top-10; a full crawl reproduces
it exactly.  Added finding: a path-trust-first frontier is *not* better
than BFS here, because Appleseed's backward edges make rank decay with
hop distance — which BFS matches.""",
    ),
    "EX12": (
        "EX12 — numeric rating prediction (extended)",
        """**Paper hook:** the information model (§3.1) supports graded explicit
ratings in [-1, +1]; the classic CF task over them is value prediction.

**Expected shape:** Resnick-style prediction with trust-aware peer
weights beats the global-mean baseline, with high coverage; pure-CF
weights, capped at 40 nearest neighbors, perform similarly but cover
fewer pairs.

**Verdict: shape reproduced.**""",
    ),
    "EX13": (
        "EX13 — automated stereotype generation (§6, extended)",
        """**Paper hook (§6):** "applicability of taxonomy-based profile
generation for automated stereotype generation and efficient behavior
modelling".

**Expected shape:** spherical k-means over taxonomy profiles recovers
the generator's planted interest clusters far above chance, and the
k-comparison stereotype recommender is a usable cheap approximation of
the full pipeline.

**Verdict: study delivered** (purity 0.865 vs chance 0.125).""",
    ),
    "EX14": (
        "EX14 — design-decision ablations (extended)",
        """**Paper hook:** the ♦-marked design decisions of DESIGN.md §4.

**Expected shapes:** Appleseed's backward edges concentrate rank near
the source (smaller rank-weighted hop distance); nonlinear edge
normalization concentrates rank on strong edges; Eq. 3's decisive edge
over flat categories is *overlap* (EX5), with top-N quality comparable
on this synthetic data; uniform vs rating-weighted splits coincide on
implicit data by construction.

**Verdict: shapes reproduced** (including the honest null result on
Eq. 3 vs flat top-N quality at this scale).""",
    ),
    "EX15": (
        "EX15 — weblog mining round trip (§4, extended)",
        """**Paper hook (§4):** hyperlinks from weblogs to catalog product pages
"count as implicit votes"; BLAM!-style annotations add explicit
machine-readable ratings; ISBN mappings connect URLs to identifiers.

**Expected shape:** the mining pipeline is lossless for this channel —
every published rating is recovered and recommendations from the mined
dataset equal the reference.

**Verdict: shape reproduced (exact round trip).**""",
    ),
    "EX16": (
        "EX16 — topic diversification trade-off (§3.4, extended)",
        """**Paper hook (§3.4):** "one might propose agent a_i products from
categories that a_i has left untouched until present … incentive for
trying new product groups becomes created."  The soft version of that
idea is topic diversification by greedy rank-merge under a
diversification factor Θ.

**Expected shape:** intra-list similarity falls monotonically with Θ
while precision degrades gradually — the classic diversification
trade-off curve.

**Verdict: shape reproduced.**""",
    ),
    "EX17": (
        "EX17 — explicit distrust statements (§3.1, extended)",
        """**Paper hook:** §3.1 defines trust on [-1, +1] with "negative values
to express distrust", and stresses values near zero "indicate absence of
trust, not to be confused with explicit distrust"; the Appleseed paper
(§3.2, ref [12]) sketches non-transitive distrust handling.

**Expected shape:** rogue agents who fooled part of the community gain
positive rank when distrust is ignored; one-step distrust discounting
strictly reduces their rank share and top-50 presence.

**Verdict: shape reproduced** (discounting drives the rogues' share to
zero on the default community).""",
    ),
    "EX18": (
        "EX18 — chaos: recommendation quality vs fault rate (§2, §4.1, extended)",
        """**Paper hook:** the deployment model assumes an unreliable medium —
agents "publish or update documents" on remote hosts (§2) and "tailored
crawlers … ensure data freshness" (§4.1), which presumes fetches that
can time out, sites that can go down, and files that arrive torn.

**Expected shape:** with retries, circuit breakers, and stale-replica
fallback enabled, replica coverage and top-N agreement with the
fault-free reference degrade gracefully (no crash, no collapse) as the
injected fault rate climbs to 0.5.

**Verdict: study delivered.**  Coverage and overlap decline smoothly
with the fault rate while the resilience counters (retries, degraded
replicas, quarantined downloads) account for every masked failure.""",
    ),
    "EX19": (
        "EX19 — similarity engines: python oracle vs numpy kernels (extended)",
        """**Paper hook (§2):** "computing similarity measures for all these
individuals becomes infeasible" — the all-pairs similarity scan is the
hot path.  The packed numpy kernels are the one production engine; the
dict implementation stays as the reference oracle.

**Expected shape:** both engines score every peer of a principal the
same within 1e-9, and the numpy engine, its one-time matrix pack
included, is faster at every size.

**Verdict: shape reproduced in the committed run.**  The timing, speedup
and `max|delta|` columns depend on the host, so the document check does
not compare them; the 1e-9 parity bound is asserted by the test suite
(`tests/test_perf_kernels.py`) instead.""",
    ),
    "EX20": (
        "EX20 — membership churn (§2, extended)",
        """**Paper hook (§2):** the community is open — "agents may decide to
publish or update documents", so members come and go between crawls.

**Expected shape:** as the per-epoch churn rate rises, hybrid
precision@N degrades smoothly (no rise above 0.02 between steps, no
collapse) and the population stays above its floor.

**Verdict: shape reproduced.**  Hybrid precision@N falls from 0.082 to
0.059 between churn 0 and 0.1 and reads 0.071 at 0.2, a rise inside the
tolerance.  The hybrid and pure CF never differ significantly: no epoch
survives the Holm correction, and every pooled p-value exceeds 0.39.""",
    ),
    "EX21": (
        "EX21 — cold-start waves (§2, §3.2, extended)",
        """**Paper hook (§2, §3.2):** newcomers join with few ratings and few
trust statements — the sparsity regime where trust is meant to stand in
for similarity.

**Expected shape:** established-user accuracy holds as newcomer waves
grow, and each method's newcomer coverage is reported.

**Verdict: shape reproduced.**  Established-user hybrid precision@N
stays at 0.082 at every wave size, above pure CF's 0.059-0.064, and both
methods serve every newcomer a non-empty list once waves arrive.""",
    ),
    "EX22": (
        "EX22 — evolving sybil attack (§2, §3.2, extended)",
        """**Paper hook (§2, §3.2):** decentralized systems invite "spoofing and
identity forging"; here a sybil ring accretes identities, copied
profiles and bought trust edges epoch over epoch.

**Expected shape:** with 0 bridges the hybrid admits no sybil and
pushes nothing while trust-blind CF is contaminated by profile copying
alone; admission grows smoothly with the bridge budget; hybrid
contamination never exceeds CF's; honest-user precision degrades
smoothly.

**Verdict: shape reproduced.**  Without bridges Appleseed admits no
sybil and the hybrid's contamination is 0 against CF's 0.200.  One
bridge per epoch is enough for the ring to reach 0.200 of the top-K and
to contaminate the hybrid as much as CF; more bridges raise admission
only to 0.250.  Honest-user hybrid precision@N slips from 0.086 to
0.080.""",
    ),
    "EX23": (
        "EX23 — interest drift (§3.3, extended)",
        """**Paper hook (§3.3):** taxonomy profiles and trust pre-filtering lean on
homophily — trusted peers share interests.  Drift erodes that premise as
agents migrate between interest clusters.

**Expected shape:** as the drift rate rises, more agents drift and
hybrid precision@N degrades smoothly rather than collapsing.

**Verdict: shape reproduced.**  Up to 100 agents drift by rate 0.4;
hybrid precision@N stays between 0.057 and 0.070, every rise inside the
tolerance, and it never differs significantly from pure CF (every
pooled p-value exceeds 0.72).""",
    ),
}


def main() -> None:
    output = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("EXPERIMENTS.md")
    community = default_community()
    parts = [HEADER]
    for experiment_id, experiment in EXPERIMENTS.items():
        title, commentary = SECTIONS[experiment_id]
        watch = Stopwatch()
        with watch:
            table = experiment.table(community)
        print(f"{experiment_id}: {watch.elapsed:.1f}s")
        parts.append(f"## {title}\n")
        parts.append(commentary + "\n")
        parts.append("```\n" + table.render() + "\n```\n")
    output.write_text("\n".join(parts), encoding="utf-8")
    print(f"wrote {output}")


if __name__ == "__main__":
    main()
