"""The claims table: what the paper and the PRs say, and where it is checked.

One row per claim — golden-key prefix, source, what is claimed, what we
measure, and the pytest node that checks it.  The ``golden`` fixture
reads it to learn which keys a test owns; ``docs/REPRODUCTION.md`` is
:func:`render_reproduction` of it plus ``values.json``, and
``tests/golden/test_claims.py`` holds the three to each other.
"""

from __future__ import annotations

from pathlib import Path
from typing import NamedTuple

from tests.golden.harness import load_values

REPO = Path(__file__).resolve().parents[2]
REPRODUCTION_PATH = REPO / "docs" / "REPRODUCTION.md"

_PAPER = "tests/golden/test_paper_claims.py::"
_SERVICE = "tests/golden/test_service_claims.py::"


class Claim(NamedTuple):
    #: Golden keys of this claim start with this; ``None`` for a claim
    #: an existing test checks against the paper's own numbers.
    prefix: str | None
    source: str
    says: str
    measures: str
    #: pytest node id: a file, ``file::Class`` or ``file::function``.
    test: str
    note: str = ""


CLAIMS = [
    # ------------------------------------------------------------------
    # (i) the paper
    # ------------------------------------------------------------------
    Claim(
        None,
        "Fig. 2, Q1–Q6",
        "Six worked queries over the six-link table: initial bounded "
        "answers, optimal refresh sets, answers after refresh.",
        "The paper's numbers, asserted literally (bounds, refresh sets, "
        "costs) on the served choosers and the executor.",
        "tests/core/test_paper_examples.py",
    ),
    Claim(
        None,
        "Fig. 7",
        "T⁺/T?/T⁻ of tuples 1–6 under three predicates, before and "
        "after refresh.",
        "The paper's table, cell by cell, on `classify_report`.",
        "tests/predicates/test_paper_classification.py",
    ),
    Claim(
        "fig5.exact.",
        "Fig. 5 / §5.2",
        "The exact knapsack DP is the optimum CHOOSE_REFRESH(SUM) is "
        "compared against.",
        "Plan cost and profit dimension handed to the DP on the 90-stock "
        "instance, R = 100.",
        _PAPER + "test_fig5_paper_algorithm",
    ),
    Claim(
        "fig5.paper.",
        "Fig. 5 / §5.2",
        "CHOOSE_REFRESH time grows as ε shrinks (the DP dimension is "
        "O(n/ε)); plan cost falls only slightly below ε = 0.1.",
        "`solve_ibarra_kim` — the paper's algorithm as written — for "
        "ε = 0.1, 0.08, 0.06, 0.04, 0.02, 0.01: the profit dimension "
        "handed to `_sparse_dp` (read by a test spy; the deterministic "
        "stand-in for time) and the plan cost.  Dimension strictly "
        "increasing, ≥ 8× end to end; cost ≥ optimal and ≤ 1.15× optimal "
        "at ε = 0.1.",
        _PAPER + "test_fig5_paper_algorithm",
    ),
    Claim(
        "fig5.served.",
        "Fig. 5 / PR 3",
        "The served planner runs the same scheme behind a profit-prefix "
        "certificate and must still meet the constraint at every ε.",
        "`SumChooseRefresh(epsilon=ε, force_approx=True)`: plan cost, "
        "tuples refreshed and the DP dimension (0 = the certificate "
        "answered, no DP ran); kept width ≤ R at every ε.",
        _PAPER + "test_fig5_served_planner",
        note="**The served planner diverges from the paper's Fig. 5 "
        "curve:** on this instance the certificate settles every "
        "ε ≥ 0.02 without running the DP at all, so served optimizer "
        "work is flat until ε = 0.01; at R = 50 the DP runs from "
        "ε = 0.02 (`fig5.served.R50.dp_dimension`).  The O(n/ε) law is "
        "the `fig5.paper.dp_dimension` series.",
    ),
    Claim(
        "fig6.curve.",
        "Fig. 6 / Fig. 1(b)",
        "Refresh cost falls monotonically as the precision constraint R "
        "loosens, from precise mode (R = 0) towards imprecise mode.",
        "Plan cost and tuples refreshed at R = 0, 10, …, 140 (ε = 0.1): "
        "cost non-increasing; R = 0 costs exactly every non-degenerate "
        "tuple; last < 0.8 × first.",
        _PAPER + "test_fig6_tradeoff_curve",
    ),
    Claim(
        "fig6.query.",
        "Fig. 6 / §4",
        "Every answer is no wider than R and contains the precise "
        "answer.",
        "Four end-to-end SUM queries (R = 0, 40, 100, 140): width ≤ R, "
        "`Bound.contains(math.fsum(closes))` strict; width and cost "
        "pinned.",
        _PAPER + "test_fig6_queries_meet_constraint",
    ),
    Claim(
        "ablation.knapsack.",
        "§5.2",
        "Ibarra–Kim keeps ≥ (1 − ε) of the optimal profit; density "
        "greedy ≥ ½.",
        "Kept profit of exact DP, IK 0.1, IK 0.01, density greedy and "
        "uniform greedy on the Fig. 5 instance.",
        _PAPER + "test_solver_quality",
    ),
    Claim(
        "ablation.iterative.",
        "§8.2",
        "Refreshing iteratively exploits actual values and can stop "
        "before the worst-case batch plan does (MAX here); its greedy "
        "order costs at most a tuple or two elsewhere.",
        "Tuples refreshed and cost, batch vs iterative, for MIN, MAX, "
        "SUM and AVG over the stock day; iterative ≤ batch + 2 tuples.",
        _PAPER + "test_batch_vs_iterative",
    ),
    Claim(
        "ablation.hierarchy.",
        "§8.1",
        "In a cache hierarchy loose constraints are absorbed near the "
        "edge; only tight ones reach the source.",
        "Forwarded refreshes per level and exact source reads for "
        "R = 400, 150, 50, 10, 0 over a 3-level chain (slacks 1, 3): "
        "source reads non-decreasing, 0 at the loosest.  Containment "
        "truth is `math.fsum` of the master values, `Bound.contains` "
        "strict (ROADMAP item 3 has the general rule).",
        _PAPER + "test_hierarchy_cascade_depth",
    ),
    Claim(
        "ablation.piggyback.",
        "§8.3",
        "Piggybacking near-edge objects on a response pre-empts later "
        "value-initiated refreshes.",
        "Value-initiated, query-initiated and piggybacked refreshes with "
        "the policy off and on (threshold 0.7, ≤ 3 extra), identical "
        "update streams.",
        _PAPER + "test_piggyback_preempts_value_initiated_refreshes",
    ),
    Claim(
        "ablation.shape.",
        "Appendix A",
        "A √t bound is escaped about as rarely as a linear one while "
        "staying far narrower; a constant one is escaped often.",
        "Escapes and mean width over a 200-step Gaussian walk per shape "
        "(W = 2).",
        _PAPER + "test_bound_shape",
    ),
    Claim(
        "ablation.width_policy.",
        "Appendix A",
        "Adapting the width parameter balances value- against "
        "query-initiated refreshes without workload knowledge.",
        "Both refresh kinds under fixed 0.1, fixed 50 and the adaptive "
        "controller (15 objects, 150 s): adaptive < worst fixed, "
        "≤ 2 × best fixed.",
        _PAPER + "test_width_policy",
    ),
    Claim(
        "ablation.join.curve.",
        "§7",
        "The iterative join heuristic shows the same precision–"
        "performance shape: tighter budgets never get cheaper.",
        "Refresh cost, base tuples refreshed and answer width of "
        "SUM(load) over links ⋈ nodes for R = 200, 100, 50, 20, 5, 0: "
        "cost non-decreasing, width ≤ R.",
        _PAPER + "test_join_tradeoff_curve",
    ),
    Claim(
        "ablation.join.R10.",
        "§7 / §4",
        "The join answer contains the precise answer.",
        "Endpoints at R = 10; truth is `math.fsum` over the master "
        "join, `Bound.contains` strict (ROADMAP item 3).",
        _PAPER + "test_join_answer_contains_truth",
    ),
    Claim(
        "ablation.indexed_min.",
        "§5.1",
        "With endpoint indexes CHOOSE_REFRESH(MIN) need not scan.",
        "The indexed plan equals the scan's plan on 2 000 tuples "
        "(size and cost pinned).",
        _PAPER + "test_indexed_min_matches_scan",
        note="CHOOSE_REFRESH time against |T| (MIN / SUM / COUNT) was "
        "wall time in a script, printed and never asserted; dropped "
        "2026-10-03.  Wall time is `benchmarks/e2e/`'s job.",
    ),
    # ------------------------------------------------------------------
    # (ii) service-era cost claims
    # ------------------------------------------------------------------
    Claim(
        "coalescing.mixed.",
        "PR 2 / PR 6",
        "Coalescing refreshes across in-flight queries pays less per "
        "answer than serving them one at a time, on the full statement "
        "surface.",
        "Refresh cost per answer, serial vs coalesced, 8 clients × 2 "
        "rounds of SUM/AVG, GROUP BY, TOP-N, MEDIAN and joins on a "
        "2-replica group (60 links); ratio < 1.",
        _SERVICE + "test_mixed_workload_coalescing",
    ),
    Claim(
        "sharding.",
        "PR 4",
        "Sharding a table over more sources lowers refresh cost per "
        "answer (mean marginal fixed, cheapest shard cheaper).",
        "Cost per answer, messages and tuples at fan-in 1, 2, 4, 8 "
        "(240 links, 6 clients × 3 queries × 2 rounds): non-increasing, "
        "≥ 1.3× end to end, messages < tuples.",
        _SERVICE + "test_cost_per_answer_falls_with_shard_fanin",
    ),
    Claim(
        "fanout.",
        "PR 5",
        "A replica group with cross-cache coalescing beats one cache, "
        "and beats K caches scheduling independently.",
        "Coalesced cost per answer at 1 and 4 caches, independent at 4 "
        "(240 links × 4 shards, 8 clients): coalesced(4) ≤ coalesced(1), "
        "1.5 × coalesced(4) ≤ independent(4); merges and redirects > 0.",
        _SERVICE + "test_cost_per_answer_falls_with_cache_fanout",
    ),
    Claim(
        "faults.",
        "PR 8",
        "With sources down, queries are still answered — wider, never "
        "wrong.",
        "Availability, degraded share and mean-width inflation at "
        "outage rates 0 and 0.2 (seeded chaos schedule): availability "
        "≥ 0.99, every answer contains `math.fsum` of the master values, "
        "failures and degraded answers > 0 at 0.2 and none at 0.",
        _SERVICE + "test_availability_survives_outages",
    ),
    Claim(
        "elastic.",
        "PR 9",
        "An autoscaled group grows on a spike, sheds after it, and no "
        "client notices a membership change.",
        "`GroupAutoscaler` (floor 2, ceiling 5) over the ramp 3, 8, 12, 4, "
        "2, 1 clients: "
        "admits, detaches, members per phase, snapshot transfer cost, "
        "all-in cost per answer; re-stick failures 0, every admission's "
        "transfer cost > 0.",
        _SERVICE + "test_autoscaler_tracks_the_ramp",
    ),
    Claim(
        "index.",
        "PR 10",
        "Endpoint-index windows decide most tuples wholesale and agree "
        "with the dense sweep bit for bit.",
        "Fraction of (tuple, leaf) decisions materialized at 20 000 "
        "rows / 1 % straddle, for one leaf and an And-band; masks, "
        "answer arrays and harvested vectors equal `classify_dense`'s.",
        _SERVICE + "test_index_windows_match_the_dense_sweep",
    ),
]


def _cell(value) -> str:
    return ", ".join(map(repr, value)) if isinstance(value, list) else repr(value)


def render_reproduction() -> str:
    """``docs/REPRODUCTION.md`` from the claims table and the golden file."""
    golden = load_values()
    lines = [
        "# Reproduction: every claim, and the test that checks it",
        "",
        "Generated from `tests/golden/claims.py` and "
        "`tests/golden/values.json`; do not edit.  Every value below is "
        "recomputed from `src/` by the tier-1 command "
        "(`python -m pytest -x -q`) and compared with the committed one "
        "at the stated relative tolerance (0 = equal).  After an intended "
        "change, `UPDATE_GOLDEN=1 python -m pytest tests/golden` "
        "re-records the values and this file.",
        "",
    ]
    for claim in CLAIMS:
        heading = claim.prefix.rstrip(".") if claim.prefix else claim.source
        lines += [
            f"## {heading}",
            "",
            f"- **Source:** {claim.source}",
            f"- **Claim:** {claim.says}",
            f"- **We measure:** {claim.measures}",
            f"- **Checked by:** `{claim.test}`",
            "",
        ]
        if claim.note:
            lines += [claim.note, ""]
        keys = sorted(k for k in golden if claim.prefix and k.startswith(claim.prefix))
        if keys:
            lines += ["| golden key | value | tolerance |", "|---|---|---|"]
            lines += [
                f"| `{key}` | `{_cell(golden[key]['value'])}` "
                f"| {golden[key]['tolerance']:g} |"
                for key in keys
            ]
            lines.append("")
    return "\n".join(lines)


def write_reproduction() -> None:
    REPRODUCTION_PATH.write_text(render_reproduction())
