"""The metric catalogue: every name the benchmark emits, with unit and direction.

``BENCHMARK.json`` at the repository root lists the same names (the
self-check test keeps the two in step); the regression bounds live there,
because that file is what the gate and ``compare.py`` read.  The ``moves``
column — which end-to-end metric (or ungated ``loadgen.*`` latency and
capacity figure) a layer metric is expected to move, and on which workload
— is the prediction table of README.md in data form.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    what: str
    moves: str = ""


END_TO_END: tuple[Metric, ...] = (
    Metric("setup_s", "s", "lower",
           "spawn of the server process to first successful ping (median of "
           "several spawns): imports, master build, subscription, bound "
           "ageing, listen"),
    Metric("query_p50_ms", "ms", "lower",
           "open-loop latency from due time to decoded reply, median"),
    Metric("server_cpu_ms_per_query", "ms", "lower",
           "server user+sys CPU over the open-loop phase (world task "
           "included) per answer"),
    Metric("refresh_cost_per_answer", "cost", "lower",
           "refresh cost paid at sources over the open-loop phase per answer"),
    Metric("peak_rss_mb", "MiB", "lower", "server ru_maxrss after the last phase"),
    Metric("update_p50_us", "us", "lower",
           "median wall time of one public apply_update call, value-initiated "
           "delivery to every replica included"),
    Metric("updates_applied_per_s", "1/s", "higher",
           "master updates applied per second of the open-loop phase; below "
           "the offered rate when the write path cannot keep up"),
)

PER_LAYER: tuple[Metric, ...] = (
    Metric("loadgen.late_p50_ms", "ms", "lower",
           "how late the generator sent versus due, median (validity)"),
    Metric("loadgen.late_p99_ms", "ms", "lower",
           "how late the generator sent versus due, p99 (validity)"),
    Metric("loadgen.query_p95_ms", "ms", "lower",
           "open-loop latency from due time, 95th percentile; ungated: host "
           "hiccups own the tail on a shared box, see README.md"),
    Metric("loadgen.query_p99_ms", "ms", "lower", "open-loop latency, 99th percentile"),
    Metric("loadgen.slo_miss_share", "ratio", "lower",
           "share of requests failed or slower than the frozen limit"),
    Metric("loadgen.reruns", "count", "lower", "open-loop phases rerun for lateness"),
    Metric("loadgen.failed_share", "ratio", "lower",
           "(errors + refusals + replies wider than R without degraded + "
           "contract-check failures) / attempted"),
    Metric("loadgen.capacity_qps", "1/s", "higher",
           "answers completed per second with 16 requests outstanding "
           "(closed loop); ungated, see README.md"),
    Metric("wire.decode_us", "us", "lower", "protocol.decode self time per request",
           "query_p50_ms, loadgen.capacity_qps @ hot_overlap"),
    Metric("wire.encode_us", "us", "lower",
           "protocol.encode + answer_payload self time per request",
           "query_p50_ms, loadgen.capacity_qps @ hot_overlap"),
    Metric("wire.residual_ms", "ms", "lower",
           "client latency minus the service.query span: socket, loop "
           "scheduling, queueing behind other requests' blocking steps",
           "query_p50_ms @ hot_overlap"),
    Metric("wire.bytes_in_per_query", "B", "lower", "request line size"),
    Metric("wire.bytes_out_per_query", "B", "lower", "reply line size"),
    Metric("wire.errors", "count", "lower", "protocol-level failures at the server",
           "failed count, all workloads"),
    Metric("service.query_self_ms", "ms", "lower",
           "QueryService.query minus every child: admit, keys, result cache, "
           "admission wait, bookkeeping",
           "query_p50_ms, server_cpu_ms_per_query @ hot_overlap"),
    Metric("service.admission_wait_ms", "ms", "lower",
           "mean wait for the global in-flight semaphore",
           "loadgen.query_p95_ms @ hot_overlap near capacity"),
    Metric("service.result_cache_hit_ratio", "ratio", "higher",
           "result-cache hits per served query",
           "refresh_cost_per_answer, query_p50_ms @ hot_overlap; 0 @ cold_scan"),
    Metric("service.singleflight_join_ratio", "ratio", "higher",
           "single-flight joins per served query",
           "refresh_cost_per_answer @ hot_overlap; 0 @ cold_scan"),
    Metric("service.result_invalidations_per_answer", "ratio", "lower",
           "refresh-driven result-cache invalidations per served query",
           "service.result_cache_hit_ratio @ hot_overlap"),
    Metric("service.route_us", "us", "lower", "CacheRouter.route per call",
           "query_p50_ms @ write_storm, mixed_classes"),
    Metric("service.rejected", "count", "lower", "queries refused at admission",
           "failed count"),
    Metric("sql.parse_us", "us", "lower", "parse_statement per call",
           "query_p50_ms @ hot_overlap (paid on hits too)"),
    Metric("sql.compile_us", "us", "lower", "compile_statement per call",
           "query_p50_ms @ hot_overlap (paid on hits too)"),
    Metric("sql.class_p50_ms.sum", "ms", "lower",
           "client latency median, scalar aggregates",
           "query_p50_ms, loadgen.query_p95_ms @ mixed_classes"),
    Metric("sql.class_p50_ms.groupby", "ms", "lower",
           "client latency median, GROUP BY",
           "query_p50_ms, loadgen.query_p95_ms @ mixed_classes"),
    Metric("sql.class_p50_ms.topn", "ms", "lower",
           "client latency median, TOP-N",
           "query_p50_ms, loadgen.query_p95_ms @ mixed_classes"),
    Metric("sql.class_p50_ms.median", "ms", "lower",
           "client latency median, MEDIAN",
           "query_p50_ms, loadgen.query_p95_ms @ mixed_classes"),
    Metric("sql.class_p50_ms.join", "ms", "lower",
           "client latency median, join",
           "query_p50_ms, loadgen.query_p95_ms @ mixed_classes"),
    Metric("predicates.classify_ms", "ms", "lower",
           "classify_report self time per query", "query_p50_ms @ cold_scan"),
    Metric("predicates.classify_calls_per_query", "ratio", "lower",
           "classify_report calls per query", "query_p50_ms @ cold_scan"),
    Metric("predicates.window_fraction_mean", "ratio", "lower",
           "mean share of classification decisions taken from index windows",
           "query_p50_ms @ cold_scan"),
    Metric("core.step1_self_ms", "ms", "lower",
           "first resumption of plan_steps minus classify/harvest/order/"
           "knapsack children, per query: bound + CHOOSE_REFRESH",
           "query_p50_ms, server_cpu_ms_per_query @ cold_scan, mixed_classes"),
    Metric("core.step3_self_ms", "ms", "lower",
           "later resumptions of plan_steps minus children, per query: "
           "recheck + assemble",
           "query_p50_ms, server_cpu_ms_per_query @ cold_scan, mixed_classes"),
    Metric("core.knapsack_ms", "ms", "lower",
           "public knapsack solvers, per query",
           "loadgen.query_p95_ms @ cold_scan"),
    Metric("core.plan_tuples_per_query", "count", "lower",
           "tuples refreshed per executed (not cached) answer",
           "refresh_cost_per_answer, all workloads"),
    Metric("core.early_exit_ratio", "ratio", "higher",
           "share of executed answers that needed no refresh",
           "refresh_cost_per_answer, all workloads"),
    Metric("core.width_ratio_mean", "ratio", "higher",
           "delivered width / R, mean", "refresh_cost_per_answer, all workloads"),
    Metric("storage.harvest_ms", "ms", "lower",
           "harvest_candidates self time per query", "query_p50_ms @ cold_scan"),
    Metric("storage.order_ms", "ms", "lower",
           "ColumnStore.width_order/endpoint_order build-or-repair, per query",
           "query_p50_ms @ cold_scan; update_p50_us @ write_storm"),
    Metric("storage.update_value_us", "us", "lower", "Table.update_value per call",
           "update_p50_us, updates_applied_per_s @ write_storm; setup_s all"),
    Metric("storage.cell_writes_per_s", "1/s", "lower",
           "Table.update_value calls per second",
           "update_p50_us @ write_storm; query_p50_ms @ cold_scan"),
    Metric("scheduler.submit_wait_ms", "ms", "lower",
           "RefreshScheduler.submit self time per query: wait for the tick "
           "plus dispatch bookkeeping",
           "loadgen.query_p95_ms @ hot_overlap, write_storm"),
    Metric("scheduler.rebatch_ms", "ms", "lower",
           "rebatch_plan (the 8.2 post-pass on multi-source plans of at most "
           "64 tuples) per query",
           "loadgen.query_p95_ms @ write_storm"),
    Metric("scheduler.tick_ms", "ms", "lower", "mean duration of a coalescing tick",
           "refresh_cost_per_answer @ hot_overlap"),
    Metric("scheduler.plans_per_tick", "count", "higher",
           "mean refresh plans coalesced per tick",
           "refresh_cost_per_answer @ hot_overlap"),
    Metric("scheduler.dedup_ratio", "ratio", "lower",
           "tuples refreshed / tuples requested", "refresh_cost_per_answer, all"),
    Metric("scheduler.source_requests_per_answer", "ratio", "lower",
           "source round trips per served query", "refresh_cost_per_answer, all"),
    Metric("scheduler.retries", "count", "lower", "source batches retried",
           "failed count"),
    Metric("replication.sync_bounds_ms", "ms", "lower",
           "DataCache.sync_bounds self time per query (cell rewrites are "
           "storage.update_value)",
           "query_p50_ms, loadgen.capacity_qps, server_cpu_ms_per_query @ cold_scan"),
    Metric("replication.sync_calls_per_query", "ratio", "lower",
           "sync_bounds calls per query", "query_p50_ms @ cold_scan"),
    Metric("replication.sync_rewrites_per_call", "count", "lower",
           "update_value calls per sync_bounds call", "query_p50_ms @ cold_scan"),
    Metric("replication.refresh_batched_ms", "ms", "lower",
           "DataCache.refresh_batched self time per query",
           "loadgen.query_p95_ms @ cold_scan"),
    Metric("replication.source_handle_ms", "ms", "lower",
           "DataSource.handle_refresh_request self time per query",
           "loadgen.query_p95_ms @ cold_scan"),
    Metric("replication.apply_update_us", "us", "lower",
           "DataSource.apply_update per call", "update_p50_us @ write_storm"),
    Metric("replication.value_initiated_per_update", "ratio", "lower",
           "value-initiated refreshes per master update",
           "update_p50_us @ write_storm"),
    Metric("replication.fanout_pushes_per_refresh", "ratio", "lower",
           "fan-out payloads per query-initiated object refresh",
           "update_p50_us @ write_storm"),
    Metric("replication.update_cpu_share", "ratio", "lower",
           "apply_update time / server CPU time, traced pass",
           "server_cpu_ms_per_query @ write_storm"),
    Metric("replication.subscribe_s", "s", "lower",
           "subscribe_table total during set-up", "setup_s @ cold_scan"),
    Metric("host.probe_us", "us", "lower",
           "median wall time of the world task's fixed pure-Python probe "
           "over the open loop (validity: the host's speed, not the program's)"),
    Metric("host.speed_factor", "ratio", "lower",
           "host.probe_us / the frozen reference; every reported wall or CPU "
           "time is the measured one divided by this"),
    Metric("trace.coverage", "ratio", "higher",
           "share of mean client latency covered by recorded spans (the rest "
           "is wire.residual_ms)"),
    Metric("trace.serving_share", "ratio", "higher",
           "wire (residual included) + service + sql + scheduler share of mean "
           "client latency"),
    Metric("trace.executor_share", "ratio", "higher",
           "replication + predicates + core + storage share of mean client "
           "latency"),
    Metric("trace.overhead_ratio", "ratio", "lower",
           "traced open-loop p50 / untraced open-loop p50, same run"),
    Metric("trace.unresolved_targets", "count", "lower",
           "wrap targets that no longer resolve"),
)

UNITS = {metric.name: metric.unit for metric in END_TO_END + PER_LAYER}
