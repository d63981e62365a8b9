"""The names the spine fixes: workloads, end-to-end and per-layer metrics.

``BENCHMARK.json`` at the repository root is the machine contract (names,
units, direction, bounds); this module adds what its schema has no room
for: for every per-layer metric, which end-to-end metric on which
workload it should move, written down before anything is measured.
``run.py --smoke`` checks that both list the same names.

A per-layer metric a workload does not exercise reads 0 there: layers
predicted idle must be seen idle.
"""

from __future__ import annotations

#: ``failed_frac`` is the sixth end-to-end metric of every result file
#: and of ``compare.py``.  It is not listed in ``BENCHMARK.json``, whose
#: metrics must never read 0; there it travels as ``failed / attempted``.
FAILED_FRAC = "failed_frac"

#: name -> what it should move
PER_LAYER: dict[str, str] = {
    "server.binproto.encode_request_us":
        "p50_ms, ops_per_s on serve_cached; none on disk_*",
    "server.binproto.decode_request_us":
        "p50_ms, ops_per_s on serve_cached; none on disk_*",
    "server.binproto.encode_result_us":
        "p50_ms, ops_per_s on serve_cached; none on disk_*",
    "server.binproto.parse_response_us":
        "p50_ms, ops_per_s on serve_cached; none on disk_*",
    "server.protocol.encode_result_us":
        "p50_ms on serve_uncached (small share); none on serve_cached",
    "server.protocol.parse_response_us":
        "p50_ms on serve_uncached (small share); none on serve_cached",
    "server.cache.get_us": "ops_per_s on serve_cached",
    "server.cache.put_us": "ops_per_s on serve_cached",
    "server.cache.hit_rate":
        "ops_per_s on serve_cached; exactly 0 on serve_uncached",
    "server.cache.evictions_per_op": "ops_per_s on serve_cached",
    "server.ping_rtt_us": "p50_ms on serve_cached (it is most of it)",
    "server.wire_share":
        "ops_per_s on both serve_*; the process-vs-thread executor question",
    "server.busy_frac": "failed_frac on serve_*",
    "psql.parse_us": "p50_ms on serve_uncached; none on serve_cached",
    "psql.normalize_us": "p50_ms on serve_uncached; none on serve_cached",
    "psql.plan_us": "p50_ms on serve_uncached; none on serve_cached",
    "psql.run_us": "p50_ms on serve_uncached; none on serve_cached",
    "psql.prepare.bind_us":
        "p50_ms on serve_cached misses only; none once the cache is warm",
    "psql.plan_cache_hit_rate": "p50_ms on serve_uncached",
    "psql.rows_examined_per_row_returned": "p50_ms on serve_uncached",
    "relational.spatial_search_us": "p50_ms on serve_uncached",
    "relational.rows_for_us": "p50_ms on serve_uncached",
    "rtree.search.nodes_per_query": "p50_ms on serve_uncached (point class)",
    "rtree.search.us_per_node": "p50_ms on serve_uncached (point class)",
    "rtree.join.us": "p99_ms on serve_uncached",
    "rtree.join.node_pairs_per_query": "p99_ms on serve_uncached",
    "rtree.packing.nn.items_per_s": "setup_s on serve_*",
    "rtree.bulkload.hilbert.items_per_s": "setup_s on disk_search",
    "rtree.bulkload.str.items_per_s": "setup_s on disk_churn",
    "rtree.bulkload.adaptive.items_per_s":
        "none today (no workload loads with it)",
    "rtree.repack.local_ms": "p99_ms on disk_churn (the foreground stall)",
    "rtree.repack.pages_rewritten":
        "p99_ms on disk_churn (the foreground stall)",
    "rtree.table1.pack_nodes_per_point_query":
        "none (anchor; byte-equal unless an issue says)",
    "rtree.table1.insert_nodes_per_point_query":
        "none (anchor; byte-equal unless an issue says)",
    "storage.disk_rtree.nodes_per_search":
        "p50_ms, ops_per_s on disk_search; p50_ms on serve_uncached",
    "storage.disk_rtree.nodes_per_point_query":
        "p50_ms, ops_per_s on disk_search",
    "storage.disk_rtree.nodes_per_knn": "p50_ms, ops_per_s on disk_search",
    "storage.disk_rtree.us_per_node":
        "p50_ms, ops_per_s on disk_search; p50_ms on serve_uncached",
    "storage.disk_rtree.insert_us":
        "p50_ms on disk_churn; none on disk_search",
    "storage.disk_rtree.delete_us":
        "p50_ms on disk_churn; none on disk_search",
    "storage.buffer.hit_rate":
        "ops_per_s on disk_search (0.35); ~1.0, no effect on serve_uncached",
    "storage.buffer.evictions_per_op": "ops_per_s on disk_search",
    "storage.buffer.get_hit_us": "ops_per_s on disk_search",
    "storage.buffer.get_miss_us": "ops_per_s on disk_search",
    "storage.pager.reads_per_op": "ops_per_s on disk_search",
    "storage.pager.read_page_us": "ops_per_s on disk_search",
    "storage.pager.writes_per_op": "p99_ms on disk_churn",
    "storage.wal.commit_ms": "p99_ms, ops_per_s on disk_churn; none elsewhere",
    "storage.wal.bytes_per_mutation":
        "p99_ms, ops_per_s on disk_churn; none elsewhere",
    "storage.wal.checkpoints": "p99_ms on disk_churn; none elsewhere",
    "storage.file_bytes_per_item":
        "space side of the read/write/space trade, disk_*",
    "obs.enabled_overhead_frac": "ops_per_s on serve_uncached",
    "trace.overhead_frac": "quality of the attribution itself",
    "trace.unaccounted_frac": "quality of the attribution itself",
}
