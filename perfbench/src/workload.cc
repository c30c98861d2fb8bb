#include "perfbench/src/workload.h"

#include "src/core/nxgraph.h"
#include "src/prep/degreer.h"
#include "src/prep/sharder.h"

namespace nxbench {

void AddEndToEnd(const EndToEnd& e, Report* r) {
  r->Add("setup_s", e.setup_s, "s");
  r->Add("peak_rss_mb", e.peak_rss_mb, "MiB");
  r->Add("success_rate", e.success_rate, "fraction");
  r->Add("run_s", e.run_s, "s");
  r->Add("qps", e.qps, "1/s");
  r->Add("query_p50_ms", e.query_p50_ms, "ms");
  r->Add("query_p99_ms", e.query_p99_ms, "ms");
}

void Layers::SetIo(const IoCounters& d, double ops) {
  if (ops <= 0) return;
  io_read_ops = d.read_ops / ops;
  io_read_mb = d.read_bytes / 1e6 / ops;
  io_read_busy_s = d.read_busy_s / ops;
  io_write_ops = d.write_ops / ops;
  io_write_mb = d.write_bytes / 1e6 / ops;
  io_write_busy_s = d.write_busy_s / ops;
  io_sync_ops = d.sync_ops / ops;
}

void Layers::SetOs(const Usage& before, const Usage& after, double ops) {
  const double wall = Seconds(before.wall, after.wall);
  const double user = after.user_s - before.user_s;
  const double sys = after.sys_s - before.sys_s;
  if (wall > 0) os_cpu_util = (user + sys) / wall;
  if (user + sys > 0) os_sys_frac = sys / (user + sys);
  if (ops > 0) {
    os_vol_ctx_switches_per_op =
        (after.vol_ctx_switches - before.vol_ctx_switches) / ops;
    os_minor_faults_per_op = (after.minor_faults - before.minor_faults) / ops;
  }
}

void AddLayers(const Layers& l, Report* r) {
  r->Add("prep.degreer_s", l.prep_degreer_s, "s");
  r->Add("prep.sharder_s", l.prep_sharder_s, "s");
  r->Add("prep.store_bytes_per_edge", l.prep_store_bytes_per_edge, "B");
  r->Add("io.read_ops", l.io_read_ops, "count");
  r->Add("io.read_mb", l.io_read_mb, "MB");
  r->Add("io.read_busy_s", l.io_read_busy_s, "s");
  r->Add("io.write_ops", l.io_write_ops, "count");
  r->Add("io.write_mb", l.io_write_mb, "MB");
  r->Add("io.write_busy_s", l.io_write_busy_s, "s");
  r->Add("io.sync_ops", l.io_sync_ops, "count");
  r->Add("io.retries", l.io_retries, "count");
  r->Add("io.read_model_ratio", l.io_read_model_ratio, "ratio");
  r->Add("storage.row_read_mb_per_s", l.storage.row_read_mb_per_s, "MB/s");
  r->Add("storage.decode_medges_per_s", l.storage.decode_medges_per_s,
         "Medges/s");
  r->Add("cache.hit_ns_p50_t1", l.cache.hit_ns_p50_t1, "ns");
  r->Add("cache.hit_ns_p50_t4", l.cache.hit_ns_p50_t4, "ns");
  r->Add("cache.miss_us_p50", l.cache.miss_us_p50, "us");
  r->Add("cache.miss_evict_us_p50", l.cache.miss_evict_us_p50, "us");
  r->Add("cache.hit_rate", l.cache_hit_rate, "fraction");
  r->Add("cache.evictions_per_query", l.cache_evictions_per_query, "count");
  static const char* const kPhases[4] = {
      "engine.phase_a_s", "engine.phase_b_s", "engine.phase_c_s",
      "engine.phase_d_s"};
  for (int k = 0; k < 4; ++k) r->Add(kPhases[k], l.engine_phase_s[k], "s");
  r->Add("engine.io_wait_s", l.engine_io_wait_s, "s");
  r->Add("engine.write_wait_s", l.engine_write_wait_s, "s");
  r->Add("engine.decode_s", l.engine_decode_s, "s");
  r->Add("engine.resident_intervals", l.engine_resident_intervals, "count");
  r->Add("engine.mteps", l.engine_mteps, "Medges/s");
  r->Add("engine.unattributed_s", l.engine_unattributed_s, "s");
  r->Add("server.queue_ms_p50", l.server_queue_ms_p50, "ms");
  r->Add("server.run_ms_p50", l.server_run_ms_p50, "ms");
  r->Add("server.subshards_visited_per_query",
         l.server_subshards_visited_per_query, "count");
  r->Add("server.subshards_skipped_per_query",
         l.server_subshards_skipped_per_query, "count");
  r->Add("server.truncated_frac", l.server_truncated_frac, "fraction");
  r->Add("os.cpu_util", l.os_cpu_util, "cores");
  r->Add("os.sys_frac", l.os_sys_frac, "fraction");
  r->Add("os.vol_ctx_switches_per_op", l.os_vol_ctx_switches_per_op,
         "count");
  r->Add("os.minor_faults_per_op", l.os_minor_faults_per_op, "count");
  r->Add("trace.overhead_frac", l.trace_overhead_frac, "fraction");
}

nxgraph::Status BuildStore(const nxgraph::EdgeList& edges,
                           const std::string& dir, nxgraph::Env* env,
                           bool traced, Tracer* tracer, double* degreer_s,
                           double* sharder_s) {
  nxgraph::BuildOptions options;
  options.num_intervals = kIntervals;
  options.env = env;
  if (!traced) {
    return nxgraph::BuildGraphStore(edges, dir, options).status();
  }
  // The same steps BuildGraphStore takes, timed one by one.
  ScopedSpan build(tracer, "prep.build");
  tracer->SetCurrentRoot(build.id());
  const Clock::time_point t0 = Clock::now();
  nxgraph::Result<nxgraph::DegreeResult> degrees = [&] {
    ScopedSpan span(tracer, "prep.degreer", build.id());
    tracer->SetCurrentRoot(span.id());
    return nxgraph::RunDegreer(env, edges, dir);
  }();
  const Clock::time_point t1 = Clock::now();
  if (!degrees.ok()) return degrees.status();
  nxgraph::SharderOptions sharder;
  sharder.num_intervals = options.num_intervals;
  sharder.build_transpose = options.build_transpose;
  sharder.dedup = options.dedup;
  sharder.format = options.subshard_format;
  sharder.summary = options.summary;
  nxgraph::Status s = [&] {
    ScopedSpan span(tracer, "prep.sharder", build.id());
    tracer->SetCurrentRoot(span.id());
    return nxgraph::RunSharder(env, dir, *degrees, sharder).status();
  }();
  const Clock::time_point t2 = Clock::now();
  tracer->SetCurrentRoot(0);
  *degreer_s = Seconds(t0, t1);
  *sharder_s = Seconds(t1, t2);
  return s;
}

}  // namespace nxbench
