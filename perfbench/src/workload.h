// The benchmark's workloads and the metric sets every workload reports.
//
// Every workload reports every metric (the benchmark's contract): a metric
// that does not apply to a workload reads 0 (per-layer) or takes the
// workload's definition given in perfbench/README.md (end-to-end).
#ifndef NXGRAPH_PERFBENCH_WORKLOAD_H_
#define NXGRAPH_PERFBENCH_WORKLOAD_H_

#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "perfbench/src/common.h"
#include "perfbench/src/layers.h"
#include "perfbench/src/trace.h"
#include "src/graph/edge_list.h"
#include "src/io/env.h"
#include "src/util/status.h"

namespace nxbench {

/// Sub-shard grid of every workload's store.
inline constexpr uint32_t kIntervals = 32;
/// PageRank answers must match the reference this closely (the tolerance
/// of the algorithm tests).
inline constexpr double kRankTolerance = 1e-9;

/// End-to-end metrics, measured with tracing off on the benchmark's clock.
struct EndToEnd {
  double setup_s = 0;
  double peak_rss_mb = 0;
  double success_rate = 0;
  double run_s = 0;
  double qps = 0;
  double query_p50_ms = 0;
  double query_p99_ms = 0;
};
void AddEndToEnd(const EndToEnd& e, Report* report);

/// Per-layer metrics of the traced pass.
struct Layers {
  double prep_degreer_s = 0;
  double prep_sharder_s = 0;
  double prep_store_bytes_per_edge = 0;
  // io: per operation (PageRank run or point query) of the traced pass
  double io_read_ops = 0;
  double io_read_mb = 0;
  double io_read_busy_s = 0;
  double io_write_ops = 0;
  double io_write_mb = 0;
  double io_write_busy_s = 0;
  double io_sync_ops = 0;
  double io_retries = 0;
  double io_read_model_ratio = 0;
  StorageProbe storage;
  CacheProbe cache;
  double cache_hit_rate = 0;
  double cache_evictions_per_query = 0;
  // engine: per PageRank run (median)
  double engine_phase_s[4] = {0, 0, 0, 0};
  double engine_io_wait_s = 0;
  double engine_write_wait_s = 0;
  double engine_decode_s = 0;
  double engine_resident_intervals = 0;
  double engine_mteps = 0;
  double engine_unattributed_s = 0;
  // server: per point query
  double server_queue_ms_p50 = 0;
  double server_run_ms_p50 = 0;
  double server_subshards_visited_per_query = 0;
  double server_subshards_skipped_per_query = 0;
  double server_truncated_frac = 0;
  // process, over the untraced comparison pass
  double os_cpu_util = 0;
  double os_sys_frac = 0;
  double os_vol_ctx_switches_per_op = 0;
  double os_minor_faults_per_op = 0;
  double trace_overhead_frac = 0;

  /// io.* from the Env counters of `ops` operations.
  void SetIo(const IoCounters& delta, double ops);
  /// os.* from getrusage samples around `ops` operations.
  void SetOs(const Usage& before, const Usage& after, double ops);
};
void AddLayers(const Layers& l, Report* report);

/// Value vectors of repeated runs, deduplicated bit-for-bit, so that each
/// distinct answer is checked against the reference once, after timing.
class DistinctAnswers {
 public:
  void Add(std::vector<double> values) {
    for (Distinct& d : distinct_) {
      if (d.values == values) {
        ++d.runs;
        return;
      }
    }
    distinct_.push_back({std::move(values), 1});
  }

  size_t size() const { return distinct_.size(); }

  /// Runs whose answer is off `reference` by more than `tolerance` at some
  /// vertex.
  uint64_t Wrong(const std::vector<double>& reference,
                 double tolerance) const {
    uint64_t wrong = 0;
    for (const Distinct& d : distinct_) {
      bool ok = d.values.size() == reference.size();
      for (size_t v = 0; ok && v < reference.size(); ++v) {
        ok = std::fabs(d.values[v] - reference[v]) <= tolerance;
      }
      if (!ok) wrong += d.runs;
    }
    return wrong;
  }

 private:
  struct Distinct {
    std::vector<double> values;
    uint64_t runs = 0;
  };
  std::vector<Distinct> distinct_;
};

/// Builds a store of `edges` into `dir` through `env` with the library's
/// default build options and P = kIntervals. Untraced this is one
/// BuildGraphStore call; traced it runs the same two prep steps
/// (RunDegreer, RunSharder) and times each.
nxgraph::Status BuildStore(const nxgraph::EdgeList& edges,
                           const std::string& dir, nxgraph::Env* env,
                           bool traced, Tracer* tracer, double* degreer_s,
                           double* sharder_s);

Report RunPageRankWorkload(const Args& args, bool out_of_core,
                           RunConfig* config, Tracer* tracer);
Report RunServeWorkload(const Args& args, RunConfig* config, Tracer* tracer);

}  // namespace nxbench

#endif  // NXGRAPH_PERFBENCH_WORKLOAD_H_
