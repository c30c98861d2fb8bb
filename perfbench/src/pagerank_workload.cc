// pr-inmem / pr-ooc: a fixed-iteration PageRank on twitter-sim/128, with
// the graph in memory (SPU) or under a memory budget derived from the store
// (MPU).
#include <cmath>
#include <cstdio>
#include <memory>
#include <numeric>
#include <utility>
#include <vector>

#include "perfbench/src/workload.h"
#include "src/algos/reference.h"
#include "src/core/nxgraph.h"

namespace nxbench {

namespace {

constexpr char kDataset[] = "twitter-sim";
constexpr uint64_t kDivisor = 128;
constexpr int kIterations = 10;
constexpr int kMinRuns = 3;
// Untimed runs before timing: the first seconds after setup run slower
// (allocator and page warm-up), so every pass starts from steady state.
constexpr double kWarmupSeconds = 3;
// A pass runs until it holds its length in runs timed on a quiet host, but
// for at most this multiple of that length.
constexpr double kMaxStretch = 2;

using nxgraph::GraphStore;
using nxgraph::PageRankOptions;
using nxgraph::RunOptions;
using nxgraph::RunStats;

/// One timed RunPageRank call.
struct Run {
  bool ok = false;
  double wall_s = 0;
  double steal = 0;  ///< StealShare over the run
  RunStats stats;
};

Run TimedRun(const std::shared_ptr<GraphStore>& store,
             const RunOptions& options, int iterations, DistinctAnswers* answers) {
  PageRankOptions pr;
  pr.iterations = iterations;
  Run run;
  const CpuTicks ticks = SampleCpuTicks();
  const Clock::time_point t0 = Clock::now();
  auto result = nxgraph::RunPageRank(store, pr, options);
  run.wall_s = Seconds(t0, Clock::now());
  run.steal = StealShare(ticks, SampleCpuTicks());
  run.ok = result.ok();
  if (!result.ok()) {
    std::fprintf(stderr, "RunPageRank: %s\n",
                 result.status().ToString().c_str());
    return run;
  }
  run.stats = std::move(result->stats);
  if (answers != nullptr) answers->Add(std::move(result->ranks));
  return run;
}

/// Runs PageRank back to back (at least kMinRuns times) until the runs
/// timed on a quiet host add up to `seconds`, or kMaxStretch x `seconds`
/// have passed; counts each run in `report`.
std::vector<Run> TimedPass(const std::shared_ptr<GraphStore>& store,
                           const RunOptions& options, double seconds,
                           Tracer* tracer, DistinctAnswers* answers, Report* report) {
  std::vector<Run> runs;
  const Clock::time_point start = Clock::now();
  double quiet_s = 0;
  while (runs.size() < static_cast<size_t>(kMinRuns) ||
         (quiet_s < seconds &&
          Seconds(start, Clock::now()) < kMaxStretch * seconds)) {
    ScopedSpan span(tracer, "pagerank.run");
    if (tracer != nullptr) tracer->SetCurrentRoot(span.id());
    runs.push_back(TimedRun(store, options, kIterations, answers));
    report->Count(runs.back().ok);
    if (runs.back().steal <= kQuietSteal) quiet_s += runs.back().wall_s;
  }
  if (tracer != nullptr) tracer->SetCurrentRoot(0);
  return runs;
}

template <typename F>
double MedianOf(const std::vector<Run>& runs, F&& field) {
  std::vector<double> v;
  for (const Run& r : runs) {
    if (r.ok) v.push_back(field(r));
  }
  return Median(v);
}

}  // namespace

Report RunPageRankWorkload(const Args& args, bool out_of_core,
                           RunConfig* config, Tracer* tracer) {
  Report report;
  const bool traced = tracer != nullptr;
  auto edges = std::make_unique<nxgraph::EdgeList>();
  {
    auto made = nxgraph::MakeDataset(kDataset, kDivisor, args.seed);
    if (!made.ok()) {
      std::fprintf(stderr, "MakeDataset: %s\n",
                   made.status().ToString().c_str());
      std::exit(1);
    }
    *edges = std::move(*made);
  }
  const bool rss_reset = ResetPeakRss();

  // Setup: build a fresh store and open it.
  TracingEnv tracing_env(nxgraph::Env::Default(), tracer);
  nxgraph::Env* env =
      traced ? static_cast<nxgraph::Env*>(&tracing_env) : nxgraph::Env::Default();
  TempDir dir(args.work_dir + "/stores");
  double degreer_s = 0, sharder_s = 0;
  const Clock::time_point t0 = Clock::now();
  nxgraph::Status built =
      BuildStore(*edges, dir.path(), env, traced, tracer, &degreer_s,
                 &sharder_s);
  auto opened = built.ok() ? nxgraph::OpenGraphStore(dir.path(), env)
                           : nxgraph::Result<std::shared_ptr<GraphStore>>(
                                 built);
  const double setup_s = Seconds(t0, Clock::now());
  if (!opened.ok()) {
    std::fprintf(stderr, "setup: %s\n", opened.status().ToString().c_str());
    std::exit(1);
  }
  std::shared_ptr<GraphStore> store = std::move(*opened);
  edges.reset();
  FlushFilesystem(dir.path());
  RunOptions options;
  if (out_of_core) {
    options.memory_budget_bytes =
        (2 * store->num_vertices() * sizeof(double) +
         store->TotalSubShardBytes(false)) /
        8;
  }

  // The untraced pass. In a traced run it is the comparison pass, on a
  // store opened over the plain Env; the traced pass follows below.
  std::shared_ptr<GraphStore> plain = store;
  if (traced) {
    auto reopened = nxgraph::OpenGraphStore(dir.path());
    if (!reopened.ok()) std::exit(1);
    plain = std::move(*reopened);
  }
  DistinctAnswers answers;
  const std::vector<Run> warmup =
      TimedPass(plain, options, kWarmupSeconds, nullptr, &answers, &report);
  config->strategy = warmup[0].stats.strategy;
  config->io_backend = warmup[0].stats.io_backend;
  config->decode_path = warmup[0].stats.decode_path;
  const Usage u0 = SampleUsage();
  const std::vector<Run> runs =
      TimedPass(plain, options, traced ? args.seconds / 2 : args.seconds,
                nullptr, &answers, &report);
  const Usage u1 = SampleUsage();
  const double peak_rss = PeakRssMiB();
  const double untraced_run_s = MedianOf(runs, [](const Run& r) {
    return r.wall_s;
  });

  Layers layers;
  if (traced) {
    layers.SetOs(u0, u1, static_cast<double>(runs.size()));
    layers.prep_degreer_s = degreer_s;
    layers.prep_sharder_s = sharder_s;
    layers.prep_store_bytes_per_edge =
        static_cast<double>(store->TotalSubShardBytes(false)) /
        store->num_edges();

    // One single-iteration run: its bytes are the non-steady part of a run
    // (first-iteration loads, final collection), so the difference to a
    // full run is the steady bytes of kIterations - 1 iterations.
    IoCounters before = tracing_env.counters();
    Run one;
    {
      ScopedSpan span(tracer, "pagerank.run_1iter");
      tracer->SetCurrentRoot(span.id());
      one = TimedRun(store, options, 1, nullptr);
      tracer->SetCurrentRoot(0);
    }
    report.Count(one.ok);
    const uint64_t one_iter_read =
        (tracing_env.counters() - before).read_bytes;

    before = tracing_env.counters();
    const std::vector<Run> traced_runs =
        TimedPass(store, options, args.seconds / 2, tracer, &answers, &report);
    const IoCounters io = tracing_env.counters() - before;
    const double ops = static_cast<double>(traced_runs.size());
    layers.SetIo(io, ops);
    double retries = 0;
    for (const Run& r : traced_runs) {
      retries += r.stats.io_retries + r.stats.checksum_rereads;
    }
    layers.io_retries = retries / ops;
    const double steady_read_per_iter =
        (io.read_bytes / ops - one_iter_read) / (kIterations - 1);
    const double model = static_cast<double>(
        traced_runs.empty() ? 0 : traced_runs[0].stats.model_bytes_per_iteration);
    layers.io_read_model_ratio =
        model > 0 ? steady_read_per_iter / model
                  : (steady_read_per_iter < 1 ? 1.0 : 0.0);

    layers.storage = ProbeStorage(*store, tracer);
    layers.cache = ProbeCache(store, tracer);
    report.Count(layers.storage.ok);
    report.Count(layers.cache.ok);

    const auto phase = [&](int k) {
      return MedianOf(traced_runs, [k](const Run& r) {
        const double p[4] = {r.stats.phase_a_seconds, r.stats.phase_b_seconds,
                             r.stats.phase_c_seconds, r.stats.phase_d_seconds};
        return p[k];
      });
    };
    for (int k = 0; k < 4; ++k) layers.engine_phase_s[k] = phase(k);
    layers.engine_io_wait_s = MedianOf(
        traced_runs, [](const Run& r) { return r.stats.io_wait_seconds; });
    layers.engine_write_wait_s = MedianOf(
        traced_runs, [](const Run& r) { return r.stats.write_wait_seconds; });
    layers.engine_decode_s = MedianOf(
        traced_runs, [](const Run& r) { return r.stats.decode_seconds; });
    layers.engine_resident_intervals = MedianOf(traced_runs, [](const Run& r) {
      return static_cast<double>(r.stats.resident_intervals);
    });
    layers.engine_mteps =
        MedianOf(traced_runs, [](const Run& r) { return r.stats.Mteps(); });
    const double engine_setup_s = MedianOf(
        traced_runs, [](const Run& r) { return r.stats.preprocess_seconds; });
    layers.engine_unattributed_s = MedianOf(traced_runs, [](const Run& r) {
      return r.wall_s - r.stats.preprocess_seconds - r.stats.phase_a_seconds -
             r.stats.phase_b_seconds - r.stats.phase_c_seconds -
             r.stats.phase_d_seconds;
    });
    const double traced_run_s =
        MedianOf(traced_runs, [](const Run& r) { return r.wall_s; });
    layers.trace_overhead_frac =
        untraced_run_s > 0 ? traced_run_s / untraced_run_s - 1 : 0;

    // Sum-of-layers row: the engine's own phases tile the run; the waits
    // are intervals inside the phases, shown beside them, not added.
    std::printf(
        "breakdown %s: run_s %.4f = engine setup %.4f + A %.4f + B %.4f + "
        "C %.4f + D %.4f + unattributed %.4f (medians per run; inside the "
        "phases: io_wait %.4f, write_wait %.4f)\n",
        args.workload.c_str(), traced_run_s, engine_setup_s,
        layers.engine_phase_s[0], layers.engine_phase_s[1],
        layers.engine_phase_s[2], layers.engine_phase_s[3],
        traced_run_s - engine_setup_s - layers.engine_phase_s[0] -
            layers.engine_phase_s[1] - layers.engine_phase_s[2] -
            layers.engine_phase_s[3],
        layers.engine_io_wait_s, layers.engine_write_wait_s);
    std::printf(
        "io model %s: steady read %.0f B/iteration vs model %.0f B/iteration "
        "(ratio %.3f)%s\n",
        args.workload.c_str(), steady_read_per_iter, model,
        layers.io_read_model_ratio,
        std::fabs(layers.io_read_model_ratio - 1) > 0.10
            ? " -- FINDING: measured bytes differ from io_model by >10%"
            : "");
  }

  // Reference check of every distinct answer (after timing, so the
  // reference's memory is not in the peak).
  {
    auto graph = nxgraph::LoadReferenceGraph(*plain);
    if (!graph.ok()) {
      report.correct = false;
    } else {
      const std::vector<double> reference =
          nxgraph::ReferencePageRank(*graph, 0.85, kIterations);
      const uint64_t wrong = answers.Wrong(reference, kRankTolerance);
      report.failed += wrong;
      std::printf("reference check: %zu distinct answer(s), %llu wrong run(s)\n",
                  answers.size(),
                  static_cast<unsigned long long>(wrong));
    }
  }
  if (report.failed > 0) report.correct = false;

  if (!traced) {
    // Timings come from the runs timed on a quiet host (at least
    // kMinRuns); the figures over all runs are printed beside them.
    std::vector<double> all_walls, steal;
    for (const Run& r : runs) {
      if (!r.ok) continue;
      all_walls.push_back(r.wall_s);
      steal.push_back(r.steal);
    }
    std::vector<double> walls;
    for (size_t k : QuietSamples(steal, kMinRuns)) {
      walls.push_back(all_walls[k]);
    }
    EndToEnd e;
    e.setup_s = setup_s;
    e.peak_rss_mb = peak_rss;
    e.success_rate =
        1.0 - static_cast<double>(report.failed) / report.attempted;
    e.run_s = Median(walls);
    e.qps = walls.size() / std::accumulate(walls.begin(), walls.end(), 0.0);
    e.query_p50_ms = Median(walls) * 1e3;
    e.query_p99_ms = TailQuantile(walls) * 1e3;
    std::printf(
        "samples: %zu PageRank runs of %d iterations, %zu on a quiet host "
        "(steal share <= %.2f; median steal %.3f); all runs: run_s %.6f "
        "qps %.6f query_p50_ms %.6f query_p99_ms %.6f%s\n",
        all_walls.size(), kIterations, walls.size(), kQuietSteal,
        Median(steal), Median(all_walls),
        all_walls.size() /
            std::accumulate(all_walls.begin(), all_walls.end(), 0.0),
        Median(all_walls) * 1e3, TailQuantile(all_walls) * 1e3,
        rss_reset ? "" : " (clear_refs refused: peak RSS is lifetime)");
    AddEndToEnd(e, &report);
  } else {
    AddLayers(layers, &report);
  }
  return report;
}

}  // namespace nxbench
