// Prefetch pipeline benchmark: stream-mode PageRank on a throttled Env,
// sweeping the read-ahead depth. Depth 0 is the fully synchronous
// pre-pipeline behavior; depth >= 1 overlaps disk reads with computation,
// so wall-clock should drop towards max(io_time, compute_time) and the
// reported io_wait should collapse towards the unhidden remainder.
#include <benchmark/benchmark.h>

#include "bench/bench_common.h"

namespace nxgraph {
namespace {

struct DepthResult {
  int requested_depth;
  RunStats stats;
};

// Budget that forces stream mode while leaving room to fund `extra` window
// slots beyond the built-in double-buffer allowance. The sub-shard
// leftover is capped below the total shard bytes so the strategy never
// upgrades the run to fully-cached — this bench measures streaming.
uint64_t StreamBudget(const GraphStore& store, int extra_slots) {
  const uint64_t slot = PrefetchSlotBytes(store.manifest(), sizeof(double),
                                          EdgeDirection::kForward);
  const uint64_t total = store.TotalSubShardBytes(false);
  const uint64_t leftover =
      std::min<uint64_t>(extra_slots * slot + 1024, total - 1);
  return 2 * store.num_vertices() * sizeof(double) +  // ping-pong state
         store.num_vertices() * 4 +                   // out-degrees
         leftover;                                    // funded window slots
}

DepthResult RunAtDepth(std::shared_ptr<GraphStore> store, int depth,
                       int iterations,
                       IoBackend backend = IoBackend::kBuffered) {
  PageRankProgram program;
  program.num_vertices = store->num_vertices();
  RunOptions opt;
  opt.strategy = UpdateStrategy::kSinglePhase;  // stream-mode Phase A
  opt.memory_budget_bytes = StreamBudget(*store, depth > 0 ? depth - 1 : 0);
  opt.max_iterations = iterations;
  opt.num_threads = 3;
  opt.prefetch_depth = depth;
  opt.io_threads = 1;  // one reader keeps the modelled disk sequential
  opt.io_backend = backend;
  Engine<PageRankProgram> engine(store, program, opt);
  auto stats = engine.Run();
  NX_CHECK(stats.ok()) << stats.status().ToString();
  return {depth, *stats};
}

void BM_PrefetchDepth(benchmark::State& state) {
  auto store = bench::GetStore("live-journal-sim", 32, false);
  auto env = NewThrottledEnv(Env::Default(), DeviceProfile::Ssd());
  auto throttled = OpenGraphStore(store->dir(), env.get());
  NX_CHECK(throttled.ok());
  for (auto _ : state) {
    auto r = RunAtDepth(*throttled, static_cast<int>(state.range(0)), 3);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_PrefetchDepth)->Arg(0)->Arg(2)->Unit(benchmark::kSecond);

}  // namespace
}  // namespace nxgraph

int main(int argc, char** argv) {
  using namespace nxgraph;
  const bool full = bench::FullMode(argc, argv);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();

  std::printf(
      "\n=== Prefetch pipeline: stream-mode PageRank on a throttled SSD "
      "Env (live-journal-sim, P=32, 3 compute threads, 1 I/O thread) "
      "===\n\n");
  auto store = bench::GetStore("live-journal-sim", 32, full);
  auto env = NewThrottledEnv(Env::Default(), DeviceProfile::Ssd());
  auto throttled = OpenGraphStore(store->dir(), env.get());
  NX_CHECK(throttled.ok()) << throttled.status().ToString();

  const int iterations = full ? 10 : 5;
  bench::Table table({"Depth (req)", "Depth (eff)", "Wall (s)", "I/O wait (s)",
                      "Phase A (s)", "MTEPS", "Speedup vs sync"});
  double sync_seconds = 0;
  for (int depth : {0, 1, 2, 4}) {
    DepthResult r = RunAtDepth(*throttled, depth, iterations);
    if (depth == 0) sync_seconds = r.stats.seconds;
    table.AddRow({std::to_string(depth),
                  std::to_string(r.stats.prefetch_depth),
                  bench::Fmt(r.stats.seconds, 3),
                  bench::Fmt(r.stats.io_wait_seconds, 3),
                  bench::Fmt(r.stats.phase_a_seconds, 3),
                  bench::Fmt(r.stats.Mteps(), 1),
                  bench::Fmt(sync_seconds / r.stats.seconds, 2) + "x"});
  }
  table.Print();
  std::printf(
      "\nShape check: depth 0 pays the full read time as I/O wait; depth "
      ">= 1 hides reads behind computation, so wall-clock drops and I/O "
      "wait collapses towards the unhidden remainder.\n");

  // ---- backend sweep on the REAL filesystem ------------------------------
  // The throttled Env above models the device, so backends cannot change
  // it; this sweep runs the same stream-mode PageRank against the real
  // disk, where buffered reads come out of the (warm) page cache while
  // direct reads face the device every time. That contrast is the point:
  // direct numbers show the true device cost the page cache was hiding,
  // and the depth-0 vs depth-2 delta becomes a real device-overlap
  // measurement instead of a kernel-readahead artifact.
  std::printf(
      "\n=== Backend sweep: same workload on the real filesystem "
      "(page cache warm for buffered; direct bypasses it) ===\n\n");
  bench::Table backends({"Backend (req)", "Backend (eff)", "Depth",
                         "Wall (s)", "I/O wait (s)", "MTEPS"});
  for (IoBackend backend : {IoBackend::kBuffered, IoBackend::kDirect}) {
    for (int depth : {0, 2}) {
      DepthResult r = RunAtDepth(store, depth, iterations, backend);
      backends.AddRow({IoBackendName(backend), r.stats.io_backend,
                       std::to_string(depth), bench::Fmt(r.stats.seconds, 3),
                       bench::Fmt(r.stats.io_wait_seconds, 3),
                       bench::Fmt(r.stats.Mteps(), 1)});
    }
  }
  backends.Print();
  return 0;
}
