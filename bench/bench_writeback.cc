// Write-behind pipeline benchmark: forced-DPU PageRank on a throttled SSD
// Env, sweeping the writeback budget. DPU spends every iteration in Phases
// B and C, whose hub payloads and interval write-backs used to block
// compute-pool tasks on device write latency — most visibly when compute
// threads are scarce (one worker here, the paper's low-thread rows).
// Budget 0 is that fully synchronous pre-writeback behavior; a funded
// budget moves the writes to the dedicated writer pool, so wall-clock
// should drop and the reported write_wait should collapse towards the
// unhidden remainder (the end-of-phase Drain barriers).
#include <benchmark/benchmark.h>

#include "bench/bench_common.h"
#include "src/util/byte_size.h"

namespace nxgraph {
namespace {

struct BudgetResult {
  uint64_t budget;
  RunStats stats;
};

BudgetResult RunAtBudget(std::shared_ptr<GraphStore> store, uint64_t budget,
                         int iterations,
                         IoBackend backend = IoBackend::kBuffered) {
  PageRankProgram program;
  program.num_vertices = store->num_vertices();
  RunOptions opt;
  opt.strategy = UpdateStrategy::kDoublePhase;  // all work in Phases B/C
  opt.max_iterations = iterations;
  opt.num_threads = 1;
  opt.io_threads = 2;
  opt.writeback_threads = 4;  // modeled device: parallel sleeps ~ queue depth
  opt.writeback_buffer_bytes = budget;
  opt.io_backend = backend;
  Engine<PageRankProgram> engine(store, program, opt);
  auto stats = engine.Run();
  NX_CHECK(stats.ok()) << stats.status().ToString();
  return {budget, *stats};
}

void BM_WritebackBudget(benchmark::State& state) {
  auto store = bench::GetStore("live-journal-sim", 32, false);
  auto env = NewThrottledEnv(Env::Default(), DeviceProfile::Ssd());
  auto throttled = OpenGraphStore(store->dir(), env.get());
  NX_CHECK(throttled.ok());
  for (auto _ : state) {
    auto r = RunAtBudget(*throttled,
                         static_cast<uint64_t>(state.range(0)), 3);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_WritebackBudget)->Arg(0)->Arg(8 << 20)->Unit(benchmark::kSecond);

}  // namespace
}  // namespace nxgraph

int main(int argc, char** argv) {
  using namespace nxgraph;
  const bool full = bench::FullMode(argc, argv);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();

  std::printf(
      "\n=== Write-behind pipeline: forced-DPU PageRank on a throttled SSD "
      "Env (live-journal-sim, P=32, 1 compute thread, 2 read + 4 write I/O "
      "threads) ===\n\n");
  auto store = bench::GetStore("live-journal-sim", 32, full);
  auto env = NewThrottledEnv(Env::Default(), DeviceProfile::Ssd());
  auto throttled = OpenGraphStore(store->dir(), env.get());
  NX_CHECK(throttled.ok()) << throttled.status().ToString();

  const int iterations = full ? 10 : 5;
  bench::Table table({"Budget", "Wall (s)", "Write wait (s)", "I/O wait (s)",
                      "Phase B (s)", "Phase C (s)", "MTEPS",
                      "Speedup vs sync"});
  double sync_seconds = 0;
  for (uint64_t budget :
       {uint64_t{0}, uint64_t{64} << 10, uint64_t{8} << 20}) {
    BudgetResult r = RunAtBudget(*throttled, budget, iterations);
    if (budget == 0) sync_seconds = r.stats.seconds;
    table.AddRow({budget == 0 ? "0 (sync)" : FormatByteSize(budget),
                  bench::Fmt(r.stats.seconds, 3),
                  bench::Fmt(r.stats.write_wait_seconds, 3),
                  bench::Fmt(r.stats.io_wait_seconds, 3),
                  bench::Fmt(r.stats.phase_b_seconds, 3),
                  bench::Fmt(r.stats.phase_c_seconds, 3),
                  bench::Fmt(r.stats.Mteps(), 1),
                  bench::Fmt(sync_seconds / r.stats.seconds, 2) + "x"});
  }
  table.Print();
  std::printf(
      "\nShape check: budget 0 pays every hub/interval write inside a "
      "compute task as write wait; a funded budget drains them on the I/O "
      "pool, so wall-clock drops and write wait collapses towards the "
      "end-of-phase Drain barriers.\n");

  // ---- backend sweep on the REAL filesystem ------------------------------
  // The throttled sweep above models the device, which backends cannot
  // change; here the same forced-DPU PageRank runs against the real disk.
  // Buffered writes land in the page cache and cost nearly nothing until
  // the iteration-boundary fdatasync; direct writes pay the device on
  // every WriteAt — so the write-behind budget (and the queue's elevator +
  // group commit) has real work to hide on the direct backend.
  std::printf(
      "\n=== Backend sweep: same workload on the real filesystem "
      "(page cache absorbs buffered writes; direct pays the device) "
      "===\n\n");
  bench::Table backends({"Backend (req)", "Backend (eff)", "Budget",
                         "Wall (s)", "Write wait (s)", "MTEPS"});
  for (IoBackend backend : {IoBackend::kBuffered, IoBackend::kDirect}) {
    for (uint64_t budget : {uint64_t{0}, uint64_t{8} << 20}) {
      BudgetResult r = RunAtBudget(store, budget, iterations, backend);
      backends.AddRow({IoBackendName(backend), r.stats.io_backend,
                       budget == 0 ? "0 (sync)" : FormatByteSize(budget),
                       bench::Fmt(r.stats.seconds, 3),
                       bench::Fmt(r.stats.write_wait_seconds, 3),
                       bench::Fmt(r.stats.Mteps(), 1)});
    }
  }
  backends.Print();
  return 0;
}
