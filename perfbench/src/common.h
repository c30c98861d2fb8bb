// Shared pieces of the repository benchmark: arguments, the result record,
// order statistics, process diagnostics and scratch directories.
#ifndef NXGRAPH_PERFBENCH_COMMON_H_
#define NXGRAPH_PERFBENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace nxbench {

using Clock = std::chrono::steady_clock;

inline double Seconds(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

/// Command-line arguments of one benchmark run.
struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Directory (inside the checkout) for scratch stores and trace files.
  std::string work_dir = ".bench_build/work";
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What one run reports: correctness, operation counts and metrics.
struct Report {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  /// Counts one operation; `ok` false marks it failed.
  void Count(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
};

/// The run configuration recorded with every run.
struct RunConfig {
  std::string workload;
  uint64_t seed = 0;
  unsigned nproc = 0;
  std::string strategy;
  std::string io_backend;
  std::string decode_path;
};

void PrintConfig(const RunConfig& config);

/// Nearest-rank quantile (q in [0, 1]); 0 for an empty sample.
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}
/// Tail latency reported as p99: the nearest-rank p99 when at least ten
/// samples lie beyond it, otherwise the highest percentile that has ten
/// samples beyond it, and never below the median.
double TailQuantile(const std::vector<double>& values);

/// Jiffies of the aggregate "cpu" line of /proc/stat: time the hypervisor
/// stole from this machine's vCPUs, and the time they were runnable (user,
/// nice, system, irq, softirq and steal).
struct CpuTicks {
  uint64_t steal = 0;
  uint64_t runnable = 0;
};
CpuTicks SampleCpuTicks();
/// Share of runnable CPU time the hypervisor stole between two samples (0
/// when unknown). Steal accrues only while a vCPU is runnable, so the share
/// measures the host's contention whatever number of CPUs the benchmark
/// itself keeps busy.
double StealShare(const CpuTicks& from, const CpuTicks& to);

/// A PageRank run is timed on a quiet host when at most this share of its
/// runnable CPU time was stolen. The reference VM's hypervisor steals
/// 20-60% in bursts of seconds to minutes, and 0-5% otherwise.
inline constexpr double kQuietSteal = 0.10;
/// Indices (ascending) of the samples timed on a quiet host; when fewer
/// than `min_keep`, the `min_keep` with the least steal instead.
std::vector<size_t> QuietSamples(const std::vector<double>& steal,
                                 size_t min_keep);

/// getrusage(RUSAGE_SELF) snapshot plus the wall clock.
struct Usage {
  Clock::time_point wall;
  double user_s = 0;
  double sys_s = 0;
  int64_t vol_ctx_switches = 0;
  int64_t minor_faults = 0;
};
Usage SampleUsage();

/// Resets the kernel's peak-RSS mark (VmHWM) to the current RSS through
/// /proc/self/clear_refs. Returns false when the kernel refuses.
bool ResetPeakRss();
/// VmHWM from /proc/self/status, in MiB (0 if unreadable).
double PeakRssMiB();

/// Fails (returns a message) when an environment variable that silently
/// changes the library's defaults is set; empty when the run may proceed.
std::string CheckPinnedEnvironment();

/// A fresh directory under `parent`, removed with its contents on
/// destruction.
class TempDir {
 public:
  explicit TempDir(const std::string& parent);
  ~TempDir();
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;

  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// Writes back the dirty pages of the filesystem holding `dir` (syncfs), so
/// that the kernel's deferred writeback of freshly built stores does not run
/// during a timed phase.
void FlushFilesystem(const std::string& dir);

/// Creates `path` and its parents (like mkdir -p); returns false on error.
bool MakeDirs(const std::string& path);

}  // namespace nxbench

#endif  // NXGRAPH_PERFBENCH_COMMON_H_
