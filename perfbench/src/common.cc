#include "perfbench/src/common.h"

#include <fcntl.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <string>
#include <system_error>

namespace nxbench {

void PrintConfig(const RunConfig& c) {
  std::printf(
      "config: workload=%s seed=%llu nproc=%u strategy=%s io_backend=%s "
      "decode_path=%s\n",
      c.workload.c_str(), static_cast<unsigned long long>(c.seed), c.nproc,
      c.strategy.c_str(), c.io_backend.c_str(), c.decode_path.c_str());
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const size_t idx = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return values[std::min(idx, values.size() - 1)];
}

double TailQuantile(const std::vector<double>& values) {
  constexpr size_t kBeyond = 10;
  const size_t n = values.size();
  if (n == 0) return 0;
  const size_t p99 = static_cast<size_t>(std::ceil(0.99 * n)) - 1;
  if (n - 1 - p99 >= kBeyond) return Quantile(values, 0.99);
  // Nearest-rank indices: kBeyond samples lie beyond n - 1 - kBeyond.
  const size_t median = (n + 1) / 2 - 1;
  const size_t tail = n > kBeyond ? n - 1 - kBeyond : 0;
  std::vector<double> sorted = values;
  std::sort(sorted.begin(), sorted.end());
  return sorted[std::max(tail, median)];
}

CpuTicks SampleCpuTicks() {
  CpuTicks t;
  std::ifstream f("/proc/stat");
  std::string cpu;
  f >> cpu;
  if (cpu != "cpu") return t;
  // user nice system idle iowait irq softirq steal [guest guest_nice]
  for (int field = 0; field < 8; ++field) {
    uint64_t v = 0;
    if (!(f >> v)) return CpuTicks{};
    if (field != 3 && field != 4) t.runnable += v;
    if (field == 7) t.steal = v;
  }
  return t;
}

double StealShare(const CpuTicks& from, const CpuTicks& to) {
  if (to.runnable <= from.runnable) return 0;
  return static_cast<double>(to.steal - from.steal) /
         static_cast<double>(to.runnable - from.runnable);
}

std::vector<size_t> QuietSamples(const std::vector<double>& steal,
                                 size_t min_keep) {
  std::vector<size_t> order(steal.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&](size_t a, size_t b) { return steal[a] < steal[b]; });
  size_t keep = 0;
  while (keep < order.size() &&
         (keep < min_keep || steal[order[keep]] <= kQuietSteal)) {
    ++keep;
  }
  order.resize(keep);
  std::sort(order.begin(), order.end());
  return order;
}

Usage SampleUsage() {
  Usage u;
  u.wall = Clock::now();
  rusage ru{};
  if (getrusage(RUSAGE_SELF, &ru) == 0) {
    u.user_s = ru.ru_utime.tv_sec + ru.ru_utime.tv_usec / 1e6;
    u.sys_s = ru.ru_stime.tv_sec + ru.ru_stime.tv_usec / 1e6;
    u.vol_ctx_switches = ru.ru_nvcsw;
    u.minor_faults = ru.ru_minflt;
  }
  return u;
}

bool ResetPeakRss() {
  std::ofstream f("/proc/self/clear_refs");
  if (!f) return false;
  f << "5";
  f.flush();
  return static_cast<bool>(f);
}

double PeakRssMiB() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MiB
    }
  }
  return 0;
}

std::string CheckPinnedEnvironment() {
  for (const char* name : {"NXGRAPH_IO_BACKEND", "NXGRAPH_SIMD",
                           "NXGRAPH_SELECTIVE", "NXGRAPH_SUBSHARD_FORMAT"}) {
    if (std::getenv(name) != nullptr) {
      return std::string(name) +
             " is set; the benchmark measures library defaults, unset it";
    }
  }
  return "";
}

void FlushFilesystem(const std::string& dir) {
  const int fd = open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return;
  syncfs(fd);
  close(fd);
}

bool MakeDirs(const std::string& path) {
  std::error_code ec;
  std::filesystem::create_directories(path, ec);
  return !ec;
}

TempDir::TempDir(const std::string& parent) {
  MakeDirs(parent);
  std::string pattern = parent + "/store-XXXXXX";
  if (mkdtemp(pattern.data()) == nullptr) {
    std::fprintf(stderr, "nxbench: cannot create a directory under %s\n",
                 parent.c_str());
    std::exit(1);
  }
  path_ = pattern;
}

TempDir::~TempDir() {
  std::error_code ec;
  std::filesystem::remove_all(path_, ec);
}

}  // namespace nxbench
