// nxbench: the repository benchmark driver. One invocation runs one workload
// for one seed and prints its metrics; the last line of stdout is the result
// as one JSON object. See perfbench/README.md.
//
//   nxbench --workload pr-inmem|pr-ooc|serve-mixed --seed N --seconds S
//           --trace 0|1 [--work-dir DIR]
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "perfbench/src/common.h"
#include "perfbench/src/trace.h"
#include "perfbench/src/workload.h"

namespace nxbench {
namespace {

[[noreturn]] void UsageError(const char* message) {
  std::fprintf(stderr,
               "nxbench: %s\nusage: nxbench --workload "
               "pr-inmem|pr-ooc|serve-mixed --seed N --seconds S --trace 0|1 "
               "[--work-dir DIR]\n",
               message);
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int k = 1; k < argc; ++k) {
    if (k + 1 >= argc) UsageError("every flag takes a value");
    const char* flag = argv[k];
    const char* value = argv[++k];
    if (std::strcmp(flag, "--workload") == 0) {
      args.workload = value;
    } else if (std::strcmp(flag, "--seed") == 0) {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (std::strcmp(flag, "--seconds") == 0) {
      args.seconds = std::strtod(value, nullptr);
    } else if (std::strcmp(flag, "--trace") == 0) {
      args.trace = std::strcmp(value, "0") != 0;
    } else if (std::strcmp(flag, "--work-dir") == 0) {
      args.work_dir = value;
    } else {
      UsageError("unknown flag");
    }
  }
  if (args.workload != "pr-inmem" && args.workload != "pr-ooc" &&
      args.workload != "serve-mixed") {
    UsageError("unknown workload");
  }
  if (!(args.seconds > 0)) UsageError("--seconds must be positive");
  return args;
}

void PrintResult(const Report& r) {
  for (const Metric& m : r.metrics) {
    std::printf("metric %-36s %14.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              r.correct ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  for (size_t k = 0; k < r.metrics.size(); ++k) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                k > 0 ? ", " : "", r.metrics[k].name.c_str(),
                r.metrics[k].value, r.metrics[k].unit.c_str());
  }
  std::printf("}}\n");
}

int Main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  const std::string refusal = CheckPinnedEnvironment();
  if (!refusal.empty()) {
    std::fprintf(stderr, "nxbench: %s\n", refusal.c_str());
    return 2;
  }
  if (!MakeDirs(args.work_dir)) {
    std::fprintf(stderr, "nxbench: cannot create %s\n", args.work_dir.c_str());
    return 1;
  }
  RunConfig config;
  config.workload = args.workload;
  config.seed = args.seed;
  config.nproc = static_cast<unsigned>(sysconf(_SC_NPROCESSORS_ONLN));

  Tracer tracer;
  Tracer* t = args.trace ? &tracer : nullptr;
  Report report = args.workload == "serve-mixed"
                      ? RunServeWorkload(args, &config, t)
                      : RunPageRankWorkload(
                            args, args.workload == "pr-ooc", &config, t);
  PrintConfig(config);
  if (args.trace) {
    const std::string dir = args.work_dir + "/traces";
    const std::string path = dir + "/" + args.workload + "-seed" +
                             std::to_string(args.seed) + ".json";
    if (MakeDirs(dir) && tracer.WriteChromeJson(path, config)) {
      std::printf("trace: %zu spans (%llu dropped) written to %s\n",
                  tracer.recorded(),
                  static_cast<unsigned long long>(tracer.dropped()),
                  path.c_str());
    } else {
      std::fprintf(stderr, "nxbench: could not write %s\n", path.c_str());
    }
  }
  PrintResult(report);
  return 0;
}

}  // namespace
}  // namespace nxbench

int main(int argc, char** argv) { return nxbench::Main(argc, argv); }
