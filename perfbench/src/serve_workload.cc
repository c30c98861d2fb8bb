// serve-mixed: a closed loop of client threads against one GraphServer on
// live-journal-sim/256 whose evictable cache holds 3/4 of the forward
// decoded store, the working set of every query.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "perfbench/src/workload.h"
#include "src/algos/programs.h"
#include "src/algos/reference.h"
#include "src/core/nxgraph.h"
#include "src/server/graph_server.h"
#include "src/util/random.h"

namespace nxbench {

namespace {

constexpr char kDataset[] = "live-journal-sim";
constexpr uint64_t kDivisor = 256;
constexpr int kClients = 4;
constexpr uint64_t kBatchEvery = 4;  // client 0: one batch per rotation
constexpr int kBatchIterations = 3;
constexpr int kKHops = 2;
constexpr int kSsspRounds = 8;
// Each client reference-checks every other rotation of the four probes
// among its first kSampleBelow queries, so every probe kind is checked.
constexpr uint64_t kSampleBelow = 128;
// Stores built per untraced run; setup_s is their median. A traced run
// builds one.
constexpr int kSetups = 3;
// An untimed stream before timing fills the cache and warms the server.
constexpr double kWarmupSeconds = 2;
// A stream is cut into windows of this length. A window is quiet when at
// most kQuietWindowSteal of its runnable CPU time was stolen, and a quiet
// stretch is a run of at least kQuietRunWindows quiet windows. The stream
// runs until its quiet stretches add up to its length, but for at most
// kMaxStretch times that length. The windows are short and the bound tight
// because p99 rests on a few queries, and a burst of steal while one of
// them runs moves it. A stretch is some ten times the median query, so
// that the quiet time does not keep short queries and drop long ones.
constexpr double kWindowSeconds = 0.25;
constexpr double kQuietWindowSteal = 0.05;
constexpr size_t kQuietRunWindows = 8;
constexpr double kMaxStretch = 2;
constexpr uint32_t kUnreached = UINT32_MAX;

using nxgraph::GraphServer;
using nxgraph::PointQuery;
using nxgraph::PointResult;
using nxgraph::QueryKind;
using nxgraph::QueryStats;
using nxgraph::VertexId;

/// The four point queries each client rotates through.
enum class Probe { kBfs, kKHop, kSssp, kCappedBfs };
constexpr int kProbes = 4;
constexpr const char* kProbeNames[kProbes] = {"bfs", "2-hop", "sssp",
                                              "capped-bfs"};

/// Submit -> Wait of one query or batch.
struct Span {
  Clock::time_point from;
  Clock::time_point to;
};

struct Sample {
  Probe probe;
  VertexId root;
  PointResult result;
};

/// What one client saw during a stream.
struct ClientLog {
  std::vector<Span> answered;      ///< point queries answered in full
  std::vector<QueryStats> stats;   ///< point queries completed (+ truncated)
  std::vector<Clock::time_point> completed_at;  ///< ... and when
  std::vector<Span> batches;       ///< PageRank batches
  std::vector<QueryStats> batch_stats;
  std::vector<Sample> samples;
  uint64_t attempted = 0;
  uint64_t failed = 0;
};

/// Inputs shared by every client of a stream.
struct Stream {
  GraphServer* server = nullptr;
  uint64_t seed = 0;
  const std::vector<VertexId>* roots = nullptr;
  uint64_t capped_budget = 0;
  const std::atomic<bool>* stop = nullptr;  ///< no query starts once set
  Tracer* tracer = nullptr;
  uint64_t parent_span = 0;
  DistinctAnswers* batch_answers = nullptr;  ///< client 0 only
};

PointQuery MakeQuery(Probe probe, VertexId root, uint64_t capped_budget) {
  PointQuery q;
  q.root = root;
  switch (probe) {
    case Probe::kBfs:
      q.kind = QueryKind::kBfs;
      break;
    case Probe::kKHop:
      q.kind = QueryKind::kKHop;
      q.limits.max_hops = kKHops;
      break;
    case Probe::kSssp:
      q.kind = QueryKind::kSssp;
      q.limits.max_hops = kSsspRounds;
      break;
    case Probe::kCappedBfs:
      q.kind = QueryKind::kBfs;
      q.limits.io_byte_budget = capped_budget;
      break;
  }
  return q;
}

void RunBatch(const Stream& s, ClientLog* log) {
  nxgraph::PageRankProgram program;
  program.num_vertices = s.server->store().num_vertices();
  nxgraph::BatchQuery spec;
  spec.max_iterations = kBatchIterations;
  const uint64_t span = s.tracer != nullptr ? s.tracer->NewId() : 0;
  const Clock::time_point t0 = Clock::now();
  auto future = s.server->SubmitBatch(program, spec);
  const auto& out = future.Wait();
  const Clock::time_point t1 = Clock::now();
  if (s.tracer != nullptr) {
    s.tracer->Record("server.batch", span, s.parent_span, future.id(), t0, t1);
  }
  ++log->attempted;
  if (!out.status.ok()) {
    ++log->failed;
    return;
  }
  log->batches.push_back({t0, t1});
  log->batch_stats.push_back(out.result.stats);
  s.batch_answers->Add(out.result.values);
}

void RunClient(const Stream& s, int client, ClientLog* log) {
  nxgraph::Xoshiro256 rng(s.seed * 1000003 + static_cast<uint64_t>(client));
  for (uint64_t k = 0; !s.stop->load(); ++k) {
    if (client == 0 && k > 0 && k % kBatchEvery == 0) RunBatch(s, log);
    const Probe probe = static_cast<Probe>(k % kProbes);
    const VertexId root = (*s.roots)[rng.NextBounded(s.roots->size())];
    const PointQuery query = MakeQuery(probe, root, s.capped_budget);
    const uint64_t span = s.tracer != nullptr ? s.tracer->NewId() : 0;
    const Clock::time_point t0 = Clock::now();
    auto future = s.server->Submit(query);
    const auto& out = future.Wait();
    const Clock::time_point t1 = Clock::now();
    if (s.tracer != nullptr) {
      s.tracer->Record("server.query", span, s.parent_span, future.id(), t0,
                       t1);
    }
    // A capped probe that runs out of budget returns a partial result:
    // that is its purpose, not a failure.
    const bool truncated = probe == Probe::kCappedBfs &&
                           out.status.IsResourceExhausted() &&
                           out.result.stats.truncated;
    ++log->attempted;
    if (!out.status.ok() && !truncated) {
      ++log->failed;
      continue;
    }
    // Latency percentiles cover queries that ran to their answer; a
    // truncated probe stops wherever its budget runs out.
    if (!truncated) log->answered.push_back({t0, t1});
    log->stats.push_back(out.result.stats);
    log->completed_at.push_back(t1);
    if (k < kSampleBelow && (k / kProbes) % 2 == 0) {
      log->samples.push_back({probe, root, out.result});
    }
  }
}

/// Consecutive windows of a stream with the StealShare of each.
struct Windows {
  std::vector<Clock::time_point> edges;  ///< window k is [edges[k], edges[k+1])
  std::vector<double> steal;
};

template <typename T>
void Append(std::vector<T>* to, const std::vector<T>& from) {
  to->insert(to->end(), from.begin(), from.end());
}

/// Runs the closed loop until its quiet stretches add up to `seconds` (for
/// at most kMaxStretch x `seconds`); returns the merged client logs, the
/// stream's wall time and its windows.
ClientLog RunStream(Stream s, double seconds, double* wall_s,
                    Windows* windows = nullptr) {
  const auto after = [](double sec) {
    return std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(sec));
  };
  std::atomic<bool> stop{false};
  std::atomic<bool> done{false};
  s.stop = &stop;
  Windows w;
  const Clock::time_point start = Clock::now();
  // Closes a window per kWindowSeconds and stops the clients; the last,
  // partial window ends when they have finished.
  std::thread sampler([&] {
    CpuTicks last = SampleCpuTicks();
    size_t quiet_run = 0;
    double quiet_s = 0;
    w.edges.push_back(start);
    while (!done.load()) {
      const Clock::time_point next = w.edges.back() + after(kWindowSeconds);
      while (!done.load() && Clock::now() < next) {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
      const CpuTicks now = SampleCpuTicks();
      w.edges.push_back(Clock::now());
      w.steal.push_back(StealShare(last, now));
      last = now;
      quiet_run = w.steal.back() <= kQuietWindowSteal ? quiet_run + 1 : 0;
      if (quiet_run == kQuietRunWindows) {
        quiet_s += kQuietRunWindows * kWindowSeconds;
      } else if (quiet_run > kQuietRunWindows) {
        quiet_s += kWindowSeconds;
      }
      if (quiet_s >= seconds ||
          Seconds(start, w.edges.back()) >= kMaxStretch * seconds) {
        stop.store(true);
      }
    }
  });
  std::vector<ClientLog> logs(kClients);
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&s, &logs, c] { RunClient(s, c, &logs[c]); });
  }
  for (std::thread& t : clients) t.join();
  *wall_s = Seconds(start, Clock::now());
  done.store(true);
  sampler.join();
  if (windows != nullptr) *windows = std::move(w);
  ClientLog all;
  for (ClientLog& l : logs) {
    Append(&all.answered, l.answered);
    Append(&all.stats, l.stats);
    Append(&all.completed_at, l.completed_at);
    Append(&all.batches, l.batches);
    Append(&all.batch_stats, l.batch_stats);
    for (Sample& sample : l.samples) all.samples.push_back(std::move(sample));
    all.attempted += l.attempted;
    all.failed += l.failed;
  }
  return all;
}

/// The windows of a stream to time: its quiet stretches; when these hold
/// fewer than `min_keep` windows, the `min_keep` consecutive windows with
/// the least steal.
std::vector<uint8_t> KeptWindows(const std::vector<double>& steal,
                                 size_t min_keep) {
  const size_t n = steal.size();
  std::vector<uint8_t> keep(n, 0);
  size_t kept = 0;
  for (size_t from = 0; from < n;) {
    size_t to = from;
    while (to < n && steal[to] <= kQuietWindowSteal) ++to;
    if (to - from >= kQuietRunWindows) {
      std::fill(keep.begin() + from, keep.begin() + to, 1);
      kept += to - from;
    }
    from = to + 1;
  }
  if (kept >= min_keep) return keep;
  const size_t len = std::min(min_keep, n);
  size_t best = 0;
  double best_sum = 0, sum = 0;
  for (size_t k = 0; k < n; ++k) {
    sum += steal[k];
    if (k >= len) sum -= steal[k - len];
    if (k + 1 == len || (k + 1 > len && sum < best_sum)) {
      best = k + 1 - len;
      best_sum = sum;
    }
  }
  std::fill(keep.begin(), keep.end(), 0);
  std::fill(keep.begin() + best, keep.begin() + best + len, 1);
  return keep;
}

/// The end-to-end figures of a stream, over the windows in `keep`: the
/// queries and batches that ran in kept windows only, and the queries
/// completed in them per kept second.
struct StreamFigures {
  double qps = 0;
  double run_s = 0;
  double p50_ms = 0;
  double p99_ms = 0;
  size_t answered = 0;
  size_t batches = 0;
};

StreamFigures Figures(const ClientLog& log, const Windows& w,
                      const std::vector<uint8_t>& keep) {
  const size_t n = w.steal.size();
  const auto window = [&](Clock::time_point t) {
    const size_t k = static_cast<size_t>(
        std::upper_bound(w.edges.begin(), w.edges.end(), t) -
        w.edges.begin());
    return std::min(k == 0 ? 0 : k - 1, n - 1);
  };
  const auto kept = [&](const Span& span) {
    for (size_t k = window(span.from); k <= window(span.to); ++k) {
      if (!keep[k]) return false;
    }
    return true;
  };
  double seconds = 0;
  for (size_t k = 0; k < n; ++k) {
    if (keep[k]) seconds += Seconds(w.edges[k], w.edges[k + 1]);
  }
  double completed = 0;
  for (Clock::time_point t : log.completed_at) completed += keep[window(t)];
  std::vector<double> latency_ms, batch_s;
  for (const Span& q : log.answered) {
    if (kept(q)) latency_ms.push_back(Seconds(q.from, q.to) * 1e3);
  }
  for (const Span& b : log.batches) {
    if (kept(b)) batch_s.push_back(Seconds(b.from, b.to));
  }
  StreamFigures f;
  f.qps = seconds > 0 ? completed / seconds : 0;
  f.run_s = Median(batch_s);
  f.p50_ms = Median(latency_ms);
  f.p99_ms = TailQuantile(latency_ms);
  f.answered = latency_ms.size();
  f.batches = batch_s.size();
  return f;
}

/// Whether `sample` matches the reference on `graph` (unit weights).
bool CheckSample(const nxgraph::ReferenceGraph& graph, const Sample& sample) {
  const std::vector<uint32_t> depth = nxgraph::ReferenceBfs(graph, sample.root);
  const PointResult& r = sample.result;
  // The depth bound of the vertices the result must hold exactly, and the
  // bound no returned vertex may exceed.
  uint32_t complete_to = kUnreached - 1;
  uint32_t reach_to = kUnreached - 1;
  switch (sample.probe) {
    case Probe::kBfs:
      break;
    case Probe::kKHop:
      complete_to = reach_to = kKHops;
      break;
    case Probe::kSssp:
      complete_to = reach_to = kSsspRounds;
      break;
    case Probe::kCappedBfs:
      // A truncated probe applied rounds 1..iterations, the last one over
      // only the sub-shards its budget funded: every vertex it returns is
      // exact, and all vertices of the earlier, complete rounds are there.
      if (r.stats.truncated) {
        reach_to = static_cast<uint32_t>(r.stats.iterations);
        complete_to = reach_to == 0 ? 0 : reach_to - 1;
      }
      break;
  }
  std::vector<float> cost;
  if (sample.probe == Probe::kSssp) {
    cost = nxgraph::ReferenceSssp(graph, sample.root);
    if (r.costs.size() != r.vertices.size()) return false;
  } else if (r.hops.size() != r.vertices.size()) {
    return false;
  }
  uint64_t in_complete = 0;
  for (size_t k = 0; k < r.vertices.size(); ++k) {
    const VertexId v = r.vertices[k];
    if (v >= depth.size() || depth[v] == kUnreached || depth[v] > reach_to) {
      return false;
    }
    if (k > 0 && r.vertices[k - 1] >= v) return false;  // ascending ids
    if (sample.probe == Probe::kSssp ? r.costs[k] != cost[v]
                                     : r.hops[k] != depth[v]) {
      return false;
    }
    if (depth[v] <= complete_to) ++in_complete;
  }
  uint64_t expected = 0;
  for (uint32_t d : depth) {
    if (d != kUnreached && d <= complete_to) ++expected;
  }
  return in_complete == expected;
}

}  // namespace

Report RunServeWorkload(const Args& args, RunConfig* config, Tracer* tracer) {
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

  // Setup: build a fresh store and open a server on it kSetups times; keep
  // the last. The cache budget is 3/4 of the forward decoded sub-shards
  // (every query reads forward only), read from the first store's manifest:
  // clearly below the working set, so every seed runs in the evicting
  // regime. Half of both directions is about the whole forward set, and
  // then some seeds fit it and never evict.
  TracingEnv tracing_env(nxgraph::Env::Default(), tracer);
  nxgraph::Env* env =
      traced ? static_cast<nxgraph::Env*>(&tracing_env) : nxgraph::Env::Default();
  GraphServer::Options options;
  std::vector<double> setup_s, degreer_s, sharder_s;
  std::unique_ptr<TempDir> dir;
  std::unique_ptr<GraphServer> server;
  for (int k = 0; k < (traced ? 1 : kSetups); ++k) {
    server.reset();
    dir = std::make_unique<TempDir>(args.work_dir + "/stores");
    double deg = 0, shard = 0;
    const Clock::time_point t0 = Clock::now();
    nxgraph::Status built =
        BuildStore(*edges, dir->path(), env, traced, tracer, &deg, &shard);
    const Clock::time_point t1 = Clock::now();
    if (built.ok() && k == 0) {
      auto store = nxgraph::OpenGraphStore(dir->path());
      if (store.ok()) {
        const nxgraph::Manifest& m = (*store)->manifest();
        options.cache_budget_bytes =
            m.TotalDecodedSubShardBytes(false) * 3 / 4;
      }
    }
    const Clock::time_point t2 = Clock::now();
    auto opened = built.ok() ? GraphServer::Open(env, dir->path(), options)
                             : nxgraph::Result<std::unique_ptr<GraphServer>>(
                                   built);
    setup_s.push_back(Seconds(t0, t1) + Seconds(t2, Clock::now()));
    if (!opened.ok()) {
      std::fprintf(stderr, "setup: %s\n", opened.status().ToString().c_str());
      std::exit(1);
    }
    server = std::move(*opened);
    degreer_s.push_back(deg);
    sharder_s.push_back(shard);
  }
  edges.reset();
  FlushFilesystem(dir->path());
  if (server->store().weighted()) {
    std::fprintf(stderr, "serve-mixed checks SSSP with unit weights\n");
    std::exit(1);
  }

  std::vector<VertexId> roots;
  {
    auto degrees = server->store().LoadOutDegrees();
    if (!degrees.ok()) std::exit(1);
    for (VertexId v = 0; v < degrees->size(); ++v) {
      if ((*degrees)[v] > 0) roots.push_back(v);
    }
  }
  Stream stream;
  stream.seed = args.seed;
  stream.roots = &roots;
  stream.capped_budget = server->store().TotalSubShardBytes(false) / 8;
  DistinctAnswers batch_answers;
  stream.batch_answers = &batch_answers;

  // The untraced stream (in a traced run: the comparison stream, on a
  // server of its own over the plain Env).
  std::unique_ptr<GraphServer> plain;
  if (traced) {
    auto opened = GraphServer::Open(nxgraph::Env::Default(), dir->path(),
                                    options);
    if (!opened.ok()) std::exit(1);
    plain = std::move(*opened);
  }
  stream.server = traced ? plain.get() : server.get();
  config->strategy = "GraphServer(evictable cache)";
  config->io_backend = "buffered";
  config->decode_path = stream.server->stats().decode_path;

  double wall_s = 0;
  Windows windows;
  const auto warm_up = [&] {
    const ClientLog warm = RunStream(stream, kWarmupSeconds, &wall_s);
    report.attempted += warm.attempted;
    report.failed += warm.failed;
  };
  warm_up();
  const Usage u0 = SampleUsage();
  ClientLog log = RunStream(stream, traced ? args.seconds / 2 : args.seconds,
                            &wall_s, &windows);
  const Usage u1 = SampleUsage();
  const double peak_rss = PeakRssMiB();
  const double untraced_qps = log.stats.size() / wall_s;
  plain.reset();

  Layers layers;
  if (traced) {
    layers.SetOs(u0, u1, static_cast<double>(log.stats.size()));
    layers.prep_degreer_s = Median(degreer_s);
    layers.prep_sharder_s = Median(sharder_s);
    layers.prep_store_bytes_per_edge =
        static_cast<double>(server->store().TotalSubShardBytes(false)) /
        server->store().num_edges();

    // The traced stream on the server opened over the tracing Env.
    report.attempted += log.attempted;
    report.failed += log.failed;
    std::vector<Sample> untraced_samples = std::move(log.samples);
    stream.server = server.get();
    warm_up();
    const IoCounters io_before = tracing_env.counters();
    const auto cache_before = server->stats().cache;
    ScopedSpan stream_span(tracer, "server.stream");
    tracer->SetCurrentRoot(stream_span.id());
    stream.tracer = tracer;
    stream.parent_span = stream_span.id();
    double traced_wall_s = 0;
    log = RunStream(stream, args.seconds / 2, &traced_wall_s);
    tracer->SetCurrentRoot(0);
    for (Sample& s : untraced_samples) log.samples.push_back(std::move(s));

    const double queries = static_cast<double>(log.stats.size());
    layers.SetIo(tracing_env.counters() - io_before, queries);
    const auto cache_after = server->stats().cache;
    const uint64_t hits = cache_after.hits - cache_before.hits;
    const uint64_t misses = cache_after.misses - cache_before.misses;
    layers.cache_hit_rate =
        hits + misses > 0 ? static_cast<double>(hits) / (hits + misses) : 0;
    layers.cache_evictions_per_query =
        queries > 0 ? (cache_after.evictions - cache_before.evictions) / queries
                    : 0;
    std::vector<double> queue_ms, run_ms;
    double visited = 0, skipped = 0, truncated = 0;
    for (const QueryStats& q : log.stats) {
      queue_ms.push_back(q.queue_seconds * 1e3);
      run_ms.push_back(q.run_seconds * 1e3);
      visited += q.subshards_visited;
      skipped += q.subshards_skipped;
      truncated += q.truncated ? 1 : 0;
    }
    layers.server_queue_ms_p50 = Median(queue_ms);
    layers.server_run_ms_p50 = Median(run_ms);
    if (queries > 0) {
      layers.server_subshards_visited_per_query = visited / queries;
      layers.server_subshards_skipped_per_query = skipped / queries;
      layers.server_truncated_frac = truncated / queries;
    }
    const double traced_qps = queries / traced_wall_s;
    layers.trace_overhead_frac =
        traced_qps > 0 ? untraced_qps / traced_qps - 1 : 0;

    auto store = nxgraph::OpenGraphStore(dir->path(), &tracing_env);
    if (!store.ok()) std::exit(1);
    layers.storage = ProbeStorage(**store, tracer);
    layers.cache = ProbeCache(*store, tracer);
    report.Count(layers.storage.ok);
    report.Count(layers.cache.ok);

    std::vector<double> batch_queue, batch_run;
    for (const QueryStats& q : log.batch_stats) {
      batch_queue.push_back(q.queue_seconds);
      batch_run.push_back(q.run_seconds);
    }
    std::vector<double> batch_wall;
    for (const Span& b : log.batches) {
      batch_wall.push_back(Seconds(b.from, b.to));
    }
    const double batch_s = Median(batch_wall);
    std::printf(
        "breakdown %s: batch run_s %.4f = queue %.4f + run %.4f + "
        "unattributed %.4f (medians per PageRank batch)\n",
        args.workload.c_str(), batch_s, Median(batch_queue), Median(batch_run),
        batch_s - Median(batch_queue) - Median(batch_run));
    std::printf("io model %s: not applicable (no io_model for served "
                "queries)\n",
                args.workload.c_str());
  }
  report.attempted += log.attempted;
  report.failed += log.failed;

  // Reference checks, after timing. A run that checked no sample of some
  // probe kind is not correct: that kind's answers went unverified.
  uint64_t wrong = 0;
  uint64_t checked[kProbes] = {0, 0, 0, 0};
  uint64_t truncated_checked = 0;
  {
    auto graph = nxgraph::LoadReferenceGraph(server->store());
    if (!graph.ok()) {
      report.correct = false;
    } else {
      for (const Sample& s : log.samples) {
        if (!CheckSample(*graph, s)) ++wrong;
        ++checked[static_cast<int>(s.probe)];
        if (s.result.stats.truncated) ++truncated_checked;
      }
      wrong += batch_answers.Wrong(
          nxgraph::ReferencePageRank(*graph, 0.85, kBatchIterations),
          kRankTolerance);
    }
    std::printf("reference check: point queries");
    for (int k = 0; k < kProbes; ++k) {
      std::printf(" %s %llu,", kProbeNames[k],
                  static_cast<unsigned long long>(checked[k]));
      if (checked[k] == 0) report.correct = false;
    }
    std::printf(
        " of which %llu truncated; %zu distinct batch answer(s); %llu "
        "wrong\n",
        static_cast<unsigned long long>(truncated_checked),
        batch_answers.size(), static_cast<unsigned long long>(wrong));
  }
  report.failed += wrong;
  if (report.failed > 0) report.correct = false;
  server.reset();

  if (!traced) {
    // Timings come from the quiet stretches (at least half of --seconds)
    // and the queries and batches that ran within them; the figures over
    // all windows are printed beside them.
    const std::vector<uint8_t> keep = KeptWindows(
        windows.steal, static_cast<size_t>(args.seconds / kWindowSeconds / 2));
    const StreamFigures kept = Figures(log, windows, keep);
    const StreamFigures all =
        Figures(log, windows, std::vector<uint8_t>(keep.size(), 1));
    EndToEnd e;
    e.setup_s = Median(setup_s);
    e.peak_rss_mb = peak_rss;
    e.success_rate =
        1.0 - static_cast<double>(report.failed) / report.attempted;
    e.run_s = kept.batches > 0 ? kept.run_s : all.run_s;
    e.qps = kept.qps;
    e.query_p50_ms = kept.answered > 0 ? kept.p50_ms : all.p50_ms;
    e.query_p99_ms = kept.answered > 0 ? kept.p99_ms : all.p99_ms;
    std::printf(
        "samples: %zu of %zu windows kept (quiet: steal share <= %.2f for "
        "%.1f s or more; "
        "median steal %.3f), holding %zu answered point queries (%zu beyond "
        "the nearest-rank p99) and %zu of %zu PageRank batches; all "
        "windows: run_s %.6f qps %.6f query_p50_ms %.6f query_p99_ms %.6f%s\n",
        static_cast<size_t>(std::count(keep.begin(), keep.end(), 1)),
        windows.steal.size(), kQuietWindowSteal,
        kQuietRunWindows * kWindowSeconds,
        Median(windows.steal), kept.answered,
        kept.answered - static_cast<size_t>(std::ceil(
                            0.99 * static_cast<double>(kept.answered))),
        kept.batches, all.batches, all.run_s, all.qps, all.p50_ms, all.p99_ms,
        rss_reset ? "" : " (clear_refs refused: peak RSS is lifetime)");
    AddEndToEnd(e, &report);
  } else {
    AddLayers(layers, &report);
  }
  return report;
}

}  // namespace nxbench
