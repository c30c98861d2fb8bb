#include "src/server/graph_server.h"

#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/algos/programs.h"
#include "src/algos/reference.h"
#include "src/server/query.h"
#include "src/server/query_runner.h"
#include "tests/test_util.h"

namespace nxgraph {
namespace {

GraphServer::Options ServerOpts(int workers, uint64_t cache_budget) {
  GraphServer::Options o;
  o.cache_budget_bytes = cache_budget;
  o.num_workers = workers;
  o.io_threads = 2;
  o.prefetch_depth = 2;
  return o;
}

// The full mixed workload of one serving session: point BFS/SSSP/k-hop
// from several roots plus PageRank and WCC batch jobs.
struct MixedOutcomes {
  std::vector<Outcome<PointResult>> points;
  Outcome<BatchResult<double>> pagerank;
  Outcome<BatchResult<uint32_t>> wcc;
};

MixedOutcomes RunMixedWorkload(GraphServer& server) {
  const std::vector<VertexId> roots = {0, 42, 99, 150, 199};
  std::vector<QueryFuture<PointResult>> point_futures;
  for (VertexId root : roots) {
    PointQuery bfs;
    bfs.kind = QueryKind::kBfs;
    bfs.root = root;
    point_futures.push_back(server.Submit(bfs));
    PointQuery sssp;
    sssp.kind = QueryKind::kSssp;
    sssp.root = root;
    point_futures.push_back(server.Submit(sssp));
    PointQuery khop;
    khop.kind = QueryKind::kKHop;
    khop.root = root;
    khop.limits.max_hops = 2;
    point_futures.push_back(server.Submit(khop));
  }
  PageRankProgram pr;
  pr.num_vertices = server.store().num_vertices();
  BatchQuery pr_spec;
  pr_spec.max_iterations = 20;
  auto pr_future = server.SubmitBatch(pr, pr_spec);
  BatchQuery wcc_spec;
  wcc_spec.direction = EdgeDirection::kBoth;
  auto wcc_future = server.SubmitBatch(WccProgram{}, wcc_spec);

  MixedOutcomes out;
  for (auto& f : point_futures) out.points.push_back(f.Wait());
  out.pagerank = pr_future.Wait();
  out.wcc = wcc_future.Wait();
  return out;
}

// The tentpole guarantee: N concurrent mixed queries against one shared
// cache produce results BIT-IDENTICAL to the same queries run strictly
// serially — across cache-budget regimes mirroring SPU (everything
// resident), MPU (partial residency, eviction pressure), and DPU (nothing
// resident, pure streaming).
TEST(ServerTest, MixedWorkloadSerialVsConcurrentBitIdentical) {
  EdgeList edges = testing::RandomGraph(200, 3000, 71, /*weighted=*/true);
  auto ms = testing::BuildMemStore(edges, 4);
  const auto& m = ms.store->manifest();
  const uint64_t total_decoded =
      m.TotalDecodedSubShardBytes(false) + m.TotalDecodedSubShardBytes(true);
  const uint64_t budgets[] = {UINT64_MAX, total_decoded / 4, 0};

  for (const uint64_t budget : budgets) {
    SCOPED_TRACE("cache budget " + std::to_string(budget));
    MixedOutcomes concurrent, serial;
    {
      auto server = GraphServer::Open(ms.env.get(), "g", ServerOpts(6, budget));
      ASSERT_TRUE(server.ok()) << server.status().ToString();
      concurrent = RunMixedWorkload(**server);
    }
    {
      auto server = GraphServer::Open(ms.env.get(), "g", ServerOpts(1, budget));
      ASSERT_TRUE(server.ok()) << server.status().ToString();
      serial = RunMixedWorkload(**server);
    }

    ASSERT_EQ(concurrent.points.size(), serial.points.size());
    for (size_t q = 0; q < concurrent.points.size(); ++q) {
      SCOPED_TRACE("point query " + std::to_string(q));
      const auto& c = concurrent.points[q];
      const auto& s = serial.points[q];
      ASSERT_TRUE(c.status.ok()) << c.status.ToString();
      ASSERT_TRUE(s.status.ok()) << s.status.ToString();
      EXPECT_EQ(c.result.vertices, s.result.vertices);
      EXPECT_EQ(c.result.hops, s.result.hops);
      EXPECT_EQ(c.result.costs, s.result.costs);
    }
    ASSERT_TRUE(concurrent.pagerank.status.ok());
    ASSERT_TRUE(serial.pagerank.status.ok());
    EXPECT_EQ(concurrent.pagerank.result.values, serial.pagerank.result.values);
    ASSERT_TRUE(concurrent.wcc.status.ok());
    ASSERT_TRUE(serial.wcc.status.ok());
    EXPECT_EQ(concurrent.wcc.result.values, serial.wcc.result.values);
  }
}

// Concurrent results are not just self-consistent but correct: validate
// the whole mix against the single-threaded reference algorithms.
TEST(ServerTest, ConcurrentResultsMatchReferences) {
  EdgeList edges = testing::RandomGraph(200, 3000, 72, /*weighted=*/true);
  auto ms = testing::BuildMemStore(edges, 4);
  auto ref_graph = LoadReferenceGraph(*ms.store);
  ASSERT_TRUE(ref_graph.ok());
  const auto& m = ms.store->manifest();
  const uint64_t budget = (m.TotalDecodedSubShardBytes(false) +
                           m.TotalDecodedSubShardBytes(true)) /
                          4;
  auto server = GraphServer::Open(ms.env.get(), "g", ServerOpts(6, budget));
  ASSERT_TRUE(server.ok());
  MixedOutcomes out = RunMixedWorkload(**server);

  const std::vector<VertexId> roots = {0, 42, 99, 150, 199};
  for (size_t r = 0; r < roots.size(); ++r) {
    const auto bfs_ref = ReferenceBfs(*ref_graph, roots[r]);
    const auto sssp_ref = ReferenceSssp(*ref_graph, roots[r]);
    const auto& bfs = out.points[3 * r].result;
    const auto& sssp = out.points[3 * r + 1].result;
    const auto& khop = out.points[3 * r + 2].result;

    size_t reachable = 0;
    for (uint32_t d : bfs_ref) reachable += d != UINT32_MAX;
    ASSERT_EQ(bfs.vertices.size(), reachable);
    for (size_t k = 0; k < bfs.vertices.size(); ++k) {
      EXPECT_EQ(bfs.hops[k], bfs_ref[bfs.vertices[k]]);
    }
    ASSERT_EQ(sssp.vertices.size(), sssp.costs.size());
    for (size_t k = 0; k < sssp.vertices.size(); ++k) {
      EXPECT_NEAR(sssp.costs[k], sssp_ref[sssp.vertices[k]], 1e-4);
    }
    // The k-hop neighborhood is exactly the vertices within 2 hops.
    size_t within = 0;
    for (uint32_t d : bfs_ref) within += d != UINT32_MAX && d <= 2;
    ASSERT_EQ(khop.vertices.size(), within);
    for (size_t k = 0; k < khop.vertices.size(); ++k) {
      EXPECT_LE(khop.hops[k], 2u);
      EXPECT_EQ(khop.hops[k], bfs_ref[khop.vertices[k]]);
    }
  }

  const auto pr_ref = ReferencePageRank(*ref_graph, 0.85, 20);
  ASSERT_EQ(out.pagerank.result.values.size(), pr_ref.size());
  for (size_t v = 0; v < pr_ref.size(); ++v) {
    EXPECT_NEAR(out.pagerank.result.values[v], pr_ref[v], 1e-9);
  }
  const auto wcc_ref = ReferenceWcc(*ref_graph);
  EXPECT_EQ(out.wcc.result.values, wcc_ref);
}

// A weighted random multigraph for the differential test. Odd seeds draw
// every destination from the lower half of the ids, so the upper intervals
// are source-only: they receive no contribution in any round, and only a
// dense accumulator applies PageRank's teleport term there.
EdgeList DifferentialGraph(uint64_t seed) {
  Xoshiro256 rng(seed);
  const uint64_t n = 40 + rng.NextBounded(80);
  const uint64_t dst_range = seed % 2 == 1 ? n / 2 : n;
  EdgeList edges;
  for (uint64_t e = 0; e < 5 * n; ++e) {
    const VertexIndex src = rng.NextBounded(n);
    const VertexIndex dst = rng.NextBounded(dst_range);
    edges.AddWeighted(src, dst, static_cast<float>(rng.NextDouble()) + 0.01f);
  }
  return edges;
}

// Every served query shape, on one graph and one server configuration,
// against the single-threaded reference algorithms.
void CheckServingAgainstReferences(uint64_t seed) {
  const EdgeList edges = DifferentialGraph(seed);
  auto ms = testing::BuildMemStore(edges, 2 + static_cast<uint32_t>(seed % 4));
  auto ref_graph = LoadReferenceGraph(*ms.store);
  ASSERT_TRUE(ref_graph.ok());
  const Manifest& m = ms.store->manifest();
  const VertexId root = static_cast<VertexId>(seed * 7 % m.num_vertices);
  const auto bfs_ref = ReferenceBfs(*ref_graph, root);
  const auto sssp_ref = ReferenceSssp(*ref_graph, root);
  const auto wcc_ref = ReferenceWcc(*ref_graph);
  const int pr_iterations = 8;
  const auto pr_ref = ReferencePageRank(*ref_graph, 0.85, pr_iterations);
  const uint64_t half_store =
      (m.TotalDecodedSubShardBytes(false) + m.TotalDecodedSubShardBytes(true)) /
      2;

  for (const size_t depth : {size_t{0}, size_t{2}}) {
    for (const uint64_t budget : {uint64_t{0}, half_store}) {
      SCOPED_TRACE("prefetch_depth " + std::to_string(depth) + ", budget " +
                   std::to_string(budget));
      GraphServer::Options o = ServerOpts(2, budget);
      o.prefetch_depth = depth;
      auto server = GraphServer::Open(ms.env.get(), "g", o);
      ASSERT_TRUE(server.ok()) << server.status().ToString();
      PointQuery bfs_q;
      bfs_q.kind = QueryKind::kBfs;
      bfs_q.root = root;
      PointQuery sssp_q = bfs_q;
      sssp_q.kind = QueryKind::kSssp;
      PointQuery khop_q = bfs_q;
      khop_q.kind = QueryKind::kKHop;
      khop_q.limits.max_hops = 2;
      auto bfs_f = (*server)->Submit(bfs_q);
      auto sssp_f = (*server)->Submit(sssp_q);
      auto khop_f = (*server)->Submit(khop_q);
      BatchQuery wcc_spec;
      wcc_spec.direction = EdgeDirection::kBoth;
      auto wcc_f = (*server)->SubmitBatch(WccProgram{}, wcc_spec);
      PageRankProgram pr;
      pr.num_vertices = m.num_vertices;
      BatchQuery pr_spec;
      pr_spec.max_iterations = pr_iterations;
      auto pr_f = (*server)->SubmitBatch(pr, pr_spec);
      BfsProgram bfs_program;
      bfs_program.root = root;
      auto dense_bfs_f = (*server)->SubmitBatch(bfs_program, BatchQuery{});

      const auto& bfs = bfs_f.Wait();
      ASSERT_TRUE(bfs.status.ok()) << bfs.status.ToString();
      std::vector<VertexId> reached;
      std::vector<VertexId> within_two;
      for (VertexId v = 0; v < bfs_ref.size(); ++v) {
        if (bfs_ref[v] == UINT32_MAX) continue;
        reached.push_back(v);
        if (bfs_ref[v] <= 2) within_two.push_back(v);
      }
      ASSERT_EQ(bfs.result.vertices, reached);
      for (size_t k = 0; k < reached.size(); ++k) {
        EXPECT_EQ(bfs.result.hops[k], bfs_ref[reached[k]]);
      }

      const auto& sssp = sssp_f.Wait();
      ASSERT_TRUE(sssp.status.ok()) << sssp.status.ToString();
      ASSERT_EQ(sssp.result.vertices, reached);
      for (size_t k = 0; k < reached.size(); ++k) {
        EXPECT_NEAR(sssp.result.costs[k], sssp_ref[reached[k]], 1e-4);
      }

      const auto& khop = khop_f.Wait();
      ASSERT_TRUE(khop.status.ok()) << khop.status.ToString();
      ASSERT_EQ(khop.result.vertices, within_two);
      for (size_t k = 0; k < within_two.size(); ++k) {
        EXPECT_EQ(khop.result.hops[k], bfs_ref[within_two[k]]);
      }

      const auto& wcc = wcc_f.Wait();
      ASSERT_TRUE(wcc.status.ok()) << wcc.status.ToString();
      EXPECT_EQ(wcc.result.values, wcc_ref);

      const auto& pagerank = pr_f.Wait();
      ASSERT_TRUE(pagerank.status.ok()) << pagerank.status.ToString();
      ASSERT_EQ(pagerank.result.values.size(), pr_ref.size());
      for (size_t v = 0; v < pr_ref.size(); ++v) {
        EXPECT_NEAR(pagerank.result.values[v], pr_ref[v], 1e-9)
            << "vertex " << v;
      }

      // A seeded program through the dense output path: the point result at
      // the reached vertices, the default value everywhere else.
      const auto& dense_bfs = dense_bfs_f.Wait();
      ASSERT_TRUE(dense_bfs.status.ok()) << dense_bfs.status.ToString();
      std::vector<uint32_t> expected(m.num_vertices,
                                     bfs_program.DefaultValue());
      for (size_t k = 0; k < bfs.result.vertices.size(); ++k) {
        expected[bfs.result.vertices[k]] = bfs.result.hops[k];
      }
      EXPECT_EQ(dense_bfs.result.values, expected);
      EXPECT_EQ((*server)->cache()->pinned_entries(), 0u);
    }
  }
}

// Differential serving over many random graphs: point BFS, SSSP and 2-hop,
// batch WCC (both directions) and PageRank, and a seeded program through
// the batch path, each against src/algos/reference.cc, across synchronous
// and read-ahead loads and an empty and a half-store cache.
TEST(ServerTest, RandomGraphsMatchReferences) {
  for (uint64_t seed = 1; seed <= 50; ++seed) {
    SCOPED_TRACE("graph seed " + std::to_string(seed));
    CheckServingAgainstReferences(seed);
    if (HasFailure()) break;  // the first failing seed is the one to debug
  }
}

// A batch that needs transpose edges on a store built without them is
// rejected before it plans or visits anything.
TEST(ServerTest, TransposeBatchWithoutTransposeIsRejected) {
  EdgeList edges = testing::RandomGraph(100, 1000, 86);
  auto ms = testing::BuildMemStore(edges, 2, /*transpose=*/false);
  auto server = GraphServer::Open(ms.env.get(), "g", ServerOpts(1, UINT64_MAX));
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  PageRankProgram pr;
  pr.num_vertices = ms.store->num_vertices();
  for (const EdgeDirection direction :
       {EdgeDirection::kTranspose, EdgeDirection::kBoth}) {
    BatchQuery spec;
    spec.direction = direction;
    spec.max_iterations = 3;
    const auto pr_out = (*server)->SubmitBatch(pr, spec).Wait();
    EXPECT_TRUE(pr_out.status.IsInvalidArgument()) << pr_out.status.ToString();
    EXPECT_EQ(pr_out.result.stats.subshards_visited, 0u);
    const auto wcc_out = (*server)->SubmitBatch(WccProgram{}, spec).Wait();
    EXPECT_TRUE(wcc_out.status.IsInvalidArgument())
        << wcc_out.status.ToString();
    EXPECT_EQ(wcc_out.result.stats.subshards_visited, 0u);
  }
  BatchQuery forward;
  forward.max_iterations = 3;
  EXPECT_TRUE((*server)->SubmitBatch(pr, forward).Wait().status.ok());
}

TEST(ServerTest, AdmissionRejectsWhenQueueFull) {
  EdgeList edges = testing::RandomGraph(100, 1000, 73);
  auto ms = testing::BuildMemStore(edges, 2);
  GraphServer::Options opts = ServerOpts(1, UINT64_MAX);
  opts.max_queue = 2;
  opts.start_paused = true;  // nothing dequeues until we say so
  auto server = GraphServer::Open(ms.env.get(), "g", opts);
  ASSERT_TRUE(server.ok());

  PointQuery q;
  q.kind = QueryKind::kBfs;
  q.root = 0;
  auto f1 = (*server)->Submit(q);
  auto f2 = (*server)->Submit(q);
  auto f3 = (*server)->Submit(q);  // queue holds 2: rejected immediately
  ASSERT_TRUE(f3.Done());
  EXPECT_TRUE(f3.Wait().status.IsResourceExhausted());

  (*server)->SetPaused(false);
  EXPECT_TRUE(f1.Wait().status.ok());
  EXPECT_TRUE(f2.Wait().status.ok());
  const auto stats = (*server)->stats();
  EXPECT_EQ(stats.submitted, 3u);
  EXPECT_EQ(stats.rejected, 1u);
  EXPECT_EQ(stats.completed, 2u);
}

TEST(ServerTest, QueueDeadlineShedsStaleQueries) {
  EdgeList edges = testing::RandomGraph(100, 1000, 74);
  auto ms = testing::BuildMemStore(edges, 2);
  GraphServer::Options opts = ServerOpts(1, UINT64_MAX);
  opts.start_paused = true;
  auto server = GraphServer::Open(ms.env.get(), "g", opts);
  ASSERT_TRUE(server.ok());

  PointQuery q;
  q.kind = QueryKind::kBfs;
  q.root = 0;
  q.limits.deadline = std::chrono::milliseconds(5);
  auto f = (*server)->Submit(q);
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  (*server)->SetPaused(false);
  EXPECT_TRUE(f.Wait().status.IsDeadlineExceeded());
  EXPECT_EQ((*server)->stats().shed, 1u);
}

TEST(ServerTest, BudgetCappedQueryReturnsPartialResult) {
  EdgeList edges = testing::RandomGraph(200, 3000, 75);
  auto ms = testing::BuildMemStore(edges, 4);
  auto ref_graph = LoadReferenceGraph(*ms.store);
  ASSERT_TRUE(ref_graph.ok());
  auto server = GraphServer::Open(ms.env.get(), "g", ServerOpts(2, UINT64_MAX));
  ASSERT_TRUE(server.ok());

  // A budget that cannot fund a single sub-shard still terminates cleanly:
  // the root (hop 0) is the whole partial result.
  PointQuery starved;
  starved.kind = QueryKind::kBfs;
  starved.root = 0;
  starved.limits.io_byte_budget = 1;
  const auto& starved_out = (*server)->Submit(starved).Wait();
  EXPECT_TRUE(starved_out.status.IsResourceExhausted())
      << starved_out.status.ToString();
  EXPECT_TRUE(starved_out.result.stats.truncated);
  ASSERT_EQ(starved_out.result.vertices, std::vector<VertexId>{0});
  EXPECT_EQ(starved_out.result.hops, std::vector<uint32_t>{0});

  // A budget funding only part of the scan yields a truncated prefix whose
  // hop values are still genuine path lengths (>= the true distance).
  const auto& m = ms.store->manifest();
  PointQuery partial;
  partial.kind = QueryKind::kBfs;
  partial.root = 0;
  partial.limits.io_byte_budget =
      m.subshard(0, 0).size + m.subshard(0, 1).size;
  const auto& partial_out = (*server)->Submit(partial).Wait();
  EXPECT_TRUE(partial_out.status.IsResourceExhausted());
  EXPECT_TRUE(partial_out.result.stats.truncated);
  ASSERT_FALSE(partial_out.result.vertices.empty());
  const auto bfs_ref = ReferenceBfs(*ref_graph, 0);
  for (size_t k = 0; k < partial_out.result.vertices.size(); ++k) {
    EXPECT_GE(partial_out.result.hops[k],
              bfs_ref[partial_out.result.vertices[k]]);
  }
  EXPECT_EQ((*server)->stats().truncated, 2u);
}

TEST(ServerTest, ShutdownAbortsQueuedQueries) {
  EdgeList edges = testing::RandomGraph(100, 1000, 76);
  auto ms = testing::BuildMemStore(edges, 2);
  GraphServer::Options opts = ServerOpts(1, UINT64_MAX);
  opts.start_paused = true;
  auto server = GraphServer::Open(ms.env.get(), "g", opts);
  ASSERT_TRUE(server.ok());
  PointQuery q;
  q.kind = QueryKind::kBfs;
  q.root = 0;
  auto f = (*server)->Submit(q);
  server->reset();  // destroy with the query still queued
  EXPECT_TRUE(f.Wait().status.IsAborted());
}

TEST(ServerTest, InvalidRootFailsCleanly) {
  EdgeList edges = testing::RandomGraph(50, 400, 77);
  auto ms = testing::BuildMemStore(edges, 2);
  auto server = GraphServer::Open(ms.env.get(), "g", ServerOpts(2, UINT64_MAX));
  ASSERT_TRUE(server.ok());
  PointQuery q;
  q.kind = QueryKind::kBfs;
  q.root = 1000;  // out of range
  EXPECT_TRUE((*server)->Submit(q).Wait().status.IsInvalidArgument());
  EXPECT_EQ((*server)->stats().failed, 1u);
}

TEST(ServerTest, StatsTrackServingBehavior) {
  EdgeList edges = testing::RandomGraph(150, 2000, 78);
  auto ms = testing::BuildMemStore(edges, 2);
  auto server = GraphServer::Open(ms.env.get(), "g", ServerOpts(4, UINT64_MAX));
  ASSERT_TRUE(server.ok());
  std::vector<QueryFuture<PointResult>> futures;
  for (int n = 0; n < 12; ++n) {
    PointQuery q;
    q.kind = QueryKind::kBfs;
    q.root = static_cast<VertexId>(n * 7 % 150);
    futures.push_back((*server)->Submit(q));
  }
  for (auto& f : futures) EXPECT_TRUE(f.Wait().status.ok());
  const auto stats = (*server)->stats();
  EXPECT_EQ(stats.submitted, 12u);
  EXPECT_EQ(stats.completed, 12u);
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_GT(stats.qps, 0.0);
  EXPECT_GT(stats.cache.hits + stats.cache.misses, 0u);
  EXPECT_GT(stats.cache_hit_rate, 0.0);  // 12 similar queries must share
  EXPECT_LE(stats.p50_ms, stats.p95_ms);
  EXPECT_LE(stats.p95_ms, stats.p99_ms);
  // hits + misses covers every cache lookup the queries made.
  EXPECT_EQ(stats.cache.hits + stats.cache.misses,
            stats.cache.hits + stats.cache.misses);
}

// Force-scalar and force-simd servers produce bit-identical results for the
// whole mixed workload, and both server- and query-level stats report the
// decode path and its counters.
TEST(ServerTest, DecodePathsBitIdenticalAndCountersReported) {
  EdgeList edges = testing::RandomGraph(200, 3000, 81, /*weighted=*/true);
  auto ms = testing::BuildMemStore(edges, 4);

  auto run_with = [&](SimdDecode mode) {
    GraphServer::Options o = ServerOpts(4, UINT64_MAX);
    o.simd_decode = mode;
    auto server = GraphServer::Open(ms.env.get(), "g", o);
    NX_CHECK(server.ok()) << server.status().ToString();
    MixedOutcomes out = RunMixedWorkload(**server);
    return std::make_pair(std::move(out), (*server)->stats());
  };
  auto [scalar, scalar_stats] = run_with(SimdDecode::kForceScalar);
  auto [simd, simd_stats] = run_with(SimdDecode::kForceSimd);

  ASSERT_EQ(scalar.points.size(), simd.points.size());
  for (size_t q = 0; q < scalar.points.size(); ++q) {
    SCOPED_TRACE("point query " + std::to_string(q));
    ASSERT_TRUE(scalar.points[q].status.ok());
    ASSERT_TRUE(simd.points[q].status.ok());
    EXPECT_EQ(scalar.points[q].result.vertices, simd.points[q].result.vertices);
    EXPECT_EQ(scalar.points[q].result.hops, simd.points[q].result.hops);
    EXPECT_EQ(scalar.points[q].result.costs, simd.points[q].result.costs);
  }
  ASSERT_TRUE(scalar.pagerank.status.ok());
  ASSERT_TRUE(simd.pagerank.status.ok());
  EXPECT_EQ(scalar.pagerank.result.values, simd.pagerank.result.values);
  ASSERT_TRUE(scalar.wcc.status.ok());
  ASSERT_TRUE(simd.wcc.status.ok());
  EXPECT_EQ(scalar.wcc.result.values, simd.wcc.result.values);

  EXPECT_EQ(scalar_stats.decode_path, "scalar");
  EXPECT_EQ(simd_stats.decode_path,
            DecodePathName(ResolveDecodePath(SimdDecode::kForceSimd)));
  // The default store format is NXS2 (possibly overridden by the CI format
  // matrix): bulk decodes only happen on NXS2 stores.
  if (DefaultSubShardFormat() == SubShardFormat::kNxs2) {
    EXPECT_GT(scalar_stats.bulk_decode_calls, 0u);
    EXPECT_GT(simd_stats.bulk_decode_calls, 0u);
    EXPECT_GT(simd_stats.decode_seconds, 0.0);
  }

  // Per-query attribution: every query reports its decode path; the sum of
  // per-query bulk decodes equals the server total (each cache-miss decode
  // is charged to exactly one query).
  uint64_t per_query_total = 0;
  for (const auto& p : scalar.points) {
    EXPECT_EQ(p.result.stats.decode_path, "scalar");
    per_query_total += p.result.stats.bulk_decode_calls;
  }
  per_query_total += scalar.pagerank.result.stats.bulk_decode_calls;
  per_query_total += scalar.wcc.result.stats.bulk_decode_calls;
  EXPECT_EQ(per_query_total, scalar_stats.bulk_decode_calls);
}

// Watches every positional read (each sub-shard load is one) of a wrapped
// Env: counts reads, tracks how many run at once, and can hold reads back.
// While held, a read waits until `release_at` reads are in flight together
// or Release() is called. A 10 s safety valve releases all reads, so a
// broken build fails the count the test asserts instead of hanging.
class ReadProbe {
 public:
  void Enter() {
    std::unique_lock<std::mutex> lock(mu_);
    ++reads_;
    ++in_flight_;
    if (in_flight_ > max_in_flight_) max_in_flight_ = in_flight_;
    if (in_flight_ >= release_at_) held_ = false;
    cv_.notify_all();
    if (!cv_.wait_for(lock, std::chrono::seconds(10), [&] { return !held_; })) {
      held_ = false;  // one timeout releases every read
      cv_.notify_all();
    }
  }
  void Exit() {
    std::lock_guard<std::mutex> lock(mu_);
    --in_flight_;
  }
  /// Holds reads until `n` are in flight at once (or Release()).
  void HoldUntilInFlight(int n) {
    std::lock_guard<std::mutex> lock(mu_);
    held_ = true;
    release_at_ = n;
  }
  void Release() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      held_ = false;
    }
    cv_.notify_all();
  }
  bool WaitForInFlight(int n) {
    std::unique_lock<std::mutex> lock(mu_);
    return cv_.wait_for(lock, std::chrono::seconds(10),
                        [&] { return in_flight_ >= n; });
  }
  int reads() const {
    std::lock_guard<std::mutex> lock(mu_);
    return reads_;
  }
  int max_in_flight() const {
    std::lock_guard<std::mutex> lock(mu_);
    return max_in_flight_;
  }

 private:
  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool held_ = false;
  int release_at_ = 0;
  int reads_ = 0;
  int in_flight_ = 0;
  int max_in_flight_ = 0;
};

class ProbedEnv : public Env {
 public:
  ProbedEnv(Env* base, ReadProbe* probe) : base_(base), probe_(probe) {}

  Status NewSequentialFile(const std::string& path,
                           std::unique_ptr<SequentialFile>* out) override {
    return base_->NewSequentialFile(path, out);
  }
  Status NewRandomAccessFile(const std::string& path,
                             std::unique_ptr<RandomAccessFile>* out) override {
    NX_RETURN_NOT_OK(base_->NewRandomAccessFile(path, out));
    *out = std::make_unique<ProbedFile>(std::move(*out), probe_);
    return Status::OK();
  }
  Status NewWritableFile(const std::string& path,
                         std::unique_ptr<WritableFile>* out) override {
    return base_->NewWritableFile(path, out);
  }
  Status NewRandomWriteFile(const std::string& path,
                            std::unique_ptr<RandomWriteFile>* out) override {
    return base_->NewRandomWriteFile(path, out);
  }
  bool FileExists(const std::string& path) override {
    return base_->FileExists(path);
  }
  Result<uint64_t> GetFileSize(const std::string& path) override {
    return base_->GetFileSize(path);
  }
  Status CreateDirs(const std::string& path) override {
    return base_->CreateDirs(path);
  }
  Status RemoveFile(const std::string& path) override {
    return base_->RemoveFile(path);
  }
  Status RemoveDirRecursively(const std::string& path) override {
    return base_->RemoveDirRecursively(path);
  }
  Status RenameFile(const std::string& from, const std::string& to) override {
    return base_->RenameFile(from, to);
  }
  Status ListDir(const std::string& path,
                 std::vector<std::string>* names) override {
    return base_->ListDir(path, names);
  }

 private:
  struct ProbedFile : RandomAccessFile {
    ProbedFile(std::unique_ptr<RandomAccessFile> base, ReadProbe* probe)
        : base(std::move(base)), probe(probe) {}
    Status ReadAt(uint64_t offset, size_t n, void* buf,
                  size_t* bytes_read) const override {
      probe->Enter();
      Status s = base->ReadAt(offset, n, buf, bytes_read);
      probe->Exit();
      return s;
    }
    std::unique_ptr<RandomAccessFile> base;
    ReadProbe* probe;
  };

  Env* base_;
  ReadProbe* probe_;
};

Outcome<BatchResult<double>> RunPageRank(GraphServer& server, int iterations) {
  PageRankProgram pr;
  pr.num_vertices = server.store().num_vertices();
  BatchQuery spec;
  spec.max_iterations = iterations;
  return server.SubmitBatch(pr, spec).Wait();
}

// True misses still overlap: on a cold cache at prefetch_depth=2, two
// sub-shard reads are in flight at once on the I/O pool. Once the cache is
// warm, the same query is served wholly by inline hits and reads nothing.
TEST(ServerTest, TrueMissesOverlapAndWarmHitsReadNothing) {
  EdgeList edges = testing::RandomGraph(200, 3000, 83);
  auto ms = testing::BuildMemStore(edges, 4);
  ReadProbe probe;
  ProbedEnv env(ms.env.get(), &probe);
  auto server = GraphServer::Open(&env, "g", ServerOpts(1, UINT64_MAX));
  ASSERT_TRUE(server.ok()) << server.status().ToString();

  probe.HoldUntilInFlight(2);
  const int reads_before = probe.reads();
  auto cold = RunPageRank(**server, 1);
  ASSERT_TRUE(cold.status.ok()) << cold.status.ToString();
  EXPECT_GE(probe.max_in_flight(), 2);
  const QueryStats& c = cold.result.stats;
  EXPECT_GT(c.subshards_visited, 2u);
  EXPECT_EQ(c.cache_hits, 0u);
  EXPECT_EQ(c.cache_misses, c.subshards_visited);
  EXPECT_EQ(probe.reads() - reads_before,
            static_cast<int>(c.subshards_visited));

  const int reads_warm = probe.reads();
  auto warm = RunPageRank(**server, 1);
  ASSERT_TRUE(warm.status.ok()) << warm.status.ToString();
  EXPECT_EQ(warm.result.values, cold.result.values);
  const QueryStats& w = warm.result.stats;
  EXPECT_EQ(w.cache_hits, w.subshards_visited);
  EXPECT_EQ(w.cache_misses, 0u);
  EXPECT_EQ(probe.reads(), reads_warm);
}

// Results do not depend on how visits are served: synchronous or
// read-ahead loads, and no, partial or full residency, give bit-identical
// answers, and every visit is counted as exactly one hit or one miss.
TEST(ServerTest, PrefetchDepthAndCacheBudgetBitIdentical) {
  EdgeList edges = testing::RandomGraph(200, 3000, 84, /*weighted=*/true);
  auto ms = testing::BuildMemStore(edges, 4);
  const auto& m = ms.store->manifest();
  const uint64_t total_decoded =
      m.TotalDecodedSubShardBytes(false) + m.TotalDecodedSubShardBytes(true);

  bool have_baseline = false;
  MixedOutcomes baseline;
  for (const size_t depth : {size_t{0}, size_t{2}}) {
    for (const uint64_t budget : {uint64_t{0}, total_decoded / 2, UINT64_MAX}) {
      SCOPED_TRACE("prefetch_depth " + std::to_string(depth) + ", budget " +
                   std::to_string(budget));
      GraphServer::Options o = ServerOpts(4, budget);
      o.prefetch_depth = depth;
      auto server = GraphServer::Open(ms.env.get(), "g", o);
      ASSERT_TRUE(server.ok()) << server.status().ToString();
      MixedOutcomes run = RunMixedWorkload(**server);
      EXPECT_EQ((*server)->cache()->pinned_entries(), 0u);

      auto check_stats = [](const QueryStats& st) {
        EXPECT_EQ(st.cache_hits + st.cache_misses, st.subshards_visited);
      };
      for (const auto& q : run.points) {
        ASSERT_TRUE(q.status.ok()) << q.status.ToString();
        check_stats(q.result.stats);
      }
      ASSERT_TRUE(run.pagerank.status.ok());
      ASSERT_TRUE(run.wcc.status.ok());
      check_stats(run.pagerank.result.stats);
      check_stats(run.wcc.result.stats);
      if (budget == 0) {
        EXPECT_EQ(run.pagerank.result.stats.cache_hits, 0u);
      }

      if (!have_baseline) {
        baseline = std::move(run);
        have_baseline = true;
        continue;
      }
      ASSERT_EQ(run.points.size(), baseline.points.size());
      for (size_t q = 0; q < run.points.size(); ++q) {
        EXPECT_EQ(run.points[q].result.vertices,
                  baseline.points[q].result.vertices);
        EXPECT_EQ(run.points[q].result.hops, baseline.points[q].result.hops);
        EXPECT_EQ(run.points[q].result.costs, baseline.points[q].result.costs);
      }
      EXPECT_EQ(run.pagerank.result.values, baseline.pagerank.result.values);
      EXPECT_EQ(run.wcc.result.values, baseline.wcc.result.values);
    }
  }
}

// Cancelling mid-round while the read-ahead window holds hits pinned ahead
// and misses are in flight releases every pin.
TEST(ServerTest, CancelMidRoundReleasesPinsHeldAhead) {
  EdgeList edges = testing::RandomGraph(200, 3000, 85);
  auto ms = testing::BuildMemStore(edges, 4);
  ReadProbe probe;
  ProbedEnv env(ms.env.get(), &probe);
  auto store = GraphStore::Open(&env, "g");
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  SubShardCache cache(*store, UINT64_MAX, /*evictable=*/true);
  ThreadPool io_pool(2);
  auto degrees = (*store)->LoadOutDegrees();
  ASSERT_TRUE(degrees.ok());

  // PageRank's first round visits every non-empty forward sub-shard in
  // row-major order. Warm all but the 5th and 7th, so the window opens on
  // hits and stops at its second miss.
  const Manifest& m = (*store)->manifest();
  int visit = 0;
  for (uint32_t i = 0; i < m.num_intervals; ++i) {
    for (uint32_t j = 0; j < m.num_intervals; ++j) {
      if (m.subshard(i, j).num_edges == 0) continue;
      if (visit != 4 && visit != 6) {
        ASSERT_TRUE(cache.Get(i, j).ok());
      }
      ++visit;
    }
  }
  ASSERT_GT(visit, 8);

  CancelToken token;
  QueryContext ctx;
  ctx.store = store->get();
  ctx.cache = &cache;
  ctx.io_pool = &io_pool;
  ctx.prefetch_depth = 2;
  ctx.out_degrees = &*degrees;
  ctx.cancel = &token;
  // Checkpoints: 0 plans round 1, 1 precedes visit 0, 2 precedes visit 1 —
  // by then the window has been filled.
  int checkpoint = 0;
  uint64_t pinned_at_cancel = 0;
  bool misses_in_flight = false;
  ctx.boundary_hook = [&] {
    if (checkpoint++ != 2) return;
    misses_in_flight = probe.WaitForInFlight(2);
    pinned_at_cancel = cache.pinned_entries();
    token.Cancel(CancelReason::kClient);
    probe.Release();
  };
  probe.HoldUntilInFlight(1 << 20);  // hold every load until the cancel

  PageRankProgram pr;
  pr.num_vertices = m.num_vertices;
  auto out = RunBatchQuery(pr, ctx, EdgeDirection::kForward, 3, 0);
  EXPECT_TRUE(out.status.IsCancelled()) << out.status.ToString();
  EXPECT_EQ(out.result.stats.iterations, 0);
  EXPECT_TRUE(misses_in_flight);
  EXPECT_GT(pinned_at_cancel, 0u);  // hits 1-3 and 5, pinned ahead
  EXPECT_EQ(cache.pinned_entries(), 0u);
  const auto c = cache.counters();
  EXPECT_EQ(cache.bytes_cached(), c.inserted_bytes - c.evicted_bytes);
}

}  // namespace
}  // namespace nxgraph
