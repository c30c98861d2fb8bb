// End-to-end tests on the real filesystem: text input -> preprocessing ->
// engine runs -> reopening, plus failure injection.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>

#include "src/algos/reference.h"
#include "src/core/nxgraph.h"
#include "tests/test_util.h"

namespace nxgraph {
namespace {

class IntegrationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    char tmpl[] = "/tmp/nxgraph_integration_XXXXXX";
    root_ = mkdtemp(tmpl);
  }
  void TearDown() override {
    ASSERT_TRUE(Env::Default()->RemoveDirRecursively(root_).ok());
  }
  std::string root_;
};

TEST_F(IntegrationTest, TextFileToPageRankOnDisk) {
  // Write an edge list with sparse indices, comments and weights ignored.
  std::string text = "# tiny crawl\n";
  EdgeList edges = testing::RandomGraph(64, 600, 81, false, 1000);
  for (size_t i = 0; i < edges.num_edges(); ++i) {
    text += std::to_string(edges.src(i)) + " " + std::to_string(edges.dst(i)) +
            "\n";
  }
  const std::string edge_path = root_ + "/graph.txt";
  ASSERT_TRUE(WriteStringToFile(Env::Default(), edge_path, text).ok());

  BuildOptions build;
  build.num_intervals = 4;
  auto store = BuildGraphStoreFromTextFile(edge_path, root_ + "/store", build);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  EXPECT_EQ((*store)->num_edges(), edges.num_edges());

  auto result = RunPageRank(*store, {}, RunOptions{});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->stats.iterations, 10);

  auto ref_graph = LoadReferenceGraph(**store);
  ASSERT_TRUE(ref_graph.ok());
  const auto expected = ReferencePageRank(*ref_graph, 0.85, 10);
  for (size_t v = 0; v < expected.size(); ++v) {
    ASSERT_NEAR(result->ranks[v], expected[v], 1e-9);
  }
}

TEST_F(IntegrationTest, ReopenStoreAfterBuild) {
  EdgeList edges = testing::RandomGraph(100, 1000, 82);
  BuildOptions build;
  build.num_intervals = 4;
  auto built = BuildGraphStore(edges, root_ + "/store", build);
  ASSERT_TRUE(built.ok());
  const uint64_t n = (*built)->num_vertices();
  built->reset();

  auto reopened = OpenGraphStore(root_ + "/store");
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->num_vertices(), n);
  auto bfs = RunBfs(*reopened, 0, RunOptions{});
  ASSERT_TRUE(bfs.ok());
}

TEST_F(IntegrationTest, AllStrategiesAgreeOnDisk) {
  EdgeList edges = testing::RandomGraph(500, 5000, 83);
  BuildOptions build;
  build.num_intervals = 8;
  auto store = BuildGraphStore(edges, root_ + "/store", build);
  ASSERT_TRUE(store.ok());

  std::vector<double> baseline;
  for (auto strategy :
       {UpdateStrategy::kSinglePhase, UpdateStrategy::kDoublePhase,
        UpdateStrategy::kMixedPhase}) {
    RunOptions opt;
    opt.strategy = strategy;
    opt.num_threads = 2;
    if (strategy == UpdateStrategy::kMixedPhase) {
      opt.memory_budget_bytes = 500 * sizeof(double);  // ~half resident
    }
    PageRankOptions pr;
    pr.iterations = 6;
    auto result = RunPageRank(*store, pr, opt);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    if (baseline.empty()) {
      baseline = result->ranks;
    } else {
      for (size_t v = 0; v < baseline.size(); ++v) {
        ASSERT_NEAR(result->ranks[v], baseline[v], 1e-12);
      }
    }
  }
}

TEST_F(IntegrationTest, CorruptManifestFailsToOpen) {
  EdgeList edges = testing::RandomGraph(50, 300, 84);
  auto store = BuildGraphStore(edges, root_ + "/store", {});
  ASSERT_TRUE(store.ok());
  store->reset();

  const std::string manifest_path = root_ + "/store/manifest.nxm";
  std::string data;
  ASSERT_TRUE(ReadFileToString(Env::Default(), manifest_path, &data).ok());
  data[data.size() / 3] ^= 0x10;
  ASSERT_TRUE(WriteStringToFile(Env::Default(), manifest_path, data).ok());

  auto reopened = OpenGraphStore(root_ + "/store");
  ASSERT_FALSE(reopened.ok());
  EXPECT_TRUE(reopened.status().IsCorruption());
}

TEST_F(IntegrationTest, TruncatedShardFileFailsLoudly) {
  EdgeList edges = testing::RandomGraph(80, 800, 85);
  auto store = BuildGraphStore(edges, root_ + "/store", {});
  ASSERT_TRUE(store.ok());

  // Truncated in place under an open store: the blob reads come up short.
  const std::string shards_path = root_ + "/store/subshards.nxs";
  auto size = Env::Default()->GetFileSize(shards_path);
  ASSERT_TRUE(size.ok());
  std::unique_ptr<RandomWriteFile> file;
  ASSERT_TRUE(Env::Default()->NewRandomWriteFile(shards_path, &file).ok());
  ASSERT_TRUE(file->Truncate(*size / 2).ok());
  ASSERT_TRUE(file->Close().ok());
  auto result = RunPageRank(*store, {}, RunOptions{});
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsCorruption());

  // Reopened: the manifest's blob table no longer fits the file.
  auto reopened = OpenGraphStore(root_ + "/store");
  ASSERT_FALSE(reopened.ok());
  EXPECT_TRUE(reopened.status().IsCorruption());
}

TEST_F(IntegrationTest, WeightedBuildRunsSssp) {
  EdgeList edges = testing::RandomGraph(120, 960, 86, /*weighted=*/true);
  BuildOptions build;
  build.num_intervals = 4;
  auto store = BuildGraphStore(edges, root_ + "/store", build);
  ASSERT_TRUE(store.ok());
  EXPECT_TRUE((*store)->weighted());
  auto result = RunSssp(*store, 0, RunOptions{});
  ASSERT_TRUE(result.ok());
  auto ref_graph = LoadReferenceGraph(**store);
  ASSERT_TRUE(ref_graph.ok());
  const auto expected = ReferenceSssp(*ref_graph, 0);
  for (size_t v = 0; v < expected.size(); ++v) {
    if (!std::isinf(expected[v])) {
      ASSERT_NEAR(result->distances[v], expected[v], 1e-4);
    }
  }
}

TEST_F(IntegrationTest, ThrottledEnvEndToEnd) {
  EdgeList edges = testing::RandomGraph(60, 400, 87);
  DeviceProfile fast_ssd;
  fast_ssd.bandwidth_bytes_per_sec = 4.0 * 1024 * 1024 * 1024;
  fast_ssd.seek_latency_sec = 1e-6;
  auto throttled = NewThrottledEnv(Env::Default(), fast_ssd);
  BuildOptions build;
  build.num_intervals = 2;
  build.env = throttled.get();
  auto store = BuildGraphStore(edges, root_ + "/store", build);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  auto result = RunPageRank(*store, {}, RunOptions{});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
}

}  // namespace
}  // namespace nxgraph
