// The store build runs its CPU work on a thread pool. Its output must not
// depend on that: every file of a store built with 3 pool workers must be
// byte-identical to the one built with none, across weights, duplicate
// edges, self-loops, sparse indices, interval counts, dedup, transpose,
// blob formats and summaries. Golden CRC32Cs pin three fixed stores to the
// bytes the single-threaded builder wrote, and every Env call of a build
// must come from the calling thread.
#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/prep/prep_internal.h"
#include "src/util/crc32c.h"
#include "src/util/random.h"
#include "tests/test_util.h"

namespace nxgraph {
namespace {

// ---- An Env that notes calls from any thread but its owner's ------------

class ThreadCheckEnv : public Env {
 public:
  explicit ThreadCheckEnv(Env* base) : base_(base) {}

  int foreign_calls() const { return foreign_calls_.load(); }

  Status NewSequentialFile(const std::string& path,
                           std::unique_ptr<SequentialFile>* out) override {
    Check();
    NX_RETURN_NOT_OK(base_->NewSequentialFile(path, out));
    *out = std::make_unique<Sequential>(std::move(*out), this);
    return Status::OK();
  }
  Status NewRandomAccessFile(const std::string& path,
                             std::unique_ptr<RandomAccessFile>* out) override {
    Check();
    NX_RETURN_NOT_OK(base_->NewRandomAccessFile(path, out));
    *out = std::make_unique<RandomAccess>(std::move(*out), this);
    return Status::OK();
  }
  Status NewWritableFile(const std::string& path,
                         std::unique_ptr<WritableFile>* out) override {
    Check();
    NX_RETURN_NOT_OK(base_->NewWritableFile(path, out));
    *out = std::make_unique<Writable>(std::move(*out), this);
    return Status::OK();
  }
  Status NewRandomWriteFile(const std::string& path,
                            std::unique_ptr<RandomWriteFile>* out) override {
    Check();
    NX_RETURN_NOT_OK(base_->NewRandomWriteFile(path, out));
    *out = std::make_unique<RandomWrite>(std::move(*out), this);
    return Status::OK();
  }
  bool FileExists(const std::string& path) override {
    Check();
    return base_->FileExists(path);
  }
  Result<uint64_t> GetFileSize(const std::string& path) override {
    Check();
    return base_->GetFileSize(path);
  }
  Status CreateDirs(const std::string& path) override {
    Check();
    return base_->CreateDirs(path);
  }
  Status RemoveFile(const std::string& path) override {
    Check();
    return base_->RemoveFile(path);
  }
  Status RemoveDirRecursively(const std::string& path) override {
    Check();
    return base_->RemoveDirRecursively(path);
  }
  Status RenameFile(const std::string& from, const std::string& to) override {
    Check();
    return base_->RenameFile(from, to);
  }
  Status ListDir(const std::string& path,
                 std::vector<std::string>* names) override {
    Check();
    return base_->ListDir(path, names);
  }

 private:
  void Check() const {
    if (std::this_thread::get_id() != owner_) ++foreign_calls_;
  }

  struct Sequential : SequentialFile {
    Sequential(std::unique_ptr<SequentialFile> f, const ThreadCheckEnv* env)
        : f(std::move(f)), env(env) {}
    Status Read(size_t n, void* buf, size_t* bytes_read) override {
      env->Check();
      return f->Read(n, buf, bytes_read);
    }
    Status Skip(uint64_t n) override {
      env->Check();
      return f->Skip(n);
    }
    std::unique_ptr<SequentialFile> f;
    const ThreadCheckEnv* env;
  };
  struct RandomAccess : RandomAccessFile {
    RandomAccess(std::unique_ptr<RandomAccessFile> f, const ThreadCheckEnv* env)
        : f(std::move(f)), env(env) {}
    Status ReadAt(uint64_t offset, size_t n, void* buf,
                  size_t* bytes_read) const override {
      env->Check();
      return f->ReadAt(offset, n, buf, bytes_read);
    }
    std::unique_ptr<RandomAccessFile> f;
    const ThreadCheckEnv* env;
  };
  struct Writable : WritableFile {
    Writable(std::unique_ptr<WritableFile> f, const ThreadCheckEnv* env)
        : f(std::move(f)), env(env) {}
    Status Append(const void* data, size_t n) override {
      env->Check();
      return f->Append(data, n);
    }
    Status Flush() override {
      env->Check();
      return f->Flush();
    }
    Status Sync() override {
      env->Check();
      return f->Sync();
    }
    Status Close() override {
      env->Check();
      return f->Close();
    }
    std::unique_ptr<WritableFile> f;
    const ThreadCheckEnv* env;
  };
  struct RandomWrite : RandomWriteFile {
    RandomWrite(std::unique_ptr<RandomWriteFile> f, const ThreadCheckEnv* env)
        : f(std::move(f)), env(env) {}
    Status WriteAt(uint64_t offset, const void* data, size_t n) override {
      env->Check();
      return f->WriteAt(offset, data, n);
    }
    Status Flush() override {
      env->Check();
      return f->Flush();
    }
    Status Truncate(uint64_t size) override {
      env->Check();
      return f->Truncate(size);
    }
    Status Close() override {
      env->Check();
      return f->Close();
    }
    std::unique_ptr<RandomWriteFile> f;
    const ThreadCheckEnv* env;
  };

  Env* base_;
  const std::thread::id owner_ = std::this_thread::get_id();
  mutable std::atomic<int> foreign_calls_{0};
};

// ---- Builds ----------------------------------------------------------------

using StoreFiles = std::map<std::string, std::string>;  // name -> bytes

// Runs the degreer and the sharder into a fresh MemEnv on `pool` and
// returns every file left in the store directory.
StoreFiles BuildFiles(const EdgeList& edges, const SharderOptions& options,
                      ThreadPool* pool) {
  auto mem = NewMemEnv();
  ThreadCheckEnv env(mem.get());
  auto degrees = prep_internal::RunDegreer(&env, edges, "g", pool);
  NX_CHECK(degrees.ok()) << degrees.status().ToString();
  auto manifest =
      prep_internal::RunSharder(&env, "g", *degrees, options, pool);
  NX_CHECK(manifest.ok()) << manifest.status().ToString();
  EXPECT_EQ(env.foreign_calls(), 0) << "Env called from a pool thread";
  std::vector<std::string> names;
  NX_CHECK(mem->ListDir("g", &names).ok());
  StoreFiles files;
  for (const std::string& name : names) {
    NX_CHECK(ReadFileToString(mem.get(), "g/" + name, &files[name]).ok());
  }
  return files;
}

// A random multigraph in a sparse index space, with some edges repeated
// (under a new weight when weighted) and some self-loops.
EdgeList RandomBuildInput(uint64_t vertices, uint64_t edges, uint64_t seed,
                          bool weighted, uint64_t stride) {
  EdgeList g =
      testing::RandomGraph(vertices, edges, seed, weighted, stride);
  Xoshiro256 rng(seed ^ 0x5eedULL);
  const size_t base = g.num_edges();
  for (size_t k = 0; k < base / 8 + 1; ++k) {
    const size_t e = rng.NextBounded(base);
    const float w = static_cast<float>(rng.NextDouble());
    if (weighted) {
      g.AddWeighted(g.src(e), g.src(e), w);  // self-loop
      g.AddWeighted(g.src(e), g.dst(e), w);  // duplicate, new weight
    } else {
      g.Add(g.src(e), g.src(e));
      g.Add(g.src(e), g.dst(e));
    }
  }
  return g;
}

// ---- Determinism across pool sizes ----------------------------------------

struct Case {
  uint64_t vertices;
  uint64_t edges;
  uint64_t stride;
  bool weighted;
  uint32_t p;
  bool dedup;
  bool transpose;
  SubShardFormat format;
  bool summaries;
  uint64_t batch_edges;
};

std::string Describe(uint64_t seed, const Case& c) {
  return "seed=" + std::to_string(seed) + " v=" + std::to_string(c.vertices) +
         " e=" + std::to_string(c.edges) + " stride=" +
         std::to_string(c.stride) + " weighted=" +
         std::to_string(c.weighted) + " p=" + std::to_string(c.p) +
         " dedup=" + std::to_string(c.dedup) +
         " transpose=" + std::to_string(c.transpose) + " format=" +
         std::string(SubShardFormatName(c.format)) +
         " summaries=" + std::to_string(c.summaries) +
         " batch_edges=" + std::to_string(c.batch_edges);
}

SharderOptions OptionsFor(const Case& c) {
  SharderOptions options;
  options.num_intervals = c.p;
  options.dedup = c.dedup;
  options.build_transpose = c.transpose;
  options.format = c.format;
  options.summary = c.summaries ? SummaryParams{} : SummaryParams{0, 0};
  options.batch_edges = c.batch_edges;
  return options;
}

// Seed -> case: every property cycles with a different period, so the
// seeds cover their combinations. Seeds 1 and 2 mod 16 are large enough
// that the parallel scans split into several slices, sort chunks and
// merge batches; more intervals than vertices is tried on small graphs.
Case CaseFor(uint64_t seed) {
  Xoshiro256 rng(seed);
  Case c;
  static const uint32_t kIntervals[] = {1, 3, 32, 0};  // 0: more than V
  c.p = kIntervals[seed % 4];
  const bool large = seed % 16 == 1 || seed % 16 == 2;
  c.vertices = large ? 20000 : 20 + rng.NextBounded(c.p == 0 ? 60 : 2000);
  c.edges = large ? 150000 : 1 + rng.NextBounded(6000);
  if (c.p == 0) c.p = static_cast<uint32_t>(c.vertices + 5);
  static const uint64_t kStrides[] = {1, 1, 7, 1000, uint64_t{1} << 40};
  c.stride = kStrides[seed % 5];
  c.weighted = seed % 2 == 1;
  c.dedup = seed % 3 == 0;
  c.transpose = seed % 7 != 3;
  c.format = seed % 2 == 0 ? SubShardFormat::kNxs2 : SubShardFormat::kNxs1;
  c.summaries = seed % 5 != 2;
  c.batch_edges = seed % 6 == 1 ? 97 : uint64_t{4} << 20;
  return c;
}

TEST(PrepParallelTest, StoreBytesDoNotDependOnPoolSize) {
  ThreadPool serial(0);
  ThreadPool parallel(3);
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    const Case c = CaseFor(seed);
    SCOPED_TRACE(Describe(seed, c));
    const EdgeList edges = RandomBuildInput(c.vertices, c.edges, seed,
                                            c.weighted, c.stride);
    const SharderOptions options = OptionsFor(c);
    const StoreFiles expected = BuildFiles(edges, options, &serial);
    const StoreFiles actual = BuildFiles(edges, options, &parallel);
    ASSERT_EQ(expected.size(), c.transpose ? 6u : 5u);
    ASSERT_EQ(actual.size(), expected.size());
    for (const auto& [name, bytes] : expected) {
      auto it = actual.find(name);
      ASSERT_NE(it, actual.end()) << name;
      EXPECT_TRUE(it->second == bytes) << name << " differs";
    }
  }
}

// The public entry points use a pool of their own; same bytes again, and
// the mapping holds no spare capacity for dense (seed 2) or sparse
// (seed 18) indices.
TEST(PrepParallelTest, PublicEntryPointsMatchSerialBuild) {
  ThreadPool serial(0);
  for (uint64_t seed : {2, 18}) {
    const Case c = CaseFor(seed);
    SCOPED_TRACE(Describe(seed, c));
    const EdgeList edges =
        RandomBuildInput(c.vertices, c.edges, seed, c.weighted, c.stride);
    const StoreFiles expected = BuildFiles(edges, OptionsFor(c), &serial);

    auto env = NewMemEnv();
    auto degrees = RunDegreer(env.get(), edges, "g");
    ASSERT_TRUE(degrees.ok()) << degrees.status().ToString();
    EXPECT_EQ(degrees->mapping.capacity(), degrees->num_vertices);
    ASSERT_TRUE(RunSharder(env.get(), "g", *degrees, OptionsFor(c)).ok());
    for (const auto& [name, bytes] : expected) {
      std::string got;
      ASSERT_TRUE(ReadFileToString(env.get(), "g/" + name, &got).ok())
          << name;
      EXPECT_TRUE(got == bytes) << name << " differs";
    }
  }
}

// ---- Row files that disagree with the sharder's counts ---------------------

// Moves the first edge appended to row file `row` into another destination
// interval: its dst becomes 0, or the last vertex if it was in the first
// interval (`first_interval_end` is that interval's end). The sharder's
// per-sub-shard counts were taken before the append, so they no longer
// match the file.
class RowCorruptingEnv : public ThreadCheckEnv {
 public:
  RowCorruptingEnv(Env* base, std::string row, VertexId first_interval_end,
                   VertexId last_vertex)
      : ThreadCheckEnv(base),
        row_(std::move(row)),
        first_interval_end_(first_interval_end),
        last_vertex_(last_vertex) {}

  Status NewWritableFile(const std::string& path,
                         std::unique_ptr<WritableFile>* out) override {
    NX_RETURN_NOT_OK(ThreadCheckEnv::NewWritableFile(path, out));
    if (path == row_) *out = std::make_unique<Corrupting>(std::move(*out), this);
    return Status::OK();
  }

 private:
  struct Corrupting : WritableFile {
    Corrupting(std::unique_ptr<WritableFile> f, const RowCorruptingEnv* env)
        : f(std::move(f)), env(env) {}
    Status Append(const void* data, size_t n) override {
      // The first append is the file header; the second starts the edges.
      if (++appends != 2) return f->Append(data, n);
      std::string bytes(static_cast<const char*>(data), n);
      VertexId dst;
      std::memcpy(&dst, bytes.data() + 4, 4);
      dst = dst < env->first_interval_end_ ? env->last_vertex_ : 0;
      std::memcpy(bytes.data() + 4, &dst, 4);
      return f->Append(bytes);
    }
    Status Flush() override { return f->Flush(); }
    Status Sync() override { return f->Sync(); }
    Status Close() override { return f->Close(); }
    std::unique_ptr<WritableFile> f;
    const RowCorruptingEnv* env;
    int appends = 0;
  };

  const std::string row_;
  const VertexId first_interval_end_;
  const VertexId last_vertex_;
};

TEST(PrepParallelTest, RowFileDisagreeingWithCountsIsCorruption) {
  ThreadPool parallel(3);
  for (uint64_t batch_edges : {uint64_t{4} << 20, uint64_t{97}}) {
    SCOPED_TRACE("batch_edges=" + std::to_string(batch_edges));
    const EdgeList edges = RandomBuildInput(2000, 20000, 7, true, 1);
    auto mem = NewMemEnv();
    auto degrees = prep_internal::RunDegreer(mem.get(), edges, "g", &parallel);
    ASSERT_TRUE(degrees.ok()) << degrees.status().ToString();
    SharderOptions options;
    options.num_intervals = 4;
    options.batch_edges = batch_edges;
    const std::vector<VertexId> offsets =
        MakeEqualIntervals(degrees->num_vertices, options.num_intervals);
    RowCorruptingEnv env(mem.get(), "g/row_1.tmp", offsets[1],
                         static_cast<VertexId>(degrees->num_vertices - 1));
    auto manifest =
        prep_internal::RunSharder(&env, "g", *degrees, options, &parallel);
    ASSERT_FALSE(manifest.ok());
    EXPECT_TRUE(manifest.status().IsCorruption())
        << manifest.status().ToString();
    EXPECT_NE(manifest.status().ToString().find("row_1.tmp"),
              std::string::npos)
        << manifest.status().ToString();
  }
}

// ---- Golden bytes ------------------------------------------------------------

struct GoldenStore {
  Case c;
  uint64_t seed;
  std::map<std::string, uint32_t> crcs;  // file name -> FileCrc
};

// CRC32C of a store file, seeded with its name: a file that ends in the
// CRC32C of its own body would otherwise always hash to the same residue.
uint32_t FileCrc(const std::string& name, const std::string& bytes) {
  return crc32c::Extend(crc32c::Value(name.data(), name.size()), bytes.data(),
                        bytes.size());
}

// FileCrc of every file of three fixed stores, as written by the
// single-threaded builder that preceded the parallel one.
const std::vector<GoldenStore>& GoldenStores() {
  static const std::vector<GoldenStore> stores = {
      {Case{300, 5000, 1, true, 4, false, true, SubShardFormat::kNxs2, true,
            uint64_t{4} << 20},
       11,
       {{"degrees.nxd", 0x388ad8b9u},
        {"manifest.nxm", 0xab08f024u},
        {"mapping.nxmap", 0x877b0c9cu},
        {"preshard.nxel", 0xea495db2u},
        {"subshards.nxs", 0x6827e0bdu},
        {"subshards_t.nxs", 0x7942169cu}}},
      {Case{1000, 20000, 1000, false, 7, true, false, SubShardFormat::kNxs1,
            false, 333},
       12,
       {{"degrees.nxd", 0x71359d33u},
        {"manifest.nxm", 0xe952e5fdu},
        {"mapping.nxmap", 0xbf0c5890u},
        {"preshard.nxel", 0xbce9db50u},
        {"subshards.nxs", 0x026e30fcu}}},
      {Case{5000, 200000, 1, false, 32, false, true, SubShardFormat::kNxs2,
            true, uint64_t{4} << 20},
       13,
       {{"degrees.nxd", 0x5d1d7293u},
        {"manifest.nxm", 0x7556d0edu},
        {"mapping.nxmap", 0x5c002008u},
        {"preshard.nxel", 0x9672fc7fu},
        {"subshards.nxs", 0xc28055a0u},
        {"subshards_t.nxs", 0x970841f0u}}},
  };
  return stores;
}

TEST(PrepParallelTest, GoldenStoreBytes) {
  ThreadPool parallel(3);
  for (const GoldenStore& golden : GoldenStores()) {
    SCOPED_TRACE(Describe(golden.seed, golden.c));
    const EdgeList edges =
        RandomBuildInput(golden.c.vertices, golden.c.edges, golden.seed,
                         golden.c.weighted, golden.c.stride);
    const StoreFiles files = BuildFiles(edges, OptionsFor(golden.c), &parallel);
    std::map<std::string, uint32_t> crcs;
    for (const auto& [name, bytes] : files) {
      crcs[name] = FileCrc(name, bytes);
    }
    EXPECT_EQ(crcs, golden.crcs);
  }
}

}  // namespace
}  // namespace nxgraph
