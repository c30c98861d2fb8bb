#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <optional>
#include <thread>
#include <vector>

#include "src/algos/reference.h"
#include "src/prep/manifest.h"
#include "src/storage/graph_store.h"
#include "src/util/random.h"
#include "tests/test_util.h"

namespace nxgraph {
namespace {

TEST(GraphStoreTest, OpensBuiltStore) {
  EdgeList edges = testing::RandomGraph(100, 1000, 1);
  auto ms = testing::BuildMemStore(edges, 4);
  EXPECT_EQ(ms.store->num_edges(), 1000u);
  EXPECT_EQ(ms.store->num_intervals(), 4u);
  EXPECT_TRUE(ms.store->has_transpose());
}

TEST(GraphStoreTest, MissingDirectoryIsNotFound) {
  auto env = NewMemEnv();
  auto store = GraphStore::Open(env.get(), "nothing-here");
  ASSERT_FALSE(store.ok());
  EXPECT_TRUE(store.status().IsNotFound());
}

TEST(GraphStoreTest, OutOfRangeSubShardRejected) {
  EdgeList edges = testing::RandomGraph(50, 200, 2);
  auto ms = testing::BuildMemStore(edges, 2);
  auto ss = ms.store->LoadSubShard(5, 0);
  ASSERT_FALSE(ss.ok());
  EXPECT_TRUE(ss.status().IsInvalidArgument());
}

TEST(GraphStoreTest, TransposeUnavailableWhenNotBuilt) {
  EdgeList edges = testing::RandomGraph(50, 200, 3);
  auto ms = testing::BuildMemStore(edges, 2, /*transpose=*/false);
  EXPECT_FALSE(ms.store->has_transpose());
  auto ss = ms.store->LoadSubShard(0, 0, /*transpose=*/true);
  ASSERT_FALSE(ss.ok());
  EXPECT_TRUE(ss.status().IsInvalidArgument());
}

TEST(GraphStoreTest, ReassembledEdgesMatchInput) {
  EdgeList edges = testing::RandomGraph(128, 2000, 4, false, 3);
  auto ms = testing::BuildMemStore(edges, 4);
  auto ref = LoadReferenceGraph(*ms.store);
  ASSERT_TRUE(ref.ok());
  EXPECT_EQ(ref->edges.size(), edges.num_edges());
  EXPECT_EQ(ref->num_vertices, ms.store->num_vertices());
}

TEST(GraphStoreTest, DegreesMatchEdgeSet) {
  EdgeList edges = testing::RandomGraph(64, 640, 5);
  auto ms = testing::BuildMemStore(edges, 4);
  auto out_d = ms.store->LoadOutDegrees();
  auto in_d = ms.store->LoadInDegrees();
  ASSERT_TRUE(out_d.ok());
  ASSERT_TRUE(in_d.ok());
  auto ref = LoadReferenceGraph(*ms.store);
  ASSERT_TRUE(ref.ok());
  std::vector<uint32_t> expect_out(ms.store->num_vertices(), 0);
  std::vector<uint32_t> expect_in(ms.store->num_vertices(), 0);
  for (const Edge& e : ref->edges) {
    ++expect_out[e.src];
    ++expect_in[e.dst];
  }
  EXPECT_EQ(*out_d, expect_out);
  EXPECT_EQ(*in_d, expect_in);
}

TEST(GraphStoreTest, CorruptShardBlobDetected) {
  EdgeList edges = testing::RandomGraph(50, 400, 6);
  auto ms = testing::BuildMemStore(edges, 2);
  // Flip a byte in the middle of the sub-shards file.
  std::string data;
  ASSERT_TRUE(ReadFileToString(ms.env.get(), "g/subshards.nxs", &data).ok());
  data[data.size() / 2] ^= 0xFF;
  ASSERT_TRUE(WriteStringToFile(ms.env.get(), "g/subshards.nxs", data).ok());
  auto store = GraphStore::Open(ms.env.get(), "g");
  ASSERT_TRUE(store.ok());
  bool saw_corruption = false;
  for (uint32_t i = 0; i < 2 && !saw_corruption; ++i) {
    for (uint32_t j = 0; j < 2 && !saw_corruption; ++j) {
      auto ss = (*store)->LoadSubShard(i, j);
      if (!ss.ok() && ss.status().IsCorruption()) saw_corruption = true;
    }
  }
  EXPECT_TRUE(saw_corruption);
}

TEST(SubShardCacheTest, CachesWithinBudget) {
  EdgeList edges = testing::RandomGraph(100, 2000, 7);
  auto ms = testing::BuildMemStore(edges, 2);
  SubShardCache cache(ms.store, /*budget=*/UINT64_MAX);
  auto a = cache.Get(0, 0);
  ASSERT_TRUE(a.ok());
  const uint64_t loaded_once = cache.bytes_loaded_from_disk();
  auto b = cache.Get(0, 0);
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(cache.bytes_loaded_from_disk(), loaded_once);  // cache hit
  EXPECT_EQ(a->get(), b->get());
}

TEST(SubShardCacheTest, ZeroBudgetAlwaysReloads) {
  EdgeList edges = testing::RandomGraph(100, 2000, 8);
  auto ms = testing::BuildMemStore(edges, 2);
  SubShardCache cache(ms.store, /*budget=*/0);
  auto a = cache.Get(0, 0);
  ASSERT_TRUE(a.ok());
  const uint64_t first = cache.bytes_loaded_from_disk();
  ASSERT_GT(first, 0u);
  auto b = cache.Get(0, 0);
  ASSERT_TRUE(b.ok());
  EXPECT_GT(cache.bytes_loaded_from_disk(), first);  // transient reload
  EXPECT_EQ(cache.bytes_cached(), 0u);
}

TEST(SubShardCacheTest, ClearEvictsEverything) {
  EdgeList edges = testing::RandomGraph(100, 2000, 9);
  auto ms = testing::BuildMemStore(edges, 2);
  SubShardCache cache(ms.store, UINT64_MAX);
  ASSERT_TRUE(cache.Get(1, 1).ok());
  ASSERT_GT(cache.bytes_cached(), 0u);
  cache.Clear();
  EXPECT_EQ(cache.bytes_cached(), 0u);
}

TEST(SubShardCacheTest, ConcurrentMissesShareOneLoad) {
  EdgeList edges = testing::RandomGraph(100, 2000, 11);
  auto ms = testing::BuildMemStore(edges, 2);
  SubShardCache cache(ms.store, UINT64_MAX);
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  std::vector<std::shared_ptr<const SubShard>> seen(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, &seen, t] {
      auto r = cache.Get(0, 0);
      ASSERT_TRUE(r.ok());
      seen[t] = *r;
    });
  }
  for (auto& th : threads) th.join();
  // All callers share the single load's object; the blob was read from
  // disk exactly once.
  for (int t = 1; t < kThreads; ++t) EXPECT_EQ(seen[t], seen[0]);
  EXPECT_EQ(cache.bytes_loaded_from_disk(), seen[0]->MemoryBytes());
}

TEST(SubShardCacheTest, PutWarmsGetWithoutDiskLoad) {
  EdgeList edges = testing::RandomGraph(100, 2000, 12);
  auto ms = testing::BuildMemStore(edges, 2);
  SubShardCache cache(ms.store, UINT64_MAX);
  auto loaded = ms.store->LoadSubShard(0, 0);
  ASSERT_TRUE(loaded.ok());
  auto ss = std::make_shared<const SubShard>(std::move(loaded).value());
  cache.Put(0, 0, false, ss);
  EXPECT_EQ(cache.bytes_cached(), ss->MemoryBytes());
  auto got = cache.Get(0, 0);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->get(), ss.get());
  // The warmed entry served the Get: nothing was loaded from disk and a
  // second Put of the same key does not double-count.
  EXPECT_EQ(cache.bytes_loaded_from_disk(), 0u);
  cache.Put(0, 0, false, ss);
  EXPECT_EQ(cache.bytes_cached(), ss->MemoryBytes());
}

TEST(SubShardCacheTest, PutRespectsBudget) {
  EdgeList edges = testing::RandomGraph(100, 2000, 13);
  auto ms = testing::BuildMemStore(edges, 2);
  SubShardCache cache(ms.store, /*budget=*/1);
  auto loaded = ms.store->LoadSubShard(0, 0);
  ASSERT_TRUE(loaded.ok());
  cache.Put(0, 0, false,
            std::make_shared<const SubShard>(std::move(loaded).value()));
  EXPECT_EQ(cache.bytes_cached(), 0u);  // over budget: dropped
}

// Decoded footprint of one sub-shard, for sizing eviction tests exactly.
uint64_t SubShardBytes(const testing::MemStore& ms, uint32_t i, uint32_t j) {
  auto ss = ms.store->LoadSubShard(i, j);
  NX_CHECK(ss.ok());
  return ss->MemoryBytes();
}

TEST(SubShardCacheTest, EvictableCacheEvictsLeastRecentlyUsed) {
  EdgeList edges = testing::RandomGraph(100, 2000, 14);
  auto ms = testing::BuildMemStore(edges, 2);
  uint64_t total = 0;
  for (uint32_t i = 0; i < 2; ++i)
    for (uint32_t j = 0; j < 2; ++j) total += SubShardBytes(ms, i, j);
  // One byte short of everything: caching the fourth sub-shard must evict
  // exactly the least-recently-used one.
  SubShardCache cache(ms.store, total - 1, /*evictable=*/true);
  ASSERT_TRUE(cache.Get(0, 0).ok());
  ASSERT_TRUE(cache.Get(0, 1).ok());
  ASSERT_TRUE(cache.Get(1, 0).ok());
  ASSERT_TRUE(cache.Get(1, 1).ok());
  EXPECT_FALSE(cache.Contains(0, 0));  // LRU victim
  EXPECT_TRUE(cache.Contains(0, 1));
  EXPECT_TRUE(cache.Contains(1, 0));
  EXPECT_TRUE(cache.Contains(1, 1));
  const SubShardCache::Counters c = cache.counters();
  EXPECT_EQ(c.evictions, 1u);
  EXPECT_EQ(c.evicted_bytes, SubShardBytes(ms, 0, 0));
  EXPECT_EQ(cache.bytes_cached(), c.inserted_bytes - c.evicted_bytes);

  // A hit refreshes recency: touch (0, 1), then force another eviction —
  // the victim must now be (1, 0), not the freshly-touched entry.
  ASSERT_TRUE(cache.Get(0, 1).ok());
  ASSERT_TRUE(cache.Get(0, 0).ok());
  EXPECT_TRUE(cache.Contains(0, 1));
  EXPECT_FALSE(cache.Contains(1, 0));
}

TEST(SubShardCacheTest, PinnedEntriesCannotBeEvicted) {
  EdgeList edges = testing::RandomGraph(100, 2000, 15);
  auto ms = testing::BuildMemStore(edges, 2);
  uint64_t total = 0;
  for (uint32_t i = 0; i < 2; ++i)
    for (uint32_t j = 0; j < 2; ++j) total += SubShardBytes(ms, i, j);
  SubShardCache cache(ms.store, total - 1, /*evictable=*/true);
  auto pin = cache.GetPinned(0, 0);
  ASSERT_TRUE(pin.ok());
  ASSERT_TRUE(pin->pinned());
  ASSERT_TRUE(cache.Get(0, 1).ok());
  ASSERT_TRUE(cache.Get(1, 0).ok());
  // (0, 0) is the LRU entry but holds a pin: eviction must pass over it
  // and take (0, 1) instead.
  ASSERT_TRUE(cache.Get(1, 1).ok());
  EXPECT_TRUE(cache.Contains(0, 0));
  EXPECT_FALSE(cache.Contains(0, 1));
  // Clear also skips pinned entries...
  cache.Clear();
  EXPECT_TRUE(cache.Contains(0, 0));
  EXPECT_EQ(cache.bytes_cached(), SubShardBytes(ms, 0, 0));
  // ...until the pin is released.
  pin.value().Release();
  cache.Clear();
  EXPECT_FALSE(cache.Contains(0, 0));
  EXPECT_EQ(cache.bytes_cached(), 0u);
}

TEST(SubShardCacheTest, CountersTrackHitsMissesAndBytes) {
  EdgeList edges = testing::RandomGraph(100, 2000, 16);
  auto ms = testing::BuildMemStore(edges, 2);
  SubShardCache cache(ms.store, UINT64_MAX, /*evictable=*/true);
  ASSERT_TRUE(cache.Get(0, 0).ok());        // miss
  ASSERT_TRUE(cache.Get(0, 0).ok());        // hit
  ASSERT_TRUE(cache.GetPinned(0, 1).ok());  // miss
  ASSERT_TRUE(cache.GetPinned(0, 1).ok());  // hit
  const SubShardCache::Counters c = cache.counters();
  EXPECT_EQ(c.hits, 2u);
  EXPECT_EQ(c.misses, 2u);
  EXPECT_EQ(c.evictions, 0u);
  EXPECT_EQ(c.inserted_bytes, cache.bytes_cached());
  EXPECT_EQ(cache.bytes_cached(),
            SubShardBytes(ms, 0, 0) + SubShardBytes(ms, 0, 1));
}

// The serving regime: many threads pulling pinned sub-shards through one
// under-budgeted evictable cache. Every returned pin must carry valid data
// regardless of concurrent eviction, and the counters must balance. Run
// under TSan in CI's serving job.
TEST(SubShardCacheTest, ConcurrentPinnedAccessUnderEviction) {
  EdgeList edges = testing::RandomGraph(200, 4000, 17);
  auto ms = testing::BuildMemStore(edges, 4);
  uint64_t total = 0;
  for (uint32_t i = 0; i < 4; ++i)
    for (uint32_t j = 0; j < 4; ++j) total += SubShardBytes(ms, i, j);
  // Roughly a quarter of the working set fits: constant eviction pressure.
  SubShardCache cache(ms.store, total / 4, /*evictable=*/true);
  constexpr int kThreads = 8;
  constexpr int kIters = 60;
  std::vector<std::thread> threads;
  std::atomic<uint64_t> failures{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, &failures, t] {
      uint32_t state = 0x9e3779b9u * static_cast<uint32_t>(t + 1);
      for (int n = 0; n < kIters; ++n) {
        state = state * 1664525u + 1013904223u;
        const uint32_t i = (state >> 8) % 4;
        const uint32_t j = (state >> 16) % 4;
        auto pin = cache.GetPinned(i, j);
        if (!pin.ok() || pin->subshard() == nullptr) {
          failures.fetch_add(1);
          continue;
        }
        // Touch the pinned data; eviction must never invalidate it.
        const SubShard& ss = **pin;
        if (ss.offsets.size() != ss.dsts.size() + 1) failures.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0u);
  const SubShardCache::Counters c = cache.counters();
  EXPECT_EQ(c.hits + c.misses,
            static_cast<uint64_t>(kThreads) * kIters);
  EXPECT_EQ(cache.bytes_cached(), c.inserted_bytes - c.evicted_bytes);
  EXPECT_LE(cache.bytes_cached(), total / 4);
}

// Reference model of the evictable cache written as the original rule: a
// full scan for the unpinned entry with the smallest last-access tick. The
// differential test below replays one random trace against it and the
// real cache, whose recency list must pick exactly the same victims.
class ReferenceLru {
 public:
  explicit ReferenceLru(uint64_t budget) : budget_(budget) {}

  bool Contains(uint64_t key) const { return entries_.count(key) > 0; }

  /// A lookup: on a hit, counts it, refreshes the tick and optionally pins.
  bool Hit(uint64_t key, bool pin) {
    auto it = entries_.find(key);
    if (it == entries_.end()) return false;
    ++counters.hits;
    it->second.tick = ++clock_;
    if (pin) ++it->second.pins;
    return true;
  }

  /// Inserts a non-resident key, evicting first; false when pins leave no
  /// room (the load stays a transient copy).
  bool Insert(uint64_t key, uint64_t bytes, bool pin) {
    while (bytes_cached + bytes > budget_) {
      auto victim = entries_.end();
      for (auto it = entries_.begin(); it != entries_.end(); ++it) {
        if (it->second.pins > 0) continue;
        if (victim == entries_.end() || it->second.tick < victim->second.tick) {
          victim = it;
        }
      }
      if (victim == entries_.end()) return false;
      bytes_cached -= victim->second.bytes;
      counters.evicted_bytes += victim->second.bytes;
      ++counters.evictions;
      victims.push_back(victim->first);
      entries_.erase(victim);
    }
    entries_[key] = {bytes, pin ? 1u : 0u, ++clock_};
    bytes_cached += bytes;
    counters.inserted_bytes += bytes;
    return true;
  }

  void Unpin(uint64_t key) { --entries_.at(key).pins; }

  void Clear() {
    for (auto it = entries_.begin(); it != entries_.end();) {
      if (it->second.pins > 0) {
        ++it;
        continue;
      }
      bytes_cached -= it->second.bytes;
      cleared_bytes += it->second.bytes;
      it = entries_.erase(it);
    }
  }

  uint64_t pins() const {
    uint64_t n = 0;
    for (const auto& [key, e] : entries_) n += e.pins;
    return n;
  }

  SubShardCache::Counters counters;
  uint64_t bytes_cached = 0;
  uint64_t cleared_bytes = 0;     ///< dropped by Clear, which is no eviction
  std::vector<uint64_t> victims;  ///< in eviction order

 private:
  struct Entry {
    uint64_t bytes;
    uint32_t pins;
    uint64_t tick;
  };
  const uint64_t budget_;
  std::map<uint64_t, Entry> entries_;
  uint64_t clock_ = 0;
};

// Differential eviction order: a seeded random trace of Get, GetPinned,
// TryPin, Unpin, Put and Clear leaves the real cache and the reference
// scan with the same residents after every step, so the victims and their
// order are identical; counters and pins agree throughout, and
// bytes_cached == inserted_bytes - evicted_bytes (less what Clear dropped).
TEST(SubShardCacheTest, RecencyListEvictsLikeReferenceScan) {
  EdgeList edges = testing::RandomGraph(200, 3000, 18);
  auto ms = testing::BuildMemStore(edges, 4);
  const uint32_t p = 4;
  struct Key {
    uint32_t i, j;
    bool transpose;
  };
  std::vector<Key> keys;
  std::vector<std::shared_ptr<const SubShard>> loaded;
  uint64_t total = 0;
  for (int t = 0; t < 2; ++t) {
    for (uint32_t i = 0; i < p; ++i) {
      for (uint32_t j = 0; j < p; ++j) {
        auto ss = ms.store->LoadSubShard(i, j, t == 1);
        ASSERT_TRUE(ss.ok()) << ss.status().ToString();
        keys.push_back({i, j, t == 1});
        loaded.push_back(std::make_shared<const SubShard>(std::move(*ss)));
        total += loaded.back()->MemoryBytes();
      }
    }
  }

  for (uint64_t seed : {1u, 2u, 3u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    // A third of the working set fits: most misses evict.
    SubShardCache cache(ms.store, total / 3, /*evictable=*/true);
    ReferenceLru model(total / 3);
    std::vector<std::pair<uint64_t, SubShardCache::Pin>> held;
    size_t victims_seen = 0;
    Xoshiro256 rng(seed);
    for (int step = 0; step < 3000; ++step) {
      const uint64_t k = rng.NextBounded(keys.size());
      const Key& key = keys[k];
      const uint64_t bytes = loaded[k]->MemoryBytes();
      // At most 6 pins are held, so pinned entries slow eviction but
      // never stop it.
      const uint64_t op = held.size() >= 6 ? 80 : rng.NextBounded(100);
      bool cleared = false;
      std::vector<bool> before(keys.size());
      for (size_t x = 0; x < keys.size(); ++x) before[x] = model.Contains(x);
      if (op < 30) {  // Get
        if (!model.Hit(k, false)) {
          ++model.counters.misses;
          model.Insert(k, bytes, false);
        }
        ASSERT_TRUE(cache.Get(key.i, key.j, key.transpose).ok());
      } else if (op < 50) {  // GetPinned
        bool resident = model.Hit(k, true);
        if (!resident) {
          ++model.counters.misses;
          resident = model.Insert(k, bytes, true);
        }
        auto pin = cache.GetPinned(key.i, key.j, key.transpose);
        ASSERT_TRUE(pin.ok());
        ASSERT_EQ(pin->pinned(), resident);
        if (resident) held.emplace_back(k, std::move(*pin));
      } else if (op < 70) {  // TryPin
        std::optional<SubShardCache::Pin> pin =
            cache.TryPin(key.i, key.j, key.transpose);
        ASSERT_EQ(pin.has_value(), model.Hit(k, true));
        if (pin.has_value()) {
          ASSERT_TRUE(pin->pinned());
          held.emplace_back(k, std::move(*pin));
        }
      } else if (op < 90) {  // Unpin
        if (held.empty()) continue;
        const size_t h = rng.NextBounded(held.size());
        model.Unpin(held[h].first);
        held[h].second.Release();
        held.erase(held.begin() + static_cast<std::ptrdiff_t>(h));
      } else if (op < 98) {  // Put
        if (!model.Contains(k)) model.Insert(k, bytes, false);
        cache.Put(key.i, key.j, key.transpose, loaded[k]);
      } else {  // Clear
        model.Clear();
        cache.Clear();
        cleared = true;
      }
      if (!cleared) {
        // Whatever left the real cache in this step was evicted. Both
        // sides start the step with the same residents, so comparing each
        // step's victims compares the whole victim sequence (the order
        // inside one step is not observable from outside the cache).
        std::vector<uint64_t> evicted;
        for (uint64_t x = 0; x < keys.size(); ++x) {
          if (before[x] &&
              !cache.Contains(keys[x].i, keys[x].j, keys[x].transpose)) {
            evicted.push_back(x);
          }
        }
        std::vector<uint64_t> expected(
            model.victims.begin() + static_cast<std::ptrdiff_t>(victims_seen),
            model.victims.end());
        std::sort(expected.begin(), expected.end());
        ASSERT_EQ(evicted, expected) << "step " << step;
      }
      victims_seen = model.victims.size();
      for (size_t x = 0; x < keys.size(); ++x) {
        ASSERT_EQ(cache.Contains(keys[x].i, keys[x].j, keys[x].transpose),
                  model.Contains(x))
            << "step " << step << " key " << x;
      }
      const SubShardCache::Counters c = cache.counters();
      ASSERT_EQ(c.hits, model.counters.hits);
      ASSERT_EQ(c.misses, model.counters.misses);
      ASSERT_EQ(c.inserted_bytes, model.counters.inserted_bytes);
      ASSERT_EQ(c.evicted_bytes, model.counters.evicted_bytes);
      ASSERT_EQ(c.evictions, model.counters.evictions);
      ASSERT_EQ(cache.bytes_cached(), model.bytes_cached);
      ASSERT_EQ(cache.bytes_cached(),
                c.inserted_bytes - c.evicted_bytes - model.cleared_bytes);
      ASSERT_EQ(cache.pinned_entries(), model.pins());
    }
    EXPECT_GT(model.counters.evictions, 100u);
    EXPECT_GT(model.counters.hits, 100u);
  }
}

TEST(GraphStoreTest, PerBlobVerifyMaskControlsChecksums) {
  EdgeList edges = testing::RandomGraph(80, 1200, 12);
  auto ms = testing::BuildMemStore(edges, 2);
  // Corrupt the second blob of row 0 (flip a byte inside its range).
  std::string data;
  ASSERT_TRUE(ReadFileToString(ms.env.get(), "g/subshards.nxs", &data).ok());
  const auto& meta = ms.store->manifest().subshard(0, 1, false);
  ASSERT_GT(meta.size, 12u);
  data[meta.offset + meta.size / 2] ^= 0x01;
  ASSERT_TRUE(WriteStringToFile(ms.env.get(), "g/subshards.nxs", data).ok());
  auto store = GraphStore::Open(ms.env.get(), "g");
  ASSERT_TRUE(store.ok());

  // A mask that verifies only blob 0 lets the row "load" (the corruption
  // may or may not decode structurally)...
  auto lax = (*store)->LoadSubShardRow(0, 0, 2, false, {1, 0});
  // ...while a mask that verifies blob 1 must detect the corruption even
  // though blob 0 (the start of the range) is marked already-verified —
  // this is exactly the verify-once range bug.
  auto strict = (*store)->LoadSubShardRow(0, 0, 2, false, {0, 1});
  ASSERT_FALSE(strict.ok());
  EXPECT_TRUE(strict.status().IsCorruption());
  (void)lax;
}

TEST(GraphStoreTest, RawReadPlusDecodeMatchesDirectLoad) {
  EdgeList edges = testing::RandomGraph(90, 1500, 13);
  auto ms = testing::BuildMemStore(edges, 3);
  auto raw = ms.store->ReadSubShardRowBytes(1, 0, 3, false);
  ASSERT_TRUE(raw.ok());
  auto split = ms.store->DecodeSubShardRow(1, 0, 3, false, {}, *raw);
  ASSERT_TRUE(split.ok());
  auto direct = ms.store->LoadSubShardRow(1, 0, 3, false, {});
  ASSERT_TRUE(direct.ok());
  ASSERT_EQ(split->size(), direct->size());
  for (size_t j = 0; j < split->size(); ++j) {
    EXPECT_EQ((*split)[j].dsts, (*direct)[j].dsts);
    EXPECT_EQ((*split)[j].srcs, (*direct)[j].srcs);
    EXPECT_EQ((*split)[j].offsets, (*direct)[j].offsets);
  }
}

TEST(GraphStoreTest, MixedFormatStoreLoadsPerBlobMagic) {
  // A store whose shard file mixes NXS1 and NXS2 blobs must load: decode
  // dispatches on each blob's own magic, the manifest records per-blob
  // format and sizes. This is exactly the compatibility contract that lets
  // old NXS1 stores keep working next to new NXS2 ones.
  EdgeList edges = testing::RandomGraph(120, 1600, 17);
  auto ms = [&edges] {
    testing::MemStore m;
    m.env = NewMemEnv();
    BuildOptions options;
    options.num_intervals = 3;
    options.build_transpose = false;
    options.subshard_format = SubShardFormat::kNxs1;
    options.env = m.env.get();
    auto store = BuildGraphStore(edges, "g", options);
    NX_CHECK(store.ok());
    m.store = *store;
    return m;
  }();

  // Reference decode of every blob from the pure-NXS1 store.
  auto reference = ms.store->LoadSubShardRow(1, 0, 3, false, {});
  ASSERT_TRUE(reference.ok());

  // Rewrite the shard file re-encoding every second blob as NXS2, patching
  // offsets/sizes/formats in the manifest.
  std::string old_bytes;
  ASSERT_TRUE(
      ReadFileToString(ms.env.get(), "g/subshards.nxs", &old_bytes).ok());
  Manifest m = ms.store->manifest();
  std::string new_bytes;
  int blob_index = 0;
  for (uint32_t i = 0; i < 3; ++i) {
    for (uint32_t j = 0; j < 3; ++j) {
      SubShardMeta& meta = m.subshards[i * 3 + j];
      std::string blob = old_bytes.substr(meta.offset, meta.size);
      if (blob_index++ % 2 == 1) {
        auto decoded = SubShard::Decode(blob.data(), blob.size(), i, j);
        ASSERT_TRUE(decoded.ok());
        blob = decoded->Encode(SubShardFormat::kNxs2);
        meta.format = SubShardFormat::kNxs2;
      }
      meta.offset = new_bytes.size();
      meta.size = blob.size();
      new_bytes += blob;
    }
  }
  ASSERT_TRUE(
      WriteStringToFile(ms.env.get(), "g/subshards.nxs", new_bytes).ok());
  ASSERT_TRUE(WriteManifest(ms.env.get(), "g", m).ok());

  auto mixed = GraphStore::Open(ms.env.get(), "g");
  ASSERT_TRUE(mixed.ok());
  auto row = (*mixed)->LoadSubShardRow(1, 0, 3, false, {});
  ASSERT_TRUE(row.ok()) << row.status().ToString();
  ASSERT_EQ(row->size(), reference->size());
  for (size_t j = 0; j < row->size(); ++j) {
    EXPECT_EQ((*row)[j].dsts, (*reference)[j].dsts);
    EXPECT_EQ((*row)[j].offsets, (*reference)[j].offsets);
    EXPECT_EQ((*row)[j].srcs, (*reference)[j].srcs);
  }
  // Single loads and the raw-read/decode split agree as well.
  for (uint32_t i = 0; i < 3; ++i) {
    auto raw = (*mixed)->ReadSubShardRowBytes(i, 0, 3, false);
    ASSERT_TRUE(raw.ok());
    auto split = (*mixed)->DecodeSubShardRow(i, 0, 3, false, {}, *raw);
    ASSERT_TRUE(split.ok());
    for (uint32_t j = 0; j < 3; ++j) {
      auto one = (*mixed)->LoadSubShard(i, j);
      ASSERT_TRUE(one.ok());
      EXPECT_EQ(one->srcs, (*split)[j].srcs);
      EXPECT_EQ(one->dsts, (*split)[j].dsts);
    }
  }
}

TEST(GraphStoreTest, TotalSubShardBytesMatchesMetas) {
  EdgeList edges = testing::RandomGraph(90, 900, 10);
  auto ms = testing::BuildMemStore(edges, 3);
  uint64_t sum = 0;
  const auto& m = ms.store->manifest();
  for (const auto& meta : m.subshards) sum += meta.size;
  EXPECT_EQ(ms.store->TotalSubShardBytes(false), sum);
  auto size = ms.env->GetFileSize("g/subshards.nxs");
  ASSERT_TRUE(size.ok());
  EXPECT_EQ(*size, sum);
}

}  // namespace
}  // namespace nxgraph
