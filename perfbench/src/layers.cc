#include "perfbench/src/layers.h"

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

namespace nxbench {

using nxgraph::GraphStore;
using nxgraph::SubShardCache;

StorageProbe ProbeStorage(const GraphStore& store, Tracer* tracer,
                          int passes) {
  StorageProbe probe;
  const uint32_t p = store.num_intervals();
  std::vector<double> read_rates;
  std::vector<double> decode_rates;
  for (int pass = 0; pass < passes; ++pass) {
    ScopedSpan pass_span(tracer, "storage.pass");
    if (tracer != nullptr) tracer->SetCurrentRoot(pass_span.id());
    double read_s = 0;
    double decode_s = 0;
    uint64_t bytes = 0;
    uint64_t edges = 0;
    for (uint32_t i = 0; i < p; ++i) {
      const Clock::time_point t0 = Clock::now();
      auto raw = store.ReadSubShardRowBytes(i, 0, p, /*transpose=*/false);
      const Clock::time_point t1 = Clock::now();
      if (!raw.ok()) {
        probe.ok = false;
        return probe;
      }
      auto rows = store.DecodeSubShardRow(i, 0, p, /*transpose=*/false,
                                          /*verify_mask=*/{}, *raw);
      const Clock::time_point t2 = Clock::now();
      if (!rows.ok()) {
        probe.ok = false;
        return probe;
      }
      if (tracer != nullptr) {
        tracer->Record("storage.read_row", tracer->NewId(), pass_span.id(), 0,
                       t0, t1);
        tracer->Record("storage.decode_row", tracer->NewId(), pass_span.id(),
                       0, t1, t2);
      }
      read_s += Seconds(t0, t1);
      decode_s += Seconds(t1, t2);
      bytes += raw->size();
      for (const auto& ss : *rows) edges += ss.num_edges();
    }
    if (read_s > 0) read_rates.push_back(bytes / 1e6 / read_s);
    if (decode_s > 0) decode_rates.push_back(edges / 1e6 / decode_s);
  }
  if (tracer != nullptr) tracer->SetCurrentRoot(0);
  probe.row_read_mb_per_s = Median(read_rates);
  probe.decode_medges_per_s = Median(decode_rates);
  return probe;
}

namespace {

constexpr int kHitBatch = 32;
constexpr int kHitBatches = 2000;
constexpr int kHitThreads = 4;

struct Key {
  uint32_t i;
  uint32_t j;
};

/// Per-call nanoseconds of `kHitBatches` batches of GetPinned on `key`.
std::vector<double> TimeHits(SubShardCache* cache, Key key, bool* ok) {
  std::vector<double> per_call_ns;
  per_call_ns.reserve(kHitBatches);
  for (int b = 0; b < kHitBatches; ++b) {
    const Clock::time_point t0 = Clock::now();
    for (int k = 0; k < kHitBatch; ++k) {
      auto pin = cache->GetPinned(key.i, key.j);
      if (!pin.ok()) *ok = false;
    }
    per_call_ns.push_back(Seconds(t0, Clock::now()) * 1e9 / kHitBatch);
  }
  return per_call_ns;
}

}  // namespace

CacheProbe ProbeCache(const std::shared_ptr<const GraphStore>& store,
                      Tracer* tracer) {
  CacheProbe probe;
  const nxgraph::Manifest& m = store->manifest();
  const uint32_t p = m.num_intervals;
  std::vector<Key> keys;
  for (uint32_t i = 0; i < p; ++i) {
    for (uint32_t j = 0; j < p; ++j) {
      if (m.subshard(i, j).num_edges > 0) keys.push_back({i, j});
    }
  }
  if (keys.size() < static_cast<size_t>(kHitThreads)) {
    probe.ok = false;
    return probe;
  }
  const uint64_t decoded = m.TotalDecodedSubShardBytes(false);
  ScopedSpan probe_span(tracer, "cache.probe");

  // Cold cache with room for everything: every first GetPinned misses.
  SubShardCache cache(store, 2 * decoded + (1 << 20), /*evictable=*/true);
  std::vector<double> miss_us;
  for (const Key& key : keys) {
    const Clock::time_point t0 = Clock::now();
    auto pin = cache.GetPinned(key.i, key.j);
    const Clock::time_point t1 = Clock::now();
    if (!pin.ok()) probe.ok = false;
    miss_us.push_back(Seconds(t0, t1) * 1e6);
    if (tracer != nullptr) {
      tracer->Record("cache.miss", tracer->NewId(), probe_span.id(), 0, t0,
                     t1);
    }
  }
  probe.miss_us_p50 = Median(miss_us);

  // Hits on resident keys, 1 thread then kHitThreads on distinct keys.
  bool hits_ok = true;
  {
    ScopedSpan span(tracer, "cache.hits_t1", probe_span.id());
    probe.hit_ns_p50_t1 = Median(TimeHits(&cache, keys[0], &hits_ok));
  }
  {
    ScopedSpan span(tracer, "cache.hits_t4", probe_span.id());
    std::vector<std::vector<double>> per_thread(kHitThreads);
    std::vector<uint8_t> thread_ok(kHitThreads, 1);
    std::atomic<int> ready{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < kHitThreads; ++t) {
      threads.emplace_back([&, t] {
        ready.fetch_add(1);
        while (ready.load() < kHitThreads) std::this_thread::yield();
        bool ok = true;
        per_thread[t] = TimeHits(&cache, keys[t], &ok);
        thread_ok[t] = ok ? 1 : 0;
      });
    }
    for (std::thread& th : threads) th.join();
    std::vector<double> all;
    for (int t = 0; t < kHitThreads; ++t) {
      all.insert(all.end(), per_thread[t].begin(), per_thread[t].end());
      if (thread_ok[t] == 0) hits_ok = false;
    }
    probe.hit_ns_p50_t4 = Median(all);
  }
  if (!hits_ok) probe.ok = false;

  // An evictable cache at half the decoded store, scanned cyclically: once
  // full, every call misses and evicts least-recently-used entries.
  SubShardCache half(store, decoded / 2, /*evictable=*/true);
  std::vector<double> evict_us;
  for (int pass = 0; pass < 2; ++pass) {
    for (const Key& key : keys) {
      const uint64_t before = half.counters().evictions;
      const Clock::time_point t0 = Clock::now();
      auto pin = half.GetPinned(key.i, key.j);
      const Clock::time_point t1 = Clock::now();
      if (!pin.ok()) probe.ok = false;
      if (half.counters().evictions > before) {
        evict_us.push_back(Seconds(t0, t1) * 1e6);
        if (tracer != nullptr) {
          tracer->Record("cache.miss_evict", tracer->NewId(), probe_span.id(),
                         0, t0, t1);
        }
      }
    }
  }
  probe.miss_evict_us_p50 = Median(evict_us);
  return probe;
}

}  // namespace nxbench
