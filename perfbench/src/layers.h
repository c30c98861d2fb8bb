// Per-layer probes replayed on a workload's own store: the storage layer's
// row read and decode, and the sub-shard cache's hit and miss paths.
#ifndef NXGRAPH_PERFBENCH_LAYERS_H_
#define NXGRAPH_PERFBENCH_LAYERS_H_

#include <memory>

#include "perfbench/src/trace.h"
#include "src/storage/graph_store.h"

namespace nxbench {

struct StorageProbe {
  bool ok = true;
  double row_read_mb_per_s = 0;     ///< ReadSubShardRowBytes, whole rows
  double decode_medges_per_s = 0;   ///< DecodeSubShardRow, one thread
};

/// Reads every forward row with ReadSubShardRowBytes, then decodes it with
/// DecodeSubShardRow (checksums verified), on the calling thread. Reports
/// the median rate over `passes` passes.
StorageProbe ProbeStorage(const nxgraph::GraphStore& store, Tracer* tracer,
                          int passes = 3);

struct CacheProbe {
  bool ok = true;
  double hit_ns_p50_t1 = 0;      ///< GetPinned on a resident key, 1 thread
  double hit_ns_p50_t4 = 0;      ///< same, 4 threads on distinct keys
  double miss_us_p50 = 0;        ///< cold cache with room: load + insert
  double miss_evict_us_p50 = 0;  ///< full evictable cache at 1/2 store
};

/// Drives SubShardCache::GetPinned (the serving policy: evictable) over the
/// store's forward sub-shards.
CacheProbe ProbeCache(const std::shared_ptr<const nxgraph::GraphStore>& store,
                      Tracer* tracer);

}  // namespace nxbench

#endif  // NXGRAPH_PERFBENCH_LAYERS_H_
