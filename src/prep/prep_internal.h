// Internal entry points of the store build: the two preprocessing steps
// with their CPU work spread over a caller-supplied pool. RunDegreer,
// RunSharder and BuildGraphStore make a pool with NewBuildPool() and call
// these; tests call them with pools of different sizes to check that the
// written store does not depend on the thread count.
//
// Every Env call stays on the calling thread, in the same order whatever
// the pool size: pool tasks only sort, relabel, bucket, encode and
// summarise in memory.
#ifndef NXGRAPH_PREP_PREP_INTERNAL_H_
#define NXGRAPH_PREP_PREP_INTERNAL_H_

#include <algorithm>
#include <memory>
#include <string>
#include <thread>

#include "src/prep/degreer.h"
#include "src/prep/sharder.h"
#include "src/util/thread_pool.h"

namespace nxgraph {
namespace prep_internal {

/// One worker per core but the caller's; the caller joins every parallel
/// step, so a build uses every core.
inline std::unique_ptr<ThreadPool> NewBuildPool() {
  const int cores = static_cast<int>(std::thread::hardware_concurrency());
  return std::make_unique<ThreadPool>(std::max(cores - 1, 0));
}

Result<DegreeResult> RunDegreer(Env* env, const EdgeList& edges,
                                const std::string& dir, ThreadPool* pool);

Result<Manifest> RunSharder(Env* env, const std::string& dir,
                            const DegreeResult& degrees,
                            const SharderOptions& options, ThreadPool* pool);

}  // namespace prep_internal
}  // namespace nxgraph

#endif  // NXGRAPH_PREP_PREP_INTERNAL_H_
