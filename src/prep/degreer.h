// Degreeing: first preprocessing step (paper §III-A). Maps sparse vertex
// indices to dense, continuous ids, computes per-vertex degrees, and emits
// the pre-shard consumed by the Sharder.
#ifndef NXGRAPH_PREP_DEGREER_H_
#define NXGRAPH_PREP_DEGREER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/graph/edge_list.h"
#include "src/io/env.h"
#include "src/util/result.h"

namespace nxgraph {

/// \brief Output of the degreeing step.
///
/// Ids are assigned in ascending index order, so `mapping` (id -> original
/// index) is sorted; index -> id lookups are binary searches over it. The
/// paper stores a forward and reverse mapping file; one sorted array serves
/// both directions.
struct DegreeResult {
  uint64_t num_vertices = 0;  ///< vertices with at least one edge
  uint64_t num_edges = 0;
  bool weighted = false;
  std::vector<VertexIndex> mapping;   ///< id -> original index, ascending
  std::vector<uint32_t> out_degrees;  ///< indexed by id
  std::vector<uint32_t> in_degrees;   ///< indexed by id
};

/// \brief Runs degreeing over an in-memory edge list.
///
/// Writes into `dir`:
///  - the pre-shard (`preshard.nxel`): edges re-labelled to dense ids;
///  - the mapping file (`mapping.nxmap`);
///  - the degrees file (`degrees.nxd`): out-degrees then in-degrees.
/// Isolated vertices (no incident edge) receive no id, matching the paper's
/// "eliminate non-existing vertices".
///
/// The CPU work runs on every core (a pool of its own; see
/// prep_internal.h): collecting the distinct indices (sorted runs merged
/// into the mapping batch by batch), relabelling, and counting degrees. Env calls stay on the calling thread, the pre-shard is written
/// in batches of relabelled edges, and the files are byte-identical
/// whatever the core count. `mapping` ends with capacity num_vertices; no
/// array of all 2 * num_edges endpoints is ever built.
Result<DegreeResult> RunDegreer(Env* env, const EdgeList& edges,
                                const std::string& dir);

inline constexpr char kPreShardFileName[] = "preshard.nxel";

/// Loads the mapping file (id -> original index).
Result<std::vector<VertexIndex>> LoadMapping(Env* env, const std::string& dir);

/// Loads degrees; `out_degrees`/`in_degrees` may be null when not needed.
Status LoadDegrees(Env* env, const std::string& dir, uint64_t num_vertices,
                   std::vector<uint32_t>* out_degrees,
                   std::vector<uint32_t>* in_degrees);

/// Translates an original index to its dense id via binary search;
/// returns kInvalidVertex when the index has no id (isolated/unknown).
VertexId IndexToId(const std::vector<VertexIndex>& mapping, VertexIndex index);

}  // namespace nxgraph

#endif  // NXGRAPH_PREP_DEGREER_H_
