// Sharding: second preprocessing step (paper §III-A). Partitions vertices
// into P equal intervals and edges into P^2 destination-sorted sub-shards.
#ifndef NXGRAPH_PREP_SHARDER_H_
#define NXGRAPH_PREP_SHARDER_H_

#include <cstdint>
#include <string>

#include "src/io/env.h"
#include "src/prep/degreer.h"
#include "src/prep/manifest.h"
#include "src/storage/subshard_format.h"
#include "src/util/result.h"

namespace nxgraph {

/// \brief Sharding configuration.
struct SharderOptions {
  /// Number of intervals P. The paper finds P = 12..48 all work well
  /// (Fig. 7); 16 is a robust default at our scales.
  uint32_t num_intervals = 16;

  /// Also build the transposed sub-shards (edges reversed). Required by
  /// algorithms that propagate against edge direction (WCC over in+out
  /// edges, the backward phase of SCC).
  bool build_transpose = true;

  /// Remove duplicate (src, dst) pairs within each sub-shard. Off by
  /// default: degrees were computed over the multiset, and PageRank treats
  /// parallel edges as distinct contributions (GraphChi behaves the same).
  bool dedup = false;

  /// Edges per read of the pre-shard and of a row file. One read of the
  /// pre-shard buckets its edges into per-row temporary files for both
  /// directions; rows are then processed one source interval at a time, so
  /// peak memory is O(batch_edges + largest row) plus one row's encoded
  /// blobs, not O(m). Per row that is 12 bytes per edge of destination
  /// buckets (sized from counts taken while bucketing the pre-shard, and
  /// filled one read batch at a time), the read batch, the row's P blobs,
  /// and up to one sub-shard being built per core; plus a P x P table of
  /// edge counts. The temporary row files of both directions are on disk
  /// together, up to twice the pre-shard's size when the transpose is
  /// built; each is deleted once its row is read. Within a batch or a row
  /// the bucketing, and each of the row's P sub-shards (sort, build,
  /// encode, summary), run in parallel; the bytes written do not depend on
  /// this value or on the core count.
  uint64_t batch_edges = 4 << 20;

  /// Blob encoding for the written sub-shards (recorded per blob in the
  /// manifest). Defaults to the process default — NXS2 (delta-varint),
  /// overridable via NXGRAPH_SUBSHARD_FORMAT; pass kNxs1 explicitly to
  /// write the raw fixed-width format. Readers dispatch on each blob's
  /// magic, so stores of either (or mixed) format load identically.
  SubShardFormat format = DefaultSubShardFormat();

  /// Per-blob source-vertex summary sizing (manifest v3). Defaults to
  /// summaries ON (bitmap up to 4096-vertex intervals, 512-bit bloom
  /// above) unless NXGRAPH_SELECTIVE=0 disables selective scheduling
  /// process-wide, in which case the written manifest carries no summaries.
  /// Set both fields to 0 to force a summary-free store explicitly.
  SummaryParams summary = DefaultSelectiveScheduling()
                              ? SummaryParams{}
                              : SummaryParams{0, 0};
};

/// \brief Runs sharding over the pre-shard produced by RunDegreer in `dir`,
/// writing `subshards.nxs` (+ `subshards_t.nxs`) and the manifest.
///
/// The CPU work runs on every core (a pool of its own; see
/// prep_internal.h); Env calls stay on the calling thread and blobs are
/// appended in (i, j) order. Returns the manifest it wrote.
Result<Manifest> RunSharder(Env* env, const std::string& dir,
                            const DegreeResult& degrees,
                            const SharderOptions& options);

/// Convenience: equal-size interval boundaries for n vertices in P parts.
std::vector<VertexId> MakeEqualIntervals(uint64_t num_vertices, uint32_t p);

}  // namespace nxgraph

#endif  // NXGRAPH_PREP_SHARDER_H_
