#include "src/prep/sharder.h"

#include <algorithm>
#include <cstring>
#include <numeric>

#include "src/graph/binary_io.h"
#include "src/prep/prep_internal.h"
#include "src/storage/subshard.h"
#include "src/util/logging.h"

namespace nxgraph {

namespace {

// One buffered edge destined for a particular sub-shard row.
struct RowEdge {
  VertexId src;
  VertexId dst;
  float weight;
};

// Fewest items per slice of a parallel partition; below this the
// partition runs on fewer slices.
constexpr size_t kMinPartitionSliceItems = size_t{1} << 14;

// Interval lookup for MakeEqualIntervals(n, p): interval i starts at
// floor(n * i / p), so vertex v < n lies in the largest i with
// n * i < p * (v + 1). One division instead of a binary search.
struct EqualIntervals {
  uint64_t n;
  uint32_t p;
  uint32_t Of(VertexId v) const {
    return static_cast<uint32_t>((uint64_t{p} * (uint64_t{v} + 1) - 1) / n);
  }
};

// Stable parallel counting sort of items [0, n) into `p` buckets. The
// constructor counts each slice of the items per bucket; Scatter() then
// calls emit(k, pos) with bucket b's items at positions next[b],
// next[b] + 1, ... in input order (each slice behind the earlier slices'
// items) and advances next[b] past them.
template <typename BucketOf>
class StablePartition {
 public:
  StablePartition(ThreadPool* pool, size_t n, uint32_t p, BucketOf bucket_of)
      : pool_(pool),
        n_(n),
        bucket_of_(std::move(bucket_of)),
        slices_(std::clamp<size_t>(n / kMinPartitionSliceItems, 1,
                                   pool->num_threads() + 1)),
        grain_((n + slices_ - 1) / slices_),
        cursor_(slices_, std::vector<uint64_t>(p, 0)) {
    // ParallelFor chunk s is slice s (see its boundary contract).
    pool_->ParallelFor(0, n_, grain_, [&](size_t begin, size_t end) {
      std::vector<uint64_t>& counts = cursor_[begin / grain_];
      for (size_t k = begin; k < end; ++k) ++counts[bucket_of_(k)];
    });
  }

  // Items in bucket b; valid until Scatter().
  uint64_t count(uint32_t b) const {
    uint64_t total = 0;
    for (const std::vector<uint64_t>& counts : cursor_) total += counts[b];
    return total;
  }

  template <typename Emit>
  void Scatter(std::vector<uint64_t>* next, const Emit& emit) {
    for (size_t b = 0; b < next->size(); ++b) {
      for (std::vector<uint64_t>& cursor : cursor_) {
        const uint64_t count = cursor[b];
        cursor[b] = (*next)[b];
        (*next)[b] += count;
      }
    }
    pool_->ParallelFor(0, n_, grain_, [&](size_t begin, size_t end) {
      std::vector<uint64_t>& cursor = cursor_[begin / grain_];
      for (size_t k = begin; k < end; ++k) emit(k, cursor[bucket_of_(k)]++);
    });
  }

 private:
  ThreadPool* const pool_;
  const size_t n_;
  const BucketOf bucket_of_;
  const size_t slices_;
  const size_t grain_;
  std::vector<std::vector<uint64_t>> cursor_;  // [slice][bucket]
};

// Builds the destination-sorted CSR sub-shard from a bucket of edges
// (sorted in place).
SubShard BuildSubShard(uint32_t i, uint32_t j, RowEdge* first, RowEdge* last,
                       bool weighted, bool dedup) {
  // Primary sort by destination, secondary by source (paper §III-A: "we
  // also sort all edges with the same destination vertex by their source").
  auto key = [](const RowEdge& e) { return uint64_t{e.dst} << 32 | e.src; };
  std::sort(first, last, [&key](const RowEdge& a, const RowEdge& b) {
    return key(a) < key(b);
  });
  if (dedup) {
    last = std::unique(first, last, [](const RowEdge& a, const RowEdge& b) {
      return a.dst == b.dst && a.src == b.src;
    });
  }
  SubShard ss;
  ss.src_interval = i;
  ss.dst_interval = j;
  ss.srcs.reserve(last - first);
  if (weighted) ss.weights.reserve(last - first);
  ss.offsets.push_back(0);
  for (const RowEdge* e = first; e != last; ++e) {
    if (ss.dsts.empty() || ss.dsts.back() != e->dst) {
      if (!ss.dsts.empty()) {
        ss.offsets.push_back(static_cast<uint32_t>(ss.srcs.size()));
      }
      ss.dsts.push_back(e->dst);
    }
    ss.srcs.push_back(e->src);
    if (weighted) ss.weights.push_back(e->weight);
  }
  if (!ss.dsts.empty()) {
    ss.offsets.push_back(static_cast<uint32_t>(ss.srcs.size()));
  }
  return ss;
}

std::string RowPath(const std::string& dir, bool transpose, uint32_t i) {
  return dir + "/row_" + (transpose ? "t_" : "") + std::to_string(i) +
         ".tmp";
}

// Streams the pre-shard once into P row-bucket temp files per direction
// (edges grouped by source interval, in pre-shard order; the transpose
// swaps src/dst first). Each batch is bucketed in parallel and written
// with one append per non-empty row. Fills `counts` (P x P, row-major)
// with the forward edges per (source interval, destination interval);
// the transpose's are its mirror.
Status BucketRows(Env* env, const std::string& dir,
                  const EqualIntervals& intervals, bool weighted,
                  bool build_transpose, uint64_t batch_edges,
                  ThreadPool* pool, std::vector<uint64_t>* counts) {
  const uint32_t p = intervals.p;
  const int directions = build_transpose ? 2 : 1;
  std::vector<std::unique_ptr<EdgeFileWriter>> writers(directions * p);
  for (int d = 0; d < directions; ++d) {
    for (uint32_t i = 0; i < p; ++i) {
      NX_ASSIGN_OR_RETURN(writers[d * p + i],
                          EdgeFileWriter::Create(env, RowPath(dir, d == 1, i),
                                                 weighted));
    }
  }

  NX_ASSIGN_OR_RETURN(auto reader,
                      EdgeFileReader::Open(env, dir + "/" + kPreShardFileName));
  const size_t record = EdgeFileWriter::RecordSize(weighted);
  counts->assign(static_cast<size_t>(p) * p, 0);
  std::vector<Edge> batch;
  std::vector<float> weights;
  std::string records;
  for (;;) {
    NX_ASSIGN_OR_RETURN(size_t n, reader->ReadBatch(batch_edges, &batch,
                                                    weighted ? &weights
                                                             : nullptr));
    if (n == 0) break;
    records.resize(n * record);
    for (int d = 0; d < directions; ++d) {
      const bool transpose = d == 1;
      StablePartition rows(pool, n, p, [&](size_t k) {
        return intervals.Of(transpose ? batch[k].dst : batch[k].src);
      });
      // Row i's records fill [bounds[i], bounds[i + 1]) of `records`.
      std::vector<uint64_t> bounds(p + 1, 0);
      for (uint32_t i = 0; i < p; ++i) {
        bounds[i + 1] = bounds[i] + rows.count(i);
      }
      std::vector<uint64_t> next(bounds.begin(), bounds.end() - 1);
      rows.Scatter(&next, [&](size_t k, uint64_t pos) {
        char* out = records.data() + pos * record;
        std::memcpy(out, transpose ? &batch[k].dst : &batch[k].src, 4);
        std::memcpy(out + 4, transpose ? &batch[k].src : &batch[k].dst, 4);
        if (weighted) std::memcpy(out + 8, &weights[k], 4);
      });
      if (!transpose) {
        pool->ParallelFor(0, p, 1, [&](size_t i0, size_t i1) {
          for (size_t i = i0; i < i1; ++i) {
            uint64_t* row_counts = counts->data() + i * p;
            for (uint64_t r = bounds[i]; r < bounds[i + 1]; ++r) {
              VertexId dst;
              std::memcpy(&dst, records.data() + r * record + 4, 4);
              ++row_counts[intervals.Of(dst)];
            }
          }
        });
      }
      for (uint32_t i = 0; i < p; ++i) {
        if (bounds[i] == bounds[i + 1]) continue;
        NX_RETURN_NOT_OK(writers[d * p + i]->AddRecords(
            records.data() + bounds[i] * record, bounds[i + 1] - bounds[i]));
      }
    }
  }
  for (auto& w : writers) NX_RETURN_NOT_OK(w->Finish());
  return Status::OK();
}

// Reads the row file at `path` batch by batch into `bucketed`, whose
// bucket j (edges into destination interval j) fills
// [bounds[j], bounds[j + 1]) in file order, then deletes the file.
Status ReadRow(Env* env, const std::string& path,
               const EqualIntervals& intervals,
               const std::vector<uint64_t>& bounds, bool weighted,
               uint64_t batch_edges, ThreadPool* pool,
               std::vector<RowEdge>* bucketed) {
  const uint32_t p = intervals.p;
  bucketed->resize(bounds[p]);
  std::vector<uint64_t> next(bounds.begin(), bounds.end() - 1);
  NX_ASSIGN_OR_RETURN(auto reader, EdgeFileReader::Open(env, path));
  std::vector<Edge> batch;
  std::vector<float> weights;
  for (;;) {
    NX_ASSIGN_OR_RETURN(size_t n,
                        reader->ReadBatch(batch_edges, &batch,
                                          weighted ? &weights : nullptr));
    if (n == 0) break;
    StablePartition dsts(pool, n, p,
                         [&](size_t k) { return intervals.Of(batch[k].dst); });
    for (uint32_t j = 0; j < p; ++j) {
      if (dsts.count(j) > bounds[j + 1] - next[j]) {
        return Status::Corruption(path + " holds more edges than were " +
                                  "bucketed into it");
      }
    }
    dsts.Scatter(&next, [&](size_t k, uint64_t pos) {
      (*bucketed)[pos] =
          RowEdge{batch[k].src, batch[k].dst, weighted ? weights[k] : 1.0f};
    });
  }
  for (uint32_t j = 0; j < p; ++j) {
    if (next[j] != bounds[j + 1]) {
      return Status::Corruption(path + " holds fewer edges than were " +
                                "bucketed into it");
    }
  }
  reader.reset();
  return env->RemoveFile(path);
}

// One sub-shard of a row, built and encoded by a pool task.
struct EncodedSubShard {
  std::string blob;
  SubShardMeta meta;
};

// Processes one direction (forward or transpose) from its row files: for
// each row, scatter its edges batch by batch into destination-interval
// buckets sized from `counts` (see BucketRows), then build, encode and
// summarise the P sub-shards as parallel tasks and append the blobs in j
// order.
Status ShardOneDirection(Env* env, const std::string& dir,
                         const std::vector<VertexId>& interval_offsets,
                         const EqualIntervals& intervals,
                         const std::vector<uint64_t>& counts, bool weighted,
                         bool transpose, const SharderOptions& options,
                         ThreadPool* pool, std::vector<SubShardMeta>* table) {
  const uint32_t p = intervals.p;
  const std::string shard_path =
      dir + "/" +
      (transpose ? kSubShardsTransposeFileName : kSubShardsFileName);
  std::unique_ptr<WritableFile> out;
  NX_RETURN_NOT_OK(env->NewWritableFile(shard_path, &out));

  table->assign(static_cast<size_t>(p) * p, SubShardMeta{});
  uint64_t offset = 0;
  std::vector<EncodedSubShard> encoded(p);
  for (uint32_t i = 0; i < p; ++i) {
    // Bucket j of the row fills [bounds[j], bounds[j + 1]) of `bucketed`.
    std::vector<uint64_t> bounds(p + 1, 0);
    for (uint32_t j = 0; j < p; ++j) {
      bounds[j + 1] = bounds[j] + (transpose ? counts[size_t{j} * p + i]
                                             : counts[size_t{i} * p + j]);
    }
    std::vector<RowEdge> bucketed;
    NX_RETURN_NOT_OK(ReadRow(env, RowPath(dir, transpose, i), intervals,
                             bounds, weighted, options.batch_edges, pool,
                             &bucketed));

    // All blobs of row i share interval i's summary layout: their sources
    // all fall in [interval_offsets[i], interval_offsets[i+1]). The largest
    // buckets go first so the tail of the row stays short.
    const SummaryLayout row_layout = MakeSummaryLayout(
        options.summary, interval_offsets[i],
        interval_offsets[i + 1] - interval_offsets[i]);
    std::vector<uint32_t> order(p);
    std::iota(order.begin(), order.end(), 0u);
    std::stable_sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
      return bounds[a + 1] - bounds[a] > bounds[b + 1] - bounds[b];
    });
    pool->ParallelFor(0, p, 1, [&](size_t k0, size_t k1) {
      for (size_t k = k0; k < k1; ++k) {
        const uint32_t j = order[k];
        const SubShard ss = BuildSubShard(
            i, j, bucketed.data() + bounds[j], bucketed.data() + bounds[j + 1],
            weighted, options.dedup);
        EncodedSubShard& e = encoded[j];
        e.blob = ss.Encode(options.format);
        e.meta.size = e.blob.size();
        e.meta.num_edges = ss.num_edges();
        e.meta.num_dsts = ss.num_dsts();
        e.meta.format = options.format;
        if (row_layout.kind != SummaryKind::kNone && !ss.srcs.empty()) {
          e.meta.summary_kind = row_layout.kind;
          e.meta.summary.assign(row_layout.words(), 0);
          for (VertexId src : ss.srcs) {
            SummaryAddVertex(row_layout, src, e.meta.summary.data());
          }
        }
      }
    });
    bucketed = {};

    for (uint32_t j = 0; j < p; ++j) {
      EncodedSubShard& e = encoded[j];
      NX_RETURN_NOT_OK(out->Append(e.blob));
      e.meta.offset = offset;
      offset += e.blob.size();
      (*table)[static_cast<size_t>(i) * p + j] = std::move(e.meta);
      e = EncodedSubShard{};
    }
  }
  return out->Close();
}

}  // namespace

std::vector<VertexId> MakeEqualIntervals(uint64_t num_vertices, uint32_t p) {
  std::vector<VertexId> offsets(p + 1);
  for (uint32_t i = 0; i <= p; ++i) {
    offsets[i] = static_cast<VertexId>(num_vertices * i / p);
  }
  return offsets;
}

Result<Manifest> RunSharder(Env* env, const std::string& dir,
                            const DegreeResult& degrees,
                            const SharderOptions& options) {
  return prep_internal::RunSharder(env, dir, degrees, options,
                                   prep_internal::NewBuildPool().get());
}

namespace prep_internal {

Result<Manifest> RunSharder(Env* env, const std::string& dir,
                            const DegreeResult& degrees,
                            const SharderOptions& options, ThreadPool* pool) {
  if (options.num_intervals == 0) {
    return Status::InvalidArgument("num_intervals must be >= 1");
  }
  if (degrees.num_vertices == 0) {
    return Status::InvalidArgument("graph has no vertices");
  }
  // More intervals than vertices would create empty intervals whose
  // boundaries collide; clamp (tiny graphs only).
  const uint32_t p = static_cast<uint32_t>(
      std::min<uint64_t>(options.num_intervals, degrees.num_vertices));

  Manifest m;
  m.num_vertices = degrees.num_vertices;
  m.num_edges = degrees.num_edges;
  m.num_intervals = p;
  m.weighted = degrees.weighted;
  m.has_transpose = options.build_transpose;
  m.summary_bitmap_max_bits = options.summary.bitmap_max_bits;
  m.summary_bloom_bits = options.summary.bloom_bits;
  m.interval_offsets = MakeEqualIntervals(degrees.num_vertices, p);

  const EqualIntervals intervals{degrees.num_vertices, p};

  std::vector<uint64_t> counts;
  NX_RETURN_NOT_OK(BucketRows(env, dir, intervals, m.weighted,
                              options.build_transpose, options.batch_edges,
                              pool, &counts));
  NX_RETURN_NOT_OK(ShardOneDirection(env, dir, m.interval_offsets, intervals,
                                     counts, m.weighted, /*transpose=*/false,
                                     options, pool, &m.subshards));
  if (options.build_transpose) {
    NX_RETURN_NOT_OK(ShardOneDirection(
        env, dir, m.interval_offsets, intervals, counts, m.weighted,
        /*transpose=*/true, options, pool, &m.subshards_transpose));
  }
  m.BuildColumnIndex();
  NX_RETURN_NOT_OK(WriteManifest(env, dir, m));
  return m;
}

}  // namespace prep_internal

}  // namespace nxgraph
