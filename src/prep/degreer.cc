#include "src/prep/degreer.h"

#include <algorithm>
#include <cstring>
#include <iterator>

#include "src/graph/binary_io.h"
#include "src/prep/manifest.h"
#include "src/prep/prep_internal.h"
#include "src/util/crc32c.h"
#include "src/util/serialize.h"

namespace nxgraph {

namespace {

constexpr uint32_t kMappingMagic = 0x50414D4Eu;  // "NMAP"
constexpr uint32_t kDegreesMagic = 0x4745444Eu;  // "NDEG"

Status WriteMappingFile(Env* env, const std::string& dir,
                        const std::vector<VertexIndex>& mapping) {
  std::string out;
  EncodeFixed<uint32_t>(&out, kMappingMagic);
  EncodeFixed<uint64_t>(&out, mapping.size());
  out.append(reinterpret_cast<const char*>(mapping.data()),
             mapping.size() * sizeof(VertexIndex));
  EncodeFixed<uint32_t>(&out, crc32c::Value(out.data(), out.size()));
  return WriteStringToFile(env, dir + "/" + kMappingFileName, out);
}

Status WriteDegreesFile(Env* env, const std::string& dir,
                        const std::vector<uint32_t>& out_degrees,
                        const std::vector<uint32_t>& in_degrees) {
  std::string out;
  EncodeFixed<uint32_t>(&out, kDegreesMagic);
  EncodeFixed<uint64_t>(&out, out_degrees.size());
  out.append(reinterpret_cast<const char*>(out_degrees.data()),
             out_degrees.size() * sizeof(uint32_t));
  out.append(reinterpret_cast<const char*>(in_degrees.data()),
             in_degrees.size() * sizeof(uint32_t));
  EncodeFixed<uint32_t>(&out, crc32c::Value(out.data(), out.size()));
  return WriteStringToFile(env, dir + "/" + kDegreesFileName, out);
}

// Edges per sort-and-unique task, and the fewest edges merged into the
// mapping at once.
constexpr size_t kSortChunkEdges = size_t{1} << 14;
constexpr size_t kMinMergeEdges = size_t{1} << 16;
// Edges relabelled per pre-shard append.
constexpr size_t kRelabelBatchEdges = size_t{1} << 16;

// Sorted distinct endpoint indices of edges [begin, end).
std::vector<VertexIndex> SortedEndpoints(const EdgeList& edges, size_t begin,
                                         size_t end) {
  std::vector<VertexIndex> v;
  v.reserve(2 * (end - begin));
  for (size_t e = begin; e < end; ++e) {
    v.push_back(edges.src(e));
    v.push_back(edges.dst(e));
  }
  std::sort(v.begin(), v.end());
  v.erase(std::unique(v.begin(), v.end()), v.end());
  return v;
}

// Unions sorted distinct runs into one, pairwise and in parallel, freeing
// each input as soon as it is merged.
std::vector<VertexIndex> MergeRuns(std::vector<std::vector<VertexIndex>> runs,
                                   ThreadPool* pool) {
  while (runs.size() > 1) {
    std::vector<std::vector<VertexIndex>> next((runs.size() + 1) / 2);
    pool->ParallelFor(0, next.size(), 1, [&](size_t begin, size_t end) {
      for (size_t k = begin; k < end; ++k) {
        if (2 * k + 1 == runs.size()) {
          next[k] = std::move(runs[2 * k]);
          continue;
        }
        const auto& a = runs[2 * k];
        const auto& b = runs[2 * k + 1];
        next[k].reserve(a.size() + b.size());
        std::set_union(a.begin(), a.end(), b.begin(), b.end(),
                       std::back_inserter(next[k]));
        runs[2 * k] = {};
        runs[2 * k + 1] = {};
      }
    });
    runs = std::move(next);
  }
  return std::move(runs.front());
}

// Distinct endpoint indices in ascending order; position == dense id.
// Edges are merged into the mapping in batches of at least half its size
// (so the merge work stays linear overall) and at least 1/16 of the edges
// (so each batch spreads many sort chunks over the pool). Besides the
// mapping only one batch's endpoints are held, at most max(E/8, V, 128 Ki);
// no 2E-entry array is built.
std::vector<VertexIndex> BuildMapping(const EdgeList& edges,
                                      ThreadPool* pool) {
  std::vector<VertexIndex> mapping;
  const size_t m = edges.num_edges();
  for (size_t begin = 0; begin < m;) {
    const size_t end =
        std::min(m, begin + std::max({kMinMergeEdges, mapping.size() / 2,
                                      m / 16}));
    const size_t chunks = (end - begin + kSortChunkEdges - 1) / kSortChunkEdges;
    std::vector<std::vector<VertexIndex>> runs(chunks + 1);
    pool->ParallelFor(0, chunks, 1, [&](size_t c0, size_t c1) {
      for (size_t c = c0; c < c1; ++c) {
        const size_t lo = begin + c * kSortChunkEdges;
        runs[c] = SortedEndpoints(edges, lo,
                                  std::min(end, lo + kSortChunkEdges));
      }
    });
    runs.back() = std::move(mapping);
    mapping = MergeRuns(std::move(runs), pool);
    begin = end;
  }
  mapping.shrink_to_fit();
  return mapping;
}

// Index -> id lookup for relabelling: a directory over the high bits of
// (index - min index) narrows each binary search to the few ids sharing a
// bucket, about one per bucket when indices are spread evenly.
class IdDirectory {
 public:
  explicit IdDirectory(const std::vector<VertexIndex>& mapping)
      : mapping_(mapping), min_(mapping.front()) {
    const uint64_t range = mapping.back() - min_;
    while ((range >> shift_) >= mapping.size()) ++shift_;
    starts_.resize((range >> shift_) + 2);
    uint32_t pos = 0;
    for (size_t k = 0; k < starts_.size(); ++k) {
      while (pos < mapping.size() && Bucket(mapping[pos]) < k) ++pos;
      starts_[k] = pos;
    }
  }

  // `index` must be in the mapping.
  VertexId Find(VertexIndex index) const {
    const uint64_t k = Bucket(index);
    const auto first = mapping_.begin() + starts_[k];
    const auto last = mapping_.begin() + starts_[k + 1];
    return static_cast<VertexId>(std::lower_bound(first, last, index) -
                                 mapping_.begin());
  }

 private:
  uint64_t Bucket(VertexIndex index) const { return (index - min_) >> shift_; }

  const std::vector<VertexIndex>& mapping_;
  const VertexIndex min_;
  int shift_ = 0;
  std::vector<uint32_t> starts_;  // first position of each bucket, + end
};

}  // namespace

Result<DegreeResult> RunDegreer(Env* env, const EdgeList& edges,
                                const std::string& dir) {
  return prep_internal::RunDegreer(env, edges, dir,
                                   prep_internal::NewBuildPool().get());
}

namespace prep_internal {

Result<DegreeResult> RunDegreer(Env* env, const EdgeList& edges,
                                const std::string& dir, ThreadPool* pool) {
  if (edges.num_edges() == 0) {
    return Status::InvalidArgument("cannot degree an empty edge list");
  }
  NX_RETURN_NOT_OK(env->CreateDirs(dir));

  DegreeResult result;
  result.num_edges = edges.num_edges();
  result.weighted = edges.has_weights();
  result.mapping = BuildMapping(edges, pool);
  result.num_vertices = result.mapping.size();
  if (result.num_vertices > static_cast<uint64_t>(kInvalidVertex)) {
    return Status::InvalidArgument("graph exceeds 2^32-1 vertices");
  }

  // Re-label edges and count degrees batch by batch, streaming out the
  // pre-shard one batch per append. Each slice of a batch counts into its
  // own degree arrays (slice 0's become the result's); the slices are
  // summed at the end. No more slices than edges per vertex, so the extra
  // arrays never outgrow the edge list.
  const size_t n = result.num_vertices;
  const size_t slices = static_cast<size_t>(std::clamp<uint64_t>(
      result.num_edges / n, 1, pool->num_threads() + 1));
  std::vector<std::vector<uint32_t>> out_degrees(slices,
                                                 std::vector<uint32_t>(n));
  std::vector<std::vector<uint32_t>> in_degrees(slices,
                                                std::vector<uint32_t>(n));
  const IdDirectory ids(result.mapping);
  const size_t record = EdgeFileWriter::RecordSize(result.weighted);
  NX_ASSIGN_OR_RETURN(
      auto writer,
      EdgeFileWriter::Create(env, dir + "/" + kPreShardFileName,
                             result.weighted));
  std::string records;
  for (size_t begin = 0; begin < edges.num_edges();
       begin += kRelabelBatchEdges) {
    const size_t count =
        std::min(kRelabelBatchEdges, edges.num_edges() - begin);
    records.resize(count * record);
    // ParallelFor chunk s is slice s (see its boundary contract).
    const size_t grain = (count + slices - 1) / slices;
    pool->ParallelFor(0, count, grain, [&](size_t lo, size_t hi) {
      const size_t s = lo / grain;
      uint32_t* out_deg = out_degrees[s].data();
      uint32_t* in_deg = in_degrees[s].data();
      for (size_t k = lo; k < hi; ++k) {
        const size_t e = begin + k;
        const VertexId src = ids.Find(edges.src(e));
        const VertexId dst = ids.Find(edges.dst(e));
        ++out_deg[src];
        ++in_deg[dst];
        char* p = records.data() + k * record;
        std::memcpy(p, &src, 4);
        std::memcpy(p + 4, &dst, 4);
        if (result.weighted) {
          const float w = edges.weight(e);
          std::memcpy(p + 8, &w, 4);
        }
      }
    });
    NX_RETURN_NOT_OK(writer->AddRecords(records.data(), count));
  }
  NX_RETURN_NOT_OK(writer->Finish());
  records = {};

  pool->ParallelFor(0, n, size_t{1} << 16, [&](size_t begin, size_t end) {
    for (size_t s = 1; s < slices; ++s) {
      for (size_t v = begin; v < end; ++v) {
        out_degrees[0][v] += out_degrees[s][v];
        in_degrees[0][v] += in_degrees[s][v];
      }
    }
  });
  result.out_degrees = std::move(out_degrees[0]);
  result.in_degrees = std::move(in_degrees[0]);
  out_degrees.clear();
  in_degrees.clear();

  NX_RETURN_NOT_OK(WriteMappingFile(env, dir, result.mapping));
  NX_RETURN_NOT_OK(
      WriteDegreesFile(env, dir, result.out_degrees, result.in_degrees));
  return result;
}

}  // namespace prep_internal

Result<std::vector<VertexIndex>> LoadMapping(Env* env,
                                             const std::string& dir) {
  std::string data;
  NX_RETURN_NOT_OK(ReadFileToString(env, dir + "/" + kMappingFileName, &data));
  if (data.size() < 16) return Status::Corruption("mapping file too short");
  const uint32_t crc = DecodeFixed<uint32_t>(data.data() + data.size() - 4);
  if (crc != crc32c::Value(data.data(), data.size() - 4)) {
    return Status::Corruption("mapping file checksum mismatch");
  }
  SliceReader r(data.data(), data.size() - 4);
  uint32_t magic = 0;
  uint64_t count = 0;
  r.Read(&magic);
  r.Read(&count);
  if (magic != kMappingMagic) return Status::Corruption("bad mapping magic");
  std::vector<VertexIndex> mapping(count);
  if (!r.ReadBytes(mapping.data(), count * sizeof(VertexIndex))) {
    return Status::Corruption("mapping file truncated");
  }
  return mapping;
}

Status LoadDegrees(Env* env, const std::string& dir, uint64_t num_vertices,
                   std::vector<uint32_t>* out_degrees,
                   std::vector<uint32_t>* in_degrees) {
  std::string data;
  NX_RETURN_NOT_OK(ReadFileToString(env, dir + "/" + kDegreesFileName, &data));
  if (data.size() < 16) return Status::Corruption("degrees file too short");
  const uint32_t crc = DecodeFixed<uint32_t>(data.data() + data.size() - 4);
  if (crc != crc32c::Value(data.data(), data.size() - 4)) {
    return Status::Corruption("degrees file checksum mismatch");
  }
  SliceReader r(data.data(), data.size() - 4);
  uint32_t magic = 0;
  uint64_t count = 0;
  r.Read(&magic);
  r.Read(&count);
  if (magic != kDegreesMagic) return Status::Corruption("bad degrees magic");
  if (count != num_vertices) {
    return Status::Corruption("degrees file vertex count mismatch");
  }
  if (out_degrees != nullptr) {
    out_degrees->resize(count);
    if (!r.ReadBytes(out_degrees->data(), count * sizeof(uint32_t))) {
      return Status::Corruption("degrees file truncated");
    }
  } else {
    std::vector<uint32_t> skip(count);
    if (!r.ReadBytes(skip.data(), count * sizeof(uint32_t))) {
      return Status::Corruption("degrees file truncated");
    }
  }
  if (in_degrees != nullptr) {
    in_degrees->resize(count);
    if (!r.ReadBytes(in_degrees->data(), count * sizeof(uint32_t))) {
      return Status::Corruption("degrees file truncated");
    }
  }
  return Status::OK();
}

VertexId IndexToId(const std::vector<VertexIndex>& mapping,
                   VertexIndex index) {
  auto it = std::lower_bound(mapping.begin(), mapping.end(), index);
  if (it == mapping.end() || *it != index) return kInvalidVertex;
  return static_cast<VertexId>(it - mapping.begin());
}

}  // namespace nxgraph
