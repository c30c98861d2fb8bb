// Binary edge-file format ("pre-shard"): the degreer's output and the
// sharder's input. Stores edges in dense-id space with optional weights.
#ifndef NXGRAPH_GRAPH_BINARY_IO_H_
#define NXGRAPH_GRAPH_BINARY_IO_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/graph/types.h"
#include "src/io/env.h"
#include "src/util/result.h"

namespace nxgraph {

// Layout: header (magic, version, flags, num_edges, header crc), then
// num_edges records of {src u32, dst u32, [weight f32]}.
inline constexpr uint32_t kEdgeFileMagic = 0x4C45584Eu;  // "NXEL"
inline constexpr uint32_t kEdgeFileVersion = 1;

/// \brief Streams dense-id edges to a binary pre-shard file.
class EdgeFileWriter {
 public:
  /// Creates (truncates) `path`. Set `weighted` when every edge carries a
  /// weight.
  static Result<std::unique_ptr<EdgeFileWriter>> Create(
      Env* env, const std::string& path, bool weighted);

  Status Add(VertexId src, VertexId dst);
  Status AddWeighted(VertexId src, VertexId dst, float weight);

  /// Appends `count` edges already laid out as records ({src, dst} or
  /// {src, dst, weight}, native byte order, matching `weighted`) in one
  /// write: the bulk path for writers that relabel or bucket in batches.
  Status AddRecords(const char* records, size_t count);

  /// Bytes per record: 12 when weighted, 8 otherwise.
  static size_t RecordSize(bool weighted) { return weighted ? 12 : 8; }

  /// Seals the file (rewrites the header with the final edge count).
  Status Finish();

  uint64_t num_edges() const { return num_edges_; }

 private:
  EdgeFileWriter(Env* env, std::string path, bool weighted)
      : env_(env), path_(std::move(path)), weighted_(weighted) {}

  Env* env_;
  std::string path_;
  bool weighted_;
  uint64_t num_edges_ = 0;
  std::unique_ptr<WritableFile> file_;
};

/// \brief Streams dense-id edges back from a binary pre-shard file.
class EdgeFileReader {
 public:
  static Result<std::unique_ptr<EdgeFileReader>> Open(Env* env,
                                                      const std::string& path);

  uint64_t num_edges() const { return num_edges_; }
  bool weighted() const { return weighted_; }

  /// Reads up to `max_edges` edges into the output vectors (cleared first).
  /// Returns the number read; 0 signals end-of-file. Weights are filled only
  /// for weighted files.
  Result<size_t> ReadBatch(size_t max_edges, std::vector<Edge>* edges,
                           std::vector<float>* weights);

 private:
  EdgeFileReader() = default;

  std::unique_ptr<SequentialFile> file_;
  uint64_t num_edges_ = 0;
  uint64_t edges_read_ = 0;
  bool weighted_ = false;
};

}  // namespace nxgraph

#endif  // NXGRAPH_GRAPH_BINARY_IO_H_
