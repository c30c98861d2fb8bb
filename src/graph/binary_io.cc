#include "src/graph/binary_io.h"

#include <cstring>

#include "src/util/crc32c.h"
#include "src/util/serialize.h"

namespace nxgraph {

namespace {

constexpr size_t kHeaderSize = 4 + 4 + 4 + 8 + 4;  // magic,ver,flags,m,crc
constexpr uint32_t kFlagWeighted = 1u << 0;

std::string EncodeHeader(bool weighted, uint64_t num_edges) {
  std::string h;
  EncodeFixed<uint32_t>(&h, kEdgeFileMagic);
  EncodeFixed<uint32_t>(&h, kEdgeFileVersion);
  EncodeFixed<uint32_t>(&h, weighted ? kFlagWeighted : 0);
  EncodeFixed<uint64_t>(&h, num_edges);
  EncodeFixed<uint32_t>(&h, crc32c::Value(h.data(), h.size()));
  return h;
}

}  // namespace

Result<std::unique_ptr<EdgeFileWriter>> EdgeFileWriter::Create(
    Env* env, const std::string& path, bool weighted) {
  std::unique_ptr<EdgeFileWriter> writer(
      new EdgeFileWriter(env, path, weighted));
  NX_RETURN_NOT_OK(env->NewWritableFile(path, &writer->file_));
  // Placeholder header; Finish() rewrites it with the real edge count.
  NX_RETURN_NOT_OK(writer->file_->Append(EncodeHeader(weighted, 0)));
  return writer;
}

Status EdgeFileWriter::Add(VertexId src, VertexId dst) {
  if (weighted_) {
    return Status::InvalidArgument("weighted file requires AddWeighted");
  }
  char buf[8];
  std::memcpy(buf, &src, 4);
  std::memcpy(buf + 4, &dst, 4);
  ++num_edges_;
  return file_->Append(buf, sizeof(buf));
}

Status EdgeFileWriter::AddWeighted(VertexId src, VertexId dst, float weight) {
  if (!weighted_) {
    return Status::InvalidArgument("unweighted file requires Add");
  }
  char buf[12];
  std::memcpy(buf, &src, 4);
  std::memcpy(buf + 4, &dst, 4);
  std::memcpy(buf + 8, &weight, 4);
  ++num_edges_;
  return file_->Append(buf, sizeof(buf));
}

Status EdgeFileWriter::AddRecords(const char* records, size_t count) {
  num_edges_ += count;
  return file_->Append(records, count * RecordSize(weighted_));
}

Status EdgeFileWriter::Finish() {
  NX_RETURN_NOT_OK(file_->Close());
  file_.reset();
  // Rewrite the header in place with the final count.
  std::unique_ptr<RandomWriteFile> rw;
  NX_RETURN_NOT_OK(env_->NewRandomWriteFile(path_, &rw));
  const std::string header = EncodeHeader(weighted_, num_edges_);
  NX_RETURN_NOT_OK(rw->WriteAt(0, header.data(), header.size()));
  return rw->Close();
}

Result<std::unique_ptr<EdgeFileReader>> EdgeFileReader::Open(
    Env* env, const std::string& path) {
  std::unique_ptr<EdgeFileReader> reader(new EdgeFileReader());
  NX_RETURN_NOT_OK(env->NewSequentialFile(path, &reader->file_));
  char buf[kHeaderSize];
  size_t n = 0;
  NX_RETURN_NOT_OK(reader->file_->Read(sizeof(buf), buf, &n));
  if (n != sizeof(buf)) {
    return Status::Corruption("edge file too short: " + path);
  }
  SliceReader sr(buf, sizeof(buf));
  uint32_t magic = 0, version = 0, flags = 0, crc = 0;
  uint64_t num_edges = 0;
  sr.Read(&magic);
  sr.Read(&version);
  sr.Read(&flags);
  sr.Read(&num_edges);
  sr.Read(&crc);
  if (magic != kEdgeFileMagic) {
    return Status::Corruption("bad edge-file magic in " + path);
  }
  if (version != kEdgeFileVersion) {
    return Status::NotSupported("edge-file version " + std::to_string(version));
  }
  if (crc != crc32c::Value(buf, kHeaderSize - 4)) {
    return Status::Corruption("edge-file header checksum mismatch in " + path);
  }
  reader->weighted_ = (flags & kFlagWeighted) != 0;
  reader->num_edges_ = num_edges;
  return reader;
}

Result<size_t> EdgeFileReader::ReadBatch(size_t max_edges,
                                         std::vector<Edge>* edges,
                                         std::vector<float>* weights) {
  edges->clear();
  if (weights != nullptr) weights->clear();
  const uint64_t remaining = num_edges_ - edges_read_;
  const size_t want =
      static_cast<size_t>(std::min<uint64_t>(max_edges, remaining));
  if (want == 0) return size_t{0};

  const size_t record = EdgeFileWriter::RecordSize(weighted_);
  std::vector<char> buf(want * record);
  size_t n = 0;
  NX_RETURN_NOT_OK(file_->Read(buf.size(), buf.data(), &n));
  if (n != buf.size()) {
    return Status::Corruption("edge file truncated: expected " +
                              std::to_string(buf.size()) + " bytes, got " +
                              std::to_string(n));
  }
  edges->resize(want);
  if (weighted_ && weights != nullptr) weights->resize(want);
  for (size_t i = 0; i < want; ++i) {
    const char* p = buf.data() + i * record;
    Edge e;
    std::memcpy(&e.src, p, 4);
    std::memcpy(&e.dst, p + 4, 4);
    (*edges)[i] = e;
    if (weighted_ && weights != nullptr) {
      std::memcpy(&(*weights)[i], p + 8, 4);
    }
  }
  edges_read_ += want;
  return want;
}

}  // namespace nxgraph
