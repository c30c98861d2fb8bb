// Bench-side tracing: spans kept in memory and written as Chrome
// trace-event JSON, and an Env wrapper that records a span and counters for
// every call the library makes into its I/O layer.
#ifndef NXGRAPH_PERFBENCH_TRACE_H_
#define NXGRAPH_PERFBENCH_TRACE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "perfbench/src/common.h"
#include "src/io/env.h"

namespace nxbench {

/// Collects spans (name, start, end, parent, query id) in memory. Thread
/// safe. Past `max_spans` further spans are counted but not kept.
class Tracer {
 public:
  explicit Tracer(size_t max_spans = 400000);

  /// A fresh span id (ids start at 1; 0 means "no span").
  uint64_t NewId() { return next_id_.fetch_add(1, std::memory_order_relaxed); }

  void Record(const char* name, uint64_t id, uint64_t parent,
              uint64_t query_id, Clock::time_point start,
              Clock::time_point end);

  /// The span that I/O issued on any thread is attributed to (the bench sets
  /// it around each operation it times; 0 outside one).
  void SetCurrentRoot(uint64_t id) {
    current_root_.store(id, std::memory_order_relaxed);
  }
  uint64_t current_root() const {
    return current_root_.load(std::memory_order_relaxed);
  }

  size_t recorded() const;
  uint64_t dropped() const;

  /// Writes every kept span as Chrome trace-event JSON ("X" events,
  /// microseconds from the tracer's creation); `config` lands in
  /// `otherData`. Returns false on a write error.
  bool WriteChromeJson(const std::string& path, const RunConfig& config) const;

 private:
  struct Span {
    const char* name;
    uint64_t id;
    uint64_t parent;
    uint64_t query_id;
    uint32_t tid;
    int64_t start_ns;
    int64_t end_ns;
  };

  const Clock::time_point origin_;
  const size_t max_spans_;
  std::atomic<uint64_t> next_id_{1};
  std::atomic<uint64_t> current_root_{0};
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  uint64_t dropped_ = 0;
};

/// RAII span: takes its id on construction and records on destruction.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, uint64_t parent = 0,
             uint64_t query_id = 0)
      : tracer_(tracer),
        name_(name),
        id_(tracer != nullptr ? tracer->NewId() : 0),
        parent_(parent),
        query_id_(query_id),
        start_(Clock::now()) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) {
      tracer_->Record(name_, id_, parent_, query_id_, start_, Clock::now());
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  uint64_t id() const { return id_; }

 private:
  Tracer* tracer_;
  const char* name_;
  uint64_t id_;
  uint64_t parent_;
  uint64_t query_id_;
  Clock::time_point start_;
};

/// Counters of the `io` layer as seen at the Env boundary.
struct IoCounters {
  uint64_t read_ops = 0;
  uint64_t read_bytes = 0;
  double read_busy_s = 0;  ///< summed over threads
  uint64_t write_ops = 0;
  uint64_t write_bytes = 0;
  double write_busy_s = 0;  ///< summed over threads
  uint64_t sync_ops = 0;

  IoCounters operator-(const IoCounters& o) const;
};

/// Env over `base` (not owned) that forwards every call and records, per
/// data call, a span parented to the tracer's current root plus the
/// IoCounters above. Reads and positional writes are timed individually;
/// sequential appends smaller than 4 KiB are counted but not timed, since
/// they are copies into the file's user-space buffer (the flush that
/// writes the buffer is timed). Flush/Sync of a positional writer and
/// Sync of an appender count as sync ops.
class TracingEnv : public nxgraph::Env {
 public:
  TracingEnv(nxgraph::Env* base, Tracer* tracer);

  IoCounters counters() const;

  nxgraph::Status NewSequentialFile(
      const std::string& path,
      std::unique_ptr<nxgraph::SequentialFile>* out) override;
  nxgraph::Status NewRandomAccessFile(
      const std::string& path,
      std::unique_ptr<nxgraph::RandomAccessFile>* out) override;
  nxgraph::Status NewWritableFile(
      const std::string& path,
      std::unique_ptr<nxgraph::WritableFile>* out) override;
  nxgraph::Status NewRandomWriteFile(
      const std::string& path,
      std::unique_ptr<nxgraph::RandomWriteFile>* out) override;

  bool FileExists(const std::string& path) override {
    return base_->FileExists(path);
  }
  nxgraph::Result<uint64_t> GetFileSize(const std::string& path) override {
    return base_->GetFileSize(path);
  }
  nxgraph::Status CreateDirs(const std::string& path) override {
    return base_->CreateDirs(path);
  }
  nxgraph::Status RemoveFile(const std::string& path) override {
    return base_->RemoveFile(path);
  }
  nxgraph::Status RemoveDirRecursively(const std::string& path) override {
    return base_->RemoveDirRecursively(path);
  }
  nxgraph::Status RenameFile(const std::string& from,
                             const std::string& to) override {
    return base_->RenameFile(from, to);
  }
  nxgraph::Status ListDir(const std::string& path,
                          std::vector<std::string>* names) override {
    return base_->ListDir(path, names);
  }

  // Called by the wrapped file objects.
  enum class Op { kRead, kWrite, kSync };
  void OnOp(Op op, uint64_t bytes, Clock::time_point start,
            Clock::time_point end);
  void OnUntimedWrite(uint64_t bytes);

 private:
  nxgraph::Env* base_;
  Tracer* tracer_;
  std::atomic<uint64_t> read_ops_{0};
  std::atomic<uint64_t> read_bytes_{0};
  std::atomic<uint64_t> read_ns_{0};
  std::atomic<uint64_t> write_ops_{0};
  std::atomic<uint64_t> write_bytes_{0};
  std::atomic<uint64_t> write_ns_{0};
  std::atomic<uint64_t> sync_ops_{0};
};

}  // namespace nxbench

#endif  // NXGRAPH_PERFBENCH_TRACE_H_
