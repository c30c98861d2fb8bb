#include "perfbench/src/trace.h"

#include <cstdio>
#include <functional>
#include <string>
#include <thread>
#include <utility>

namespace nxbench {

using nxgraph::Status;

namespace {

uint32_t ThreadIndex() {
  static std::atomic<uint32_t> next{1};
  thread_local const uint32_t index = next.fetch_add(1);
  return index;
}

uint64_t Nanos(Clock::time_point start, Clock::time_point end) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(end - start)
          .count());
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    out += ch;
  }
  return out;
}

}  // namespace

Tracer::Tracer(size_t max_spans)
    : origin_(Clock::now()), max_spans_(max_spans) {}

void Tracer::Record(const char* name, uint64_t id, uint64_t parent,
                    uint64_t query_id, Clock::time_point start,
                    Clock::time_point end) {
  const Span span{name,
                  id,
                  parent,
                  query_id,
                  ThreadIndex(),
                  static_cast<int64_t>(Nanos(origin_, start)),
                  static_cast<int64_t>(Nanos(origin_, end))};
  std::lock_guard<std::mutex> lock(mu_);
  if (spans_.size() >= max_spans_) {
    ++dropped_;
    return;
  }
  spans_.push_back(span);
}

size_t Tracer::recorded() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

uint64_t Tracer::dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dropped_;
}

bool Tracer::WriteChromeJson(const std::string& path,
                             const RunConfig& config) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::lock_guard<std::mutex> lock(mu_);
  std::fprintf(f, "{\"traceEvents\":[\n");
  for (size_t k = 0; k < spans_.size(); ++k) {
    const Span& s = spans_[k];
    std::fprintf(f,
                 "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                 "\"parent\":%llu,\"query\":%llu}}%s\n",
                 s.name, s.tid, s.start_ns / 1e3,
                 (s.end_ns - s.start_ns) / 1e3,
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.query_id),
                 k + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(f,
               "],\"displayTimeUnit\":\"ms\",\"otherData\":{"
               "\"workload\":\"%s\",\"seed\":%llu,\"nproc\":%u,"
               "\"strategy\":\"%s\",\"io_backend\":\"%s\","
               "\"decode_path\":\"%s\",\"dropped_spans\":%llu}}\n",
               JsonEscape(config.workload).c_str(),
               static_cast<unsigned long long>(config.seed), config.nproc,
               JsonEscape(config.strategy).c_str(),
               JsonEscape(config.io_backend).c_str(),
               JsonEscape(config.decode_path).c_str(),
               static_cast<unsigned long long>(dropped_));
  return std::fclose(f) == 0;
}

IoCounters IoCounters::operator-(const IoCounters& o) const {
  IoCounters d;
  d.read_ops = read_ops - o.read_ops;
  d.read_bytes = read_bytes - o.read_bytes;
  d.read_busy_s = read_busy_s - o.read_busy_s;
  d.write_ops = write_ops - o.write_ops;
  d.write_bytes = write_bytes - o.write_bytes;
  d.write_busy_s = write_busy_s - o.write_busy_s;
  d.sync_ops = sync_ops - o.sync_ops;
  return d;
}

namespace {

/// Times `call` and reports it to `env` as one `op` moving `bytes()`.
template <typename Call, typename Bytes>
Status Timed(TracingEnv* env, TracingEnv::Op op, Call&& call, Bytes&& bytes) {
  const Clock::time_point start = Clock::now();
  Status s = call();
  env->OnOp(op, s.ok() ? bytes() : 0, start, Clock::now());
  return s;
}

class TracedSequentialFile : public nxgraph::SequentialFile {
 public:
  TracedSequentialFile(std::unique_ptr<nxgraph::SequentialFile> base,
                       TracingEnv* env)
      : base_(std::move(base)), env_(env) {}

  Status Read(size_t n, void* buf, size_t* bytes_read) override {
    return Timed(
        env_, TracingEnv::Op::kRead,
        [&] { return base_->Read(n, buf, bytes_read); },
        [&] { return *bytes_read; });
  }
  Status Skip(uint64_t n) override { return base_->Skip(n); }

 private:
  std::unique_ptr<nxgraph::SequentialFile> base_;
  TracingEnv* env_;
};

class TracedRandomAccessFile : public nxgraph::RandomAccessFile {
 public:
  TracedRandomAccessFile(std::unique_ptr<nxgraph::RandomAccessFile> base,
                         TracingEnv* env)
      : base_(std::move(base)), env_(env) {}

  Status ReadAt(uint64_t offset, size_t n, void* buf,
                size_t* bytes_read) const override {
    return Timed(
        env_, TracingEnv::Op::kRead,
        [&] { return base_->ReadAt(offset, n, buf, bytes_read); },
        [&] { return *bytes_read; });
  }

 private:
  std::unique_ptr<nxgraph::RandomAccessFile> base_;
  TracingEnv* env_;
};

class TracedWritableFile : public nxgraph::WritableFile {
 public:
  static constexpr size_t kTimedAppendBytes = 4096;

  TracedWritableFile(std::unique_ptr<nxgraph::WritableFile> base,
                     TracingEnv* env)
      : base_(std::move(base)), env_(env) {}

  using nxgraph::WritableFile::Append;
  Status Append(const void* data, size_t n) override {
    if (n < kTimedAppendBytes) {
      Status s = base_->Append(data, n);
      if (s.ok()) env_->OnUntimedWrite(n);
      return s;
    }
    return Timed(
        env_, TracingEnv::Op::kWrite, [&] { return base_->Append(data, n); },
        [&] { return n; });
  }
  // A flush issues the buffered write: timed as a write moving 0 new bytes.
  Status Flush() override {
    return Timed(
        env_, TracingEnv::Op::kWrite, [&] { return base_->Flush(); },
        [] { return 0; });
  }
  Status Sync() override {
    return Timed(
        env_, TracingEnv::Op::kSync, [&] { return base_->Sync(); },
        [] { return 0; });
  }
  Status Close() override {
    return Timed(
        env_, TracingEnv::Op::kWrite, [&] { return base_->Close(); },
        [] { return 0; });
  }

 private:
  std::unique_ptr<nxgraph::WritableFile> base_;
  TracingEnv* env_;
};

class TracedRandomWriteFile : public nxgraph::RandomWriteFile {
 public:
  TracedRandomWriteFile(std::unique_ptr<nxgraph::RandomWriteFile> base,
                        TracingEnv* env)
      : base_(std::move(base)), env_(env) {}

  Status WriteAt(uint64_t offset, const void* data, size_t n) override {
    return Timed(
        env_, TracingEnv::Op::kWrite,
        [&] { return base_->WriteAt(offset, data, n); }, [&] { return n; });
  }
  Status Flush() override {
    return Timed(
        env_, TracingEnv::Op::kSync, [&] { return base_->Flush(); },
        [] { return 0; });
  }
  Status Truncate(uint64_t size) override { return base_->Truncate(size); }
  Status Close() override { return base_->Close(); }

 private:
  std::unique_ptr<nxgraph::RandomWriteFile> base_;
  TracingEnv* env_;
};

/// Opens through `open` and wraps the result in `Traced`.
template <typename Traced, typename File, typename Open>
Status Wrap(TracingEnv* env, std::unique_ptr<File>* out, Open&& open) {
  std::unique_ptr<File> base;
  Status s = open(&base);
  if (s.ok()) *out = std::make_unique<Traced>(std::move(base), env);
  return s;
}

}  // namespace

TracingEnv::TracingEnv(nxgraph::Env* base, Tracer* tracer)
    : base_(base), tracer_(tracer) {}

IoCounters TracingEnv::counters() const {
  IoCounters c;
  c.read_ops = read_ops_.load(std::memory_order_relaxed);
  c.read_bytes = read_bytes_.load(std::memory_order_relaxed);
  c.read_busy_s = read_ns_.load(std::memory_order_relaxed) / 1e9;
  c.write_ops = write_ops_.load(std::memory_order_relaxed);
  c.write_bytes = write_bytes_.load(std::memory_order_relaxed);
  c.write_busy_s = write_ns_.load(std::memory_order_relaxed) / 1e9;
  c.sync_ops = sync_ops_.load(std::memory_order_relaxed);
  return c;
}

void TracingEnv::OnOp(Op op, uint64_t bytes, Clock::time_point start,
                      Clock::time_point end) {
  const uint64_t ns = Nanos(start, end);
  const char* name = "io.sync";
  switch (op) {
    case Op::kRead:
      name = "io.read";
      read_ops_.fetch_add(1, std::memory_order_relaxed);
      read_bytes_.fetch_add(bytes, std::memory_order_relaxed);
      read_ns_.fetch_add(ns, std::memory_order_relaxed);
      stats_.RecordRead(bytes);
      break;
    case Op::kWrite:
      name = "io.write";
      if (bytes > 0) {
        write_ops_.fetch_add(1, std::memory_order_relaxed);
        write_bytes_.fetch_add(bytes, std::memory_order_relaxed);
        stats_.RecordWrite(bytes);
      }
      write_ns_.fetch_add(ns, std::memory_order_relaxed);
      break;
    case Op::kSync:
      sync_ops_.fetch_add(1, std::memory_order_relaxed);
      write_ns_.fetch_add(ns, std::memory_order_relaxed);
      break;
  }
  if (tracer_ != nullptr) {
    tracer_->Record(name, tracer_->NewId(), tracer_->current_root(), 0, start,
                    end);
  }
}

void TracingEnv::OnUntimedWrite(uint64_t bytes) {
  write_ops_.fetch_add(1, std::memory_order_relaxed);
  write_bytes_.fetch_add(bytes, std::memory_order_relaxed);
  stats_.RecordWrite(bytes);
}

Status TracingEnv::NewSequentialFile(
    const std::string& path, std::unique_ptr<nxgraph::SequentialFile>* out) {
  return Wrap<TracedSequentialFile>(this, out, [&](auto* base) {
    return base_->NewSequentialFile(path, base);
  });
}

Status TracingEnv::NewRandomAccessFile(
    const std::string& path, std::unique_ptr<nxgraph::RandomAccessFile>* out) {
  return Wrap<TracedRandomAccessFile>(this, out, [&](auto* base) {
    return base_->NewRandomAccessFile(path, base);
  });
}

Status TracingEnv::NewWritableFile(
    const std::string& path, std::unique_ptr<nxgraph::WritableFile>* out) {
  return Wrap<TracedWritableFile>(this, out, [&](auto* base) {
    return base_->NewWritableFile(path, base);
  });
}

Status TracingEnv::NewRandomWriteFile(
    const std::string& path, std::unique_ptr<nxgraph::RandomWriteFile>* out) {
  return Wrap<TracedRandomWriteFile>(this, out, [&](auto* base) {
    return base_->NewRandomWriteFile(path, base);
  });
}

}  // namespace nxbench
