#include "src/storage/graph_store.h"

#include <mutex>
#include <unordered_map>

#include "src/prep/degreer.h"

namespace nxgraph {

namespace {

// Folds the calling thread's decode-tally delta over a scope into the
// store's process-wide counters, whatever exit path the scope takes.
class DecodeTallyFold {
 public:
  DecodeTallyFold(std::atomic<uint64_t>* calls, std::atomic<uint64_t>* nanos)
      : calls_(calls), nanos_(nanos), before_(ThreadDecodeTallies()) {}
  ~DecodeTallyFold() {
    const DecodeTallies& after = ThreadDecodeTallies();
    calls_->fetch_add(after.bulk_decode_calls - before_.bulk_decode_calls,
                      std::memory_order_relaxed);
    nanos_->fetch_add(after.decode_nanos - before_.decode_nanos,
                      std::memory_order_relaxed);
  }
  DecodeTallyFold(const DecodeTallyFold&) = delete;
  DecodeTallyFold& operator=(const DecodeTallyFold&) = delete;

 private:
  std::atomic<uint64_t>* calls_;
  std::atomic<uint64_t>* nanos_;
  DecodeTallies before_;
};

// Checks one direction's sub-shard table against its shard file's size
// and the manifest; adds the table's edges to `*edges`.
Status ValidateSubShardTable(const Manifest& m, bool transpose,
                             uint64_t file_size, uint64_t* edges) {
  const uint32_t p = m.num_intervals;
  *edges = 0;
  for (uint32_t i = 0; i < p; ++i) {
    const SummaryLayout layout = m.summary_layout(i);
    for (uint32_t j = 0; j < p; ++j) {
      const SubShardMeta& meta = m.subshard(i, j, transpose);
      auto corrupt = [&](const char* what) {
        return Status::Corruption(std::string(transpose ? "transpose " : "") +
                                  "sub-shard (" + std::to_string(i) + ", " +
                                  std::to_string(j) + ") " + what);
      };
      if (meta.size > file_size || meta.offset > file_size - meta.size) {
        return corrupt("lies past the end of its file");
      }
      if (meta.num_dsts > meta.num_edges ||
          meta.num_dsts > m.interval_size(j)) {
        return corrupt("has too many destinations");
      }
      if (meta.summary_kind != SummaryKind::kNone &&
          (meta.summary_kind != layout.kind ||
           meta.summary.size() != layout.words())) {
        return corrupt("summary does not fit its row");
      }
      if (meta.num_edges > m.num_edges - *edges) {
        return Status::Corruption(
            std::string(transpose ? "transpose " : "") +
            "sub-shards hold more edges than the manifest");
      }
      *edges += meta.num_edges;
    }
  }
  return Status::OK();
}

}  // namespace

Result<std::shared_ptr<GraphStore>> GraphStore::Open(Env* env,
                                                     const std::string& dir) {
  std::shared_ptr<GraphStore> store(new GraphStore(env, dir));
  NX_ASSIGN_OR_RETURN(store->manifest_, ReadManifest(env, dir));
  const Manifest& m = store->manifest_;
  const std::string forward_path = dir + "/" + kSubShardsFileName;
  NX_ASSIGN_OR_RETURN(const uint64_t forward_size,
                      env->GetFileSize(forward_path));
  uint64_t forward_edges = 0;
  NX_RETURN_NOT_OK(
      ValidateSubShardTable(m, false, forward_size, &forward_edges));
  NX_RETURN_NOT_OK(env->NewRandomAccessFile(forward_path, &store->shards_));
  if (m.has_transpose) {
    const std::string transpose_path = dir + "/" + kSubShardsTransposeFileName;
    NX_ASSIGN_OR_RETURN(const uint64_t transpose_size,
                        env->GetFileSize(transpose_path));
    uint64_t transpose_edges = 0;
    NX_RETURN_NOT_OK(
        ValidateSubShardTable(m, true, transpose_size, &transpose_edges));
    if (transpose_edges != forward_edges) {
      return Status::Corruption(
          "forward and transpose sub-shards hold different edge counts");
    }
    NX_RETURN_NOT_OK(
        env->NewRandomAccessFile(transpose_path, &store->shards_transpose_));
  }
  return store;
}

Result<SubShard> GraphStore::LoadSubShard(uint32_t i, uint32_t j,
                                          bool transpose,
                                          bool verify_checksum) const {
  if (i >= num_intervals() || j >= num_intervals()) {
    return Status::InvalidArgument("sub-shard index out of range");
  }
  if (transpose && !manifest_.has_transpose) {
    return Status::InvalidArgument("store was built without a transpose");
  }
  const SubShardMeta& meta = manifest_.subshard(i, j, transpose);
  std::string buf(meta.size, '\0');
  const RandomAccessFile* file =
      transpose ? shards_transpose_.get() : shards_.get();
  // Same per-thread staging reuse as DecodeSubShardRow: repeated cache-miss
  // loads (the underbudget-cache regime) must not reallocate per blob.
  static thread_local SubShardDecodeScratch scratch;
  auto read = [&]() -> Status {
    size_t n = 0;
    NX_RETURN_NOT_OK(file->ReadAt(meta.offset, meta.size, buf.data(), &n));
    if (n != meta.size) {
      // Retryable: a short read may fill in on the next attempt (an
      // interrupted transfer), unlike a decode-level corruption of a
      // full-length blob.
      return Status::MakeRetryable(
          Status::Corruption("sub-shard blob truncated on disk"));
    }
    return Status::OK();
  };
  NX_RETURN_NOT_OK(read());
  DecodeTallyFold fold(&bulk_decode_calls_, &decode_nanos_);
  auto decoded = SubShard::Decode(buf.data(), buf.size(), i, j,
                                  verify_checksum, &scratch, decode_path());
  if (decoded.ok() || !decoded.status().IsCorruption()) return decoded;
  // One fresh read before declaring the blob corrupt: an in-flight bit
  // flip (bus/DMA/firmware) corrupts the buffer, not the medium, and
  // heals on re-read. A corruption that survives the re-read is real.
  checksum_rereads_.fetch_add(1, std::memory_order_relaxed);
  NX_RETURN_NOT_OK(read());
  return SubShard::Decode(buf.data(), buf.size(), i, j, verify_checksum,
                          &scratch, decode_path());
}

Result<std::string> GraphStore::ReadSubShardRowBytes(uint32_t i,
                                                     uint32_t j_begin,
                                                     uint32_t j_end,
                                                     bool transpose) const {
  if (i >= num_intervals() || j_begin > j_end || j_end > num_intervals()) {
    return Status::InvalidArgument("sub-shard row range out of bounds");
  }
  if (transpose && !manifest_.has_transpose) {
    return Status::InvalidArgument("store was built without a transpose");
  }
  if (j_begin == j_end) return std::string();
  const SubShardMeta& first = manifest_.subshard(i, j_begin, transpose);
  const SubShardMeta& last = manifest_.subshard(i, j_end - 1, transpose);
  const uint64_t bytes = last.offset + last.size - first.offset;
  std::string buf(bytes, '\0');
  const RandomAccessFile* file =
      transpose ? shards_transpose_.get() : shards_.get();
  size_t n = 0;
  NX_RETURN_NOT_OK(file->ReadAt(first.offset, bytes, buf.data(), &n));
  if (n != bytes) {
    // Retryable (see LoadSubShard): short reads may fill in on retry.
    return Status::MakeRetryable(
        Status::Corruption("sub-shard row truncated on disk"));
  }
  return buf;
}

Result<std::vector<SubShard>> GraphStore::DecodeSubShardRow(
    uint32_t i, uint32_t j_begin, uint32_t j_end, bool transpose,
    const std::vector<uint8_t>& verify_mask, const std::string& raw) const {
  if (i >= num_intervals() || j_begin > j_end || j_end > num_intervals()) {
    return Status::InvalidArgument("sub-shard row range out of bounds");
  }
  if (!verify_mask.empty() && verify_mask.size() != j_end - j_begin) {
    return Status::InvalidArgument("verify mask size mismatches row range");
  }
  std::vector<SubShard> row;
  if (j_begin == j_end) return row;
  // The NXS2 decoder stages varints in scratch memory before the delta
  // reconstruction; one buffer per thread means a whole row (and every
  // later row decoded on this compute thread) reuses a single allocation
  // that grows to the largest blob and stays there.
  static thread_local SubShardDecodeScratch scratch;
  const SubShardMeta& first = manifest_.subshard(i, j_begin, transpose);
  row.reserve(j_end - j_begin);
  DecodeTallyFold fold(&bulk_decode_calls_, &decode_nanos_);
  const DecodePath path = decode_path();
  for (uint32_t j = j_begin; j < j_end; ++j) {
    const SubShardMeta& meta = manifest_.subshard(i, j, transpose);
    const bool verify =
        verify_mask.empty() || verify_mask[j - j_begin] != 0;
    if (meta.offset - first.offset + meta.size > raw.size()) {
      return Status::Corruption("sub-shard row buffer too short");
    }
    NX_ASSIGN_OR_RETURN(
        SubShard ss,
        SubShard::Decode(raw.data() + (meta.offset - first.offset), meta.size,
                         i, j, verify, &scratch, path));
    row.push_back(std::move(ss));
  }
  return row;
}

Result<std::vector<SubShard>> GraphStore::DecodeSubShardRowWithReread(
    uint32_t i, uint32_t j_begin, uint32_t j_end, bool transpose,
    const std::vector<uint8_t>& verify_mask, const std::string& raw) const {
  auto row = DecodeSubShardRow(i, j_begin, j_end, transpose, verify_mask, raw);
  if (row.ok() || !row.status().IsCorruption()) return row;
  // The raw bytes failed to decode (checksum mismatch or a mangled
  // header). Before declaring the store corrupt, read the row again: a
  // transfer-level bit flip lives in the buffer, not on the medium, and
  // vanishes on a fresh read. If the re-read itself fails, or the fresh
  // bytes still fail to decode, the corruption is real and the ORIGINAL
  // corruption status surfaces (a transient re-read error must not mask
  // what the caller needs to know).
  checksum_rereads_.fetch_add(1, std::memory_order_relaxed);
  auto reread = ReadSubShardRowBytes(i, j_begin, j_end, transpose);
  if (!reread.ok()) return row.status();
  auto retried =
      DecodeSubShardRow(i, j_begin, j_end, transpose, verify_mask, *reread);
  if (!retried.ok()) return row.status();
  return retried;
}

Result<std::vector<SubShard>> GraphStore::LoadSubShardRow(
    uint32_t i, uint32_t j_begin, uint32_t j_end, bool transpose,
    const std::vector<uint8_t>& verify_mask) const {
  NX_ASSIGN_OR_RETURN(std::string raw,
                      ReadSubShardRowBytes(i, j_begin, j_end, transpose));
  return DecodeSubShardRowWithReread(i, j_begin, j_end, transpose,
                                     verify_mask, raw);
}

Result<std::vector<uint32_t>> GraphStore::LoadOutDegrees() const {
  std::vector<uint32_t> degrees;
  NX_RETURN_NOT_OK(
      LoadDegrees(env_, dir_, num_vertices(), &degrees, nullptr));
  return degrees;
}

Result<std::vector<uint32_t>> GraphStore::LoadInDegrees() const {
  std::vector<uint32_t> degrees;
  NX_RETURN_NOT_OK(
      LoadDegrees(env_, dir_, num_vertices(), nullptr, &degrees));
  return degrees;
}

uint64_t GraphStore::TotalSubShardBytes(bool transpose) const {
  uint64_t total = 0;
  const auto& table =
      transpose ? manifest_.subshards_transpose : manifest_.subshards;
  for (const auto& meta : table) total += meta.size;
  return total;
}

SubShardCache::SubShardCache(std::shared_ptr<const GraphStore> store,
                             uint64_t budget_bytes, bool evictable)
    : store_(std::move(store)),
      budget_bytes_(budget_bytes),
      evictable_(evictable) {}

uint64_t SubShardCache::bytes_cached() const {
  std::lock_guard<std::mutex> lock(mu_);
  return bytes_cached_;
}

uint64_t SubShardCache::bytes_loaded_from_disk() const {
  std::lock_guard<std::mutex> lock(mu_);
  return bytes_loaded_;
}

SubShardCache::Counters SubShardCache::counters() const {
  std::lock_guard<std::mutex> lock(mu_);
  return counters_;
}

uint64_t SubShardCache::KeyOf(uint32_t i, uint32_t j, bool transpose) const {
  const uint64_t p = store_->num_intervals();
  return ((transpose ? p : 0) + i) * p + j;
}

bool SubShardCache::Contains(uint32_t i, uint32_t j, bool transpose) const {
  const uint64_t key = KeyOf(i, j, transpose);
  std::lock_guard<std::mutex> lock(mu_);
  return cache_.find(key) != cache_.end();
}

uint64_t SubShardCache::pinned_entries() const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t pins = 0;
  for (const auto& [key, entry] : cache_) pins += entry.pins;
  return pins;
}

void SubShardCache::Pin::Release() {
  if (cache_ != nullptr) {
    cache_->Unpin(key_);
    cache_ = nullptr;
  }
}

void SubShardCache::Unpin(uint64_t key) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = cache_.find(key);
  // A pinned entry cannot be evicted and Clear skips pinned entries, so
  // the entry is present for as long as any pin on it lives.
  if (it != cache_.end() && it->second.pins > 0) --it->second.pins;
}

void SubShardCache::UnlinkLocked(Entry* e) {
  (e->colder != nullptr ? e->colder->warmer : coldest_) = e->warmer;
  (e->warmer != nullptr ? e->warmer->colder : hottest_) = e->colder;
  e->colder = e->warmer = nullptr;
}

void SubShardCache::TouchLocked(Entry* e) {
  if (e == hottest_) return;
  if (e->warmer != nullptr) UnlinkLocked(e);  // else not yet linked
  e->colder = hottest_;
  (hottest_ != nullptr ? hottest_->warmer : coldest_) = e;
  hottest_ = e;
}

SubShardCache::Pin SubShardCache::PinLocked(Entry* e) {
  TouchLocked(e);
  ++e->pins;
  return Pin(this, e->key, e->subshard);
}

bool SubShardCache::MakeRoomLocked(uint64_t bytes) {
  if (bytes_cached_ + bytes <= budget_bytes_) return true;
  if (!evictable_) return false;
  // Evicting an entry leaves the order of the rest unchanged, so one walk
  // from the cold end visits the victims in least-recently-used order.
  for (Entry* e = coldest_;
       e != nullptr && bytes_cached_ + bytes > budget_bytes_;) {
    Entry* victim = e;
    e = e->warmer;
    if (victim->pins > 0) continue;
    const uint64_t victim_bytes = victim->subshard->MemoryBytes();
    bytes_cached_ -= victim_bytes;
    counters_.evicted_bytes += victim_bytes;
    ++counters_.evictions;
    UnlinkLocked(victim);
    cache_.erase(victim->key);
  }
  // Still over budget: everything left is pinned.
  return bytes_cached_ + bytes <= budget_bytes_;
}

bool SubShardCache::InsertAndMaybePinLocked(
    uint64_t key, const std::shared_ptr<const SubShard>& ss, bool pin) {
  auto it = cache_.find(key);
  if (it == cache_.end()) {
    const uint64_t bytes = ss->MemoryBytes();
    if (!MakeRoomLocked(bytes)) return false;
    it = cache_.emplace(key, Entry{ss, key}).first;
    bytes_cached_ += bytes;
    counters_.inserted_bytes += bytes;
  }
  TouchLocked(&it->second);
  if (pin) ++it->second.pins;
  return true;
}

Result<std::shared_ptr<const SubShard>> SubShardCache::Get(
    uint32_t i, uint32_t j, bool transpose, const CancelToken* cancel) {
  return GetImpl(i, j, transpose, /*pin=*/false, nullptr, cancel);
}

Result<SubShardCache::Pin> SubShardCache::GetPinned(uint32_t i, uint32_t j,
                                                    bool transpose,
                                                    const CancelToken* cancel) {
  Pin pin;
  auto ss = GetImpl(i, j, transpose, /*pin=*/true, &pin, cancel);
  if (!ss.ok()) return ss.status();
  if (!pin.pinned()) {
    // The load could not be (or stay) cached: hand the data back as a
    // transient copy with no eviction pin attached.
    return Pin(nullptr, 0, std::move(*ss));
  }
  return pin;
}

Result<std::shared_ptr<const SubShard>> SubShardCache::GetImpl(
    uint32_t i, uint32_t j, bool transpose, bool pin, Pin* out_pin,
    const CancelToken* cancel) {
  // Checked before mu_ (cancelled() may lazily fire deadline callbacks,
  // which must never run under the cache lock). A cancelled Get is counted
  // as neither hit nor miss.
  if (cancel != nullptr && cancel->cancelled()) return cancel->ToStatus();
  const uint64_t key = KeyOf(i, j, transpose);
  std::shared_ptr<InFlight> flight;
  bool leader = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = cache_.find(key);
    if (it != cache_.end()) {
      ++counters_.hits;
      if (pin) {
        *out_pin = PinLocked(&it->second);
      } else {
        TouchLocked(&it->second);
      }
      return it->second.subshard;
    }
    ++counters_.misses;
    auto [fit, inserted] = inflight_.try_emplace(key);
    if (inserted) {
      fit->second = std::make_shared<InFlight>();
      leader = true;
    }
    flight = fit->second;
  }

  if (!leader) {
    // Another thread is already reading this blob; share its load instead
    // of issuing a duplicate read and discarding one copy. A token-bearing
    // follower detaches the moment its token fires — the leader's load
    // continues untouched and still publishes for everyone else.
    uint64_t cb_id = 0;
    if (cancel != nullptr) {
      // Lock-then-notify so the wake cannot slip between a waiter's
      // predicate check and its block. The callback only touches `flight`
      // (kept alive by the capture), so a post-Remove straggler fire is
      // harmless.
      cb_id = cancel->AddCallback([flight] {
        { std::lock_guard<std::mutex> lock(flight->mu); }
        flight->cv.notify_all();
      });
    }
    std::shared_ptr<const SubShard> ss;
    bool detached = false;
    {
      std::unique_lock<std::mutex> lock(flight->mu);
      for (;;) {
        if (flight->done) break;
        if (cancel != nullptr) {
          // cancelled() may lazily fire the deadline (running callbacks,
          // including ours) — call it with flight->mu released.
          lock.unlock();
          const bool fired = cancel->cancelled();
          lock.lock();
          if (flight->done) break;
          if (fired) {
            detached = true;
            break;
          }
          if (cancel->has_deadline()) {
            flight->cv.wait_until(lock, cancel->deadline());
          } else {
            flight->cv.wait(lock);
          }
        } else {
          flight->cv.wait(lock);
        }
      }
    }
    if (cancel != nullptr) cancel->RemoveCallback(cb_id);
    if (detached) return cancel->ToStatus();
    {
      std::lock_guard<std::mutex> lock(flight->mu);
      if (!flight->status.ok()) return flight->status;
      ss = flight->subshard;
    }
    if (pin) {
      // Re-pin against whatever the leader left in the map. The entry may
      // already be gone (evicted, or never inserted) — then the shared
      // load is handed over as a transient copy.
      std::lock_guard<std::mutex> lock(mu_);
      auto it = cache_.find(key);
      if (it != cache_.end()) *out_pin = PinLocked(&it->second);
    }
    return ss;
  }

  // Leader path: disk I/O and decode run without holding mu_.
  auto loaded = store_->LoadSubShard(i, j, transpose);
  std::shared_ptr<const SubShard> ss;
  Status status;
  if (loaded.ok()) {
    ss = std::make_shared<const SubShard>(std::move(loaded).value());
  } else {
    status = loaded.status();
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    inflight_.erase(key);
    if (ss != nullptr) {
      bytes_loaded_ += ss->MemoryBytes();
      // A warm-up Put may have landed this key while the load was in
      // flight; InsertAndMaybePinLocked only accounts an insert that
      // actually happened (and pins the resident entry either way).
      if (InsertAndMaybePinLocked(key, ss, pin) && pin) {
        *out_pin = Pin(this, key, ss);
      }
    }
  }
  {
    std::lock_guard<std::mutex> lock(flight->mu);
    flight->status = status;
    flight->subshard = ss;
    flight->done = true;
  }
  flight->cv.notify_all();
  if (!status.ok()) return status;
  return ss;
}

std::optional<SubShardCache::Pin> SubShardCache::TryPin(uint32_t i,
                                                        uint32_t j,
                                                        bool transpose) {
  const uint64_t key = KeyOf(i, j, transpose);
  std::lock_guard<std::mutex> lock(mu_);
  auto it = cache_.find(key);
  if (it == cache_.end()) return std::nullopt;
  ++counters_.hits;
  return PinLocked(&it->second);
}

void SubShardCache::Put(uint32_t i, uint32_t j, bool transpose,
                        std::shared_ptr<const SubShard> subshard) {
  const uint64_t key = KeyOf(i, j, transpose);
  std::lock_guard<std::mutex> lock(mu_);
  if (cache_.find(key) != cache_.end()) return;
  InsertAndMaybePinLocked(key, subshard, /*pin=*/false);
}

void SubShardCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto it = cache_.begin(); it != cache_.end();) {
    if (it->second.pins > 0) {
      ++it;
      continue;
    }
    bytes_cached_ -= it->second.subshard->MemoryBytes();
    UnlinkLocked(&it->second);
    it = cache_.erase(it);
  }
}

}  // namespace nxgraph
