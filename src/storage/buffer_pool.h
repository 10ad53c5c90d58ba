#ifndef BANKS_STORAGE_BUFFER_POOL_H_
#define BANKS_STORAGE_BUFFER_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

namespace banks {

/// Dense page identifier within one paged store file.
using PageId = uint32_t;

/// Location of one CSR run (adjacency list or posting list) inside the
/// paged file: the page it lives on and its byte offset within that
/// page. A run never spans pages; runs larger than the page size get a
/// dedicated oversized page.
struct PageRunRef {
  PageId page = 0;
  uint32_t offset = 0;
};

/// Sentinel PageRunRef::page marking a run that is inlined into the
/// owner's resident skeleton instead of paged; `offset` then indexes
/// the owner's inline run array, and the buffer pool is never touched
/// (no pin, no hit/miss).
inline constexpr PageId kInlinePage = UINT32_MAX;

/// Read-only page source backing a BufferPool. ReadPage may be called
/// concurrently from the threads pinning pages, so implementations must
/// be thread-safe (the paged store uses pread).
/// ReadPage returns false when the page could not be read in full
/// (truncated or unreadable file); the pool then fails the pins waiting
/// on it instead of serving fabricated bytes.
class PageSource {
 public:
  virtual ~PageSource() = default;
  virtual size_t NumPages() const = 0;
  virtual uint32_t PageLength(PageId page) const = 0;
  virtual bool ReadPage(PageId page, std::byte* out) const = 0;
};

class BufferPool;

/// RAII pin on one page frame. While a PagePin is live the frame cannot
/// be evicted; destruction (or Reset) unpins. Movable, not copyable.
class PagePin {
 public:
  PagePin() = default;
  PagePin(const PagePin&) = delete;
  PagePin& operator=(const PagePin&) = delete;
  PagePin(PagePin&& o) noexcept { *this = std::move(o); }
  PagePin& operator=(PagePin&& o) noexcept;
  ~PagePin() { Reset(); }

  void Reset();
  bool empty() const { return pool_ == nullptr; }
  /// True when the pin found the page already resident (a pool hit).
  bool hit() const { return hit_; }
  /// True when the underlying ReadPage failed: the pin holds no frame
  /// and data() is null. Searchers surface this as SearchStatus::kIoError
  /// rather than expanding fabricated empty adjacency.
  bool failed() const { return failed_; }
  PageId page() const { return page_; }
  const std::byte* data() const { return data_; }

 private:
  friend class BufferPool;
  BufferPool* pool_ = nullptr;
  size_t frame_ = 0;
  PageId page_ = 0;
  const std::byte* data_ = nullptr;
  bool hit_ = false;
  bool failed_ = false;
};

/// Counters and gauges; Snapshot under the pool lock.
struct BufferPoolStats {
  uint64_t hits = 0;        // Pin found the page resident
  uint64_t misses = 0;      // Pin had to load (or wait for a load)
  uint64_t evictions = 0;   // resident pages dropped for room
  uint64_t fetch_requests = 0;     // ReadPage calls (one per load)
  uint64_t capacity_overshoots = 0;  // loads forced past capacity_bytes
  uint64_t io_errors = 0;  // ReadPage failures (truncated/unreadable file)
  size_t resident_pages = 0;
  size_t resident_bytes = 0;
  size_t pinned_pages = 0;
  size_t dirty_pages = 0;  // always 0: the store is read-only (asserted)
};

struct BufferPoolOptions {
  /// Target byte budget for resident pages. Not a hard ceiling: when
  /// every resident page is pinned the pool loads past the budget
  /// rather than deadlocking (counted in capacity_overshoots), so even
  /// a pathologically small pool stays correct.
  size_t capacity_bytes = 4u << 20;
};

/// Pinned buffer pool over a PageSource. Pin() is the only way to read a
/// page: a miss reads it on the calling thread, and concurrent pins of
/// the same page wait for that one read instead of issuing their own.
/// The pool starts no thread (docs/STORAGE.md, "Reads block the pinning
/// thread").
///
/// Thread-safe. Pages are read-only: frames are never dirty and
/// eviction never writes back.
class BufferPool {
 public:
  BufferPool(const PageSource* source, const BufferPoolOptions& options);
  ~BufferPool();
  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// Pins `page`, loading it if needed (blocking). Returns the frame
  /// bytes; `pin` holds the frame until released. pin->hit() says
  /// whether this call was a pool hit.
  const std::byte* Pin(PageId page, PagePin* pin);

  BufferPoolStats stats() const;
  size_t capacity_bytes() const { return options_.capacity_bytes; }

 private:
  struct Frame {
    PageId page = 0;
    std::vector<std::byte> data;
    uint32_t pins = 0;
    bool loading = false;
    bool dirty = false;  // invariant: never set (read-only store)
    // Set when the load failed. The frame is already out of table_ (a
    // later Pin retries the read fresh); it lingers only while waiters
    // that pinned mid-load drain, and the last Unpin frees it.
    bool failed = false;
    uint64_t stamp = 0;  // eviction order: the last pin (LRU)
  };

  void Unpin(size_t frame);
  // Returns the index of a free (or freshly evicted) frame with room
  // accounted for `bytes`. Requires mu_ held.
  size_t AcquireFrameLocked(size_t bytes);
  // Returns `frame` (which must be unpinned and out of table_) to the
  // free list, releasing its bytes. Requires mu_ held.
  void FreeFrameLocked(size_t frame);

  const PageSource* source_;
  const BufferPoolOptions options_;

  mutable std::mutex mu_;
  std::condition_variable load_cv_;  // signaled when a load completes
  std::unordered_map<PageId, size_t> table_;  // page -> frame index
  std::vector<Frame> frames_;
  std::vector<size_t> free_frames_;
  size_t resident_bytes_ = 0;
  uint64_t next_stamp_ = 1;
  BufferPoolStats counters_;

  friend class PagePin;
};

}  // namespace banks

#endif  // BANKS_STORAGE_BUFFER_POOL_H_
