#include "storage/buffer_pool.h"

#include <cassert>
#include <limits>
#include <utility>

namespace banks {

PagePin& PagePin::operator=(PagePin&& o) noexcept {
  if (this != &o) {
    Reset();
    pool_ = o.pool_;
    frame_ = o.frame_;
    page_ = o.page_;
    data_ = o.data_;
    hit_ = o.hit_;
    failed_ = o.failed_;
    o.pool_ = nullptr;
    o.data_ = nullptr;
    o.failed_ = false;
  }
  return *this;
}

void PagePin::Reset() {
  if (pool_ != nullptr) pool_->Unpin(frame_);
  pool_ = nullptr;
  data_ = nullptr;
  failed_ = false;
}

BufferPool::BufferPool(const PageSource* source,
                       const BufferPoolOptions& options)
    : source_(source), options_(options) {}

BufferPool::~BufferPool() {
  // All pins must be gone before the pool dies; a live PagePin would
  // dangle.
  for ([[maybe_unused]] const Frame& f : frames_) {
    assert(f.pins == 0 && !f.dirty);
  }
}

size_t BufferPool::AcquireFrameLocked(size_t bytes) {
  // Make room: evict unpinned resident pages in LRU order until the
  // new page fits, or nothing evictable remains. Pools are small (tens
  // to hundreds of frames), so a linear stamp scan beats maintaining an
  // intrusive list.
  while (resident_bytes_ + bytes > options_.capacity_bytes) {
    size_t victim = frames_.size();
    uint64_t best = std::numeric_limits<uint64_t>::max();
    for (size_t i = 0; i < frames_.size(); ++i) {
      const Frame& f = frames_[i];
      if (f.data.empty() || f.pins > 0 || f.loading) continue;
      if (f.stamp < best) {
        best = f.stamp;
        victim = i;
      }
    }
    if (victim == frames_.size()) {
      // Everything resident is pinned or loading: overshoot the budget
      // instead of deadlocking. This is what keeps a pathologically
      // small pool correct (just slow).
      ++counters_.capacity_overshoots;
      break;
    }
    Frame& v = frames_[victim];
    assert(!v.dirty);  // read-only store: eviction never writes back
    table_.erase(v.page);
    FreeFrameLocked(victim);
    ++counters_.evictions;
  }

  size_t idx;
  if (!free_frames_.empty()) {
    idx = free_frames_.back();
    free_frames_.pop_back();
  } else {
    idx = frames_.size();
    frames_.emplace_back();
  }
  Frame& f = frames_[idx];
  f.pins = 0;
  f.loading = false;
  f.dirty = false;
  f.failed = false;
  f.stamp = next_stamp_++;
  f.data.assign(bytes, std::byte{0});
  resident_bytes_ += bytes;
  return idx;
}

void BufferPool::FreeFrameLocked(size_t frame) {
  Frame& f = frames_[frame];
  resident_bytes_ -= f.data.size();
  std::vector<std::byte>().swap(f.data);
  f.failed = false;
  f.loading = false;
  free_frames_.push_back(frame);
}

const std::byte* BufferPool::Pin(PageId page, PagePin* pin) {
  const std::byte* data = nullptr;
  bool hit = false;
  bool failed = false;
  size_t frame_idx = 0;
  {
    std::unique_lock<std::mutex> lock(mu_);
    auto it = table_.find(page);
    if (it != table_.end()) {
      frame_idx = it->second;
      Frame& f = frames_[frame_idx];
      if (f.loading) {
        // Another thread is reading this page; count a miss — the page
        // was not usable — and wait it out.
        ++counters_.misses;
        ++f.pins;  // hold the frame so the loader's result can't evict
        load_cv_.wait(lock, [&] { return !frames_[frame_idx].loading; });
      } else {
        ++counters_.hits;
        hit = true;
        ++f.pins;
      }
      Frame& loaded = frames_[frame_idx];
      if (loaded.failed) {
        // The load we waited on failed; drop our pin — the last one out
        // frees the frame (it is already out of table_, so a later Pin
        // retries the read fresh).
        failed = true;
        hit = false;
        assert(loaded.pins > 0);
        if (--loaded.pins == 0) FreeFrameLocked(frame_idx);
      } else {
        loaded.stamp = next_stamp_++;
        data = loaded.data.data();
      }
    } else {
      ++counters_.misses;
      ++counters_.fetch_requests;
      const size_t bytes = source_->PageLength(page);
      frame_idx = AcquireFrameLocked(bytes);
      std::byte* buf;
      {
        Frame& f = frames_[frame_idx];
        f.page = page;
        f.loading = true;
        f.pins = 1;
        table_[page] = frame_idx;
        buf = f.data.data();
      }
      // frames_ may reallocate while unlocked (another thread growing
      // the pool), so re-index the frame after re-locking; the heap
      // buffer itself is stable.
      lock.unlock();
      const bool ok = source_->ReadPage(page, buf);
      lock.lock();
      Frame& f = frames_[frame_idx];
      f.loading = false;
      if (!ok) {
        // Never serve fabricated bytes: fail every pin attached to this
        // load and take the page out of the table so the next Pin
        // retries (transient errors recover). Waiters that pinned
        // mid-load see `failed` when they wake; the last pin out frees
        // the frame.
        failed = true;
        f.failed = true;
        ++counters_.io_errors;
        table_.erase(page);
        if (--f.pins == 0) FreeFrameLocked(frame_idx);
      } else {
        data = f.data.data();
      }
      load_cv_.notify_all();
    }
  }
  pin->Reset();
  if (failed) {
    // No frame held: pool_ stays null so Reset/destruction is a no-op.
    pin->page_ = page;
    pin->hit_ = false;
    pin->failed_ = true;
    return nullptr;
  }
  pin->pool_ = this;
  pin->frame_ = frame_idx;
  pin->page_ = page;
  pin->data_ = data;
  pin->hit_ = hit;
  return data;
}

void BufferPool::Unpin(size_t frame) {
  std::lock_guard<std::mutex> lock(mu_);
  Frame& f = frames_[frame];
  assert(f.pins > 0);
  --f.pins;
}

BufferPoolStats BufferPool::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  BufferPoolStats s = counters_;
  for (const Frame& f : frames_) {
    if (f.data.empty()) continue;
    ++s.resident_pages;
    s.resident_bytes += f.data.size();
    if (f.pins > 0) ++s.pinned_pages;
    if (f.dirty) ++s.dirty_pages;
  }
  return s;
}

}  // namespace banks
