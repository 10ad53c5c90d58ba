#include "storage/buffer_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace banks {
namespace {

/// In-memory page source with a deterministic per-page byte pattern, so
/// tests can verify a pinned frame holds the right page's bytes.
class FakeSource : public PageSource {
 public:
  FakeSource(size_t num_pages, uint32_t page_len)
      : pages_(num_pages, std::vector<std::byte>(page_len)) {
    for (size_t p = 0; p < num_pages; ++p) {
      for (size_t i = 0; i < page_len; ++i) {
        pages_[p][i] = ExpectedByte(static_cast<PageId>(p), i);
      }
    }
  }

  static std::byte ExpectedByte(PageId page, size_t i) {
    return static_cast<std::byte>((page * 31 + i * 7 + 5) & 0xFF);
  }

  size_t NumPages() const override { return pages_.size(); }
  uint32_t PageLength(PageId page) const override {
    return static_cast<uint32_t>(pages_[page].size());
  }
  bool ReadPage(PageId page, std::byte* out) const override {
    reads_.fetch_add(1, std::memory_order_relaxed);
    if (fail_reads_.load(std::memory_order_relaxed) > 0) {
      fail_reads_.fetch_sub(1, std::memory_order_relaxed);
      return false;
    }
    std::memcpy(out, pages_[page].data(), pages_[page].size());
    return true;
  }
  int reads() const { return reads_.load(std::memory_order_relaxed); }
  /// The next `n` reads fail (IO-error injection).
  void FailNextReads(int n) {
    fail_reads_.store(n, std::memory_order_relaxed);
  }

 private:
  std::vector<std::vector<std::byte>> pages_;
  mutable std::atomic<int> reads_{0};
  mutable std::atomic<int> fail_reads_{0};
};

void ExpectPageBytes(const PagePin& pin) {
  ASSERT_NE(pin.data(), nullptr);
  for (size_t i = 0; i < 16; ++i) {
    ASSERT_EQ(pin.data()[i], FakeSource::ExpectedByte(pin.page(), i))
        << "page " << pin.page() << " byte " << i;
  }
}

/// Listener recording the OnFetchQueued / OnPageReady protocol.
class CountingListener : public PageFetchListener {
 public:
  void OnFetchQueued(PageId) override {
    queued_.fetch_add(1, std::memory_order_relaxed);
  }
  void OnPageReady(PageId page) override {
    std::lock_guard<std::mutex> lock(mu_);
    ready_.push_back(page);
    cv_.notify_all();
  }

  /// Blocks until `count` OnPageReady calls landed (5s safety net).
  bool WaitForReady(size_t count) {
    std::unique_lock<std::mutex> lock(mu_);
    return cv_.wait_for(lock, std::chrono::seconds(5),
                        [&] { return ready_.size() >= count; });
  }
  std::vector<PageId> ready() const {
    std::lock_guard<std::mutex> lock(mu_);
    return ready_;
  }
  int queued() const { return queued_.load(std::memory_order_relaxed); }

 private:
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::vector<PageId> ready_;
  std::atomic<int> queued_{0};
};

constexpr uint32_t kPageLen = 256;

BufferPoolOptions PoolOf(size_t pages) {
  BufferPoolOptions o;
  o.capacity_bytes = pages * kPageLen;
  return o;
}

TEST(BufferPool, PinLoadsAndSecondPinHits) {
  FakeSource src(4, kPageLen);
  BufferPool pool(&src, PoolOf(4));
  {
    PagePin pin;
    pool.Pin(0, &pin);
    EXPECT_FALSE(pin.hit());
    ExpectPageBytes(pin);
  }
  {
    PagePin pin;
    pool.Pin(0, &pin);
    EXPECT_TRUE(pin.hit());
    ExpectPageBytes(pin);
  }
  BufferPoolStats s = pool.stats();
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.evictions, 0u);
  EXPECT_EQ(src.reads(), 1);
}

TEST(BufferPool, PinCountBlocksEvictionAndForcesOvershoot) {
  FakeSource src(4, kPageLen);
  BufferPool pool(&src, PoolOf(1));
  PagePin a;
  pool.Pin(0, &a);
  // Page 0 is pinned and the pool holds one page: loading page 1 cannot
  // evict, so the pool overshoots its budget rather than deadlock.
  PagePin b;
  pool.Pin(1, &b);
  ExpectPageBytes(a);  // pinned frame must remain intact
  ExpectPageBytes(b);
  BufferPoolStats s = pool.stats();
  EXPECT_GE(s.capacity_overshoots, 1u);
  EXPECT_EQ(s.resident_pages, 2u);
  EXPECT_EQ(s.pinned_pages, 2u);
  a.Reset();
  b.Reset();
  // With pins gone, the next load can evict back under budget.
  PagePin c;
  pool.Pin(2, &c);
  EXPECT_GE(pool.stats().evictions, 1u);
}

TEST(BufferPool, PinCountPerFrameIsCorrect) {
  FakeSource src(2, kPageLen);
  BufferPool pool(&src, PoolOf(2));
  PagePin p1, p2;
  pool.Pin(0, &p1);
  pool.Pin(0, &p2);
  EXPECT_EQ(pool.stats().pinned_pages, 1u);  // one frame, two pins
  p1.Reset();
  EXPECT_EQ(pool.stats().pinned_pages, 1u);  // still held by p2
  p2.Reset();
  EXPECT_EQ(pool.stats().pinned_pages, 0u);
}

TEST(BufferPool, MovedPinTransfersOwnership) {
  FakeSource src(2, kPageLen);
  BufferPool pool(&src, PoolOf(2));
  PagePin a;
  pool.Pin(0, &a);
  PagePin b = std::move(a);
  EXPECT_TRUE(a.empty());
  EXPECT_FALSE(b.empty());
  EXPECT_EQ(pool.stats().pinned_pages, 1u);
  b.Reset();
  EXPECT_EQ(pool.stats().pinned_pages, 0u);
}

TEST(BufferPool, LRUEvictsLeastRecentlyPinned) {
  FakeSource src(4, kPageLen);
  BufferPool pool(&src, PoolOf(2));
  {
    PagePin pin;
    pool.Pin(0, &pin);
  }
  {
    PagePin pin;
    pool.Pin(1, &pin);
  }
  {
    PagePin pin;  // touch page 0: page 1 becomes the LRU victim
    pool.Pin(0, &pin);
  }
  {
    PagePin pin;
    pool.Pin(2, &pin);
  }
  EXPECT_TRUE(pool.Resident(0));
  EXPECT_FALSE(pool.Resident(1));
  EXPECT_TRUE(pool.Resident(2));
  EXPECT_EQ(pool.stats().evictions, 1u);
}

TEST(BufferPool, NoDirtyPagesEverAndEvictionNeverWritesBack) {
  FakeSource src(8, kPageLen);
  BufferPool pool(&src, PoolOf(2));
  for (int round = 0; round < 3; ++round) {
    for (PageId p = 0; p < 8; ++p) {
      PagePin pin;
      pool.Pin(p, &pin);
      ExpectPageBytes(pin);
      EXPECT_EQ(pool.stats().dirty_pages, 0u);
    }
  }
  BufferPoolStats s = pool.stats();
  EXPECT_EQ(s.dirty_pages, 0u);
  EXPECT_GT(s.evictions, 0u);
  // Evicted-and-reloaded pages still carry the source's bytes (nothing
  // was "lost" by dropping a clean frame).
  PagePin pin;
  pool.Pin(0, &pin);
  ExpectPageBytes(pin);
}

TEST(BufferPool, RequestFetchAsyncExactlyOneReadyPerQueued) {
  FakeSource src(4, kPageLen);
  BufferPool pool(&src, PoolOf(4));
  auto listener = std::make_shared<CountingListener>();
  ASSERT_FALSE(pool.Resident(2));
  pool.RequestFetch(2, listener);
  ASSERT_TRUE(listener->WaitForReady(1));
  EXPECT_EQ(listener->ready().size(), 1u);
  EXPECT_EQ(listener->ready()[0], 2u);
  EXPECT_TRUE(pool.Resident(2));
  EXPECT_EQ(pool.stats().fetch_requests, 1u);
  // The async load counts as a fetch, and a later Pin is a hit.
  PagePin pin;
  pool.Pin(2, &pin);
  EXPECT_TRUE(pin.hit());
}

TEST(BufferPool, RequestFetchResidentFiresInline) {
  FakeSource src(4, kPageLen);
  BufferPool pool(&src, PoolOf(4));
  {
    PagePin pin;
    pool.Pin(1, &pin);
  }
  auto listener = std::make_shared<CountingListener>();
  pool.RequestFetch(1, listener);
  // Inline completion: ready before any wait.
  EXPECT_EQ(listener->ready().size(), 1u);
  EXPECT_EQ(listener->ready()[0], 1u);
}

TEST(BufferPool, DuplicateFetchRequestsEachGetOneReady) {
  FakeSource src(4, kPageLen);
  BufferPool pool(&src, PoolOf(4));
  auto l1 = std::make_shared<CountingListener>();
  auto l2 = std::make_shared<CountingListener>();
  pool.RequestFetch(3, l1);
  pool.RequestFetch(3, l2);  // attaches to the in-flight load
  ASSERT_TRUE(l1->WaitForReady(1));
  ASSERT_TRUE(l2->WaitForReady(1));
  EXPECT_EQ(l1->ready().size(), 1u);
  EXPECT_EQ(l2->ready().size(), 1u);
}

TEST(BufferPool, PathologicallySmallPoolStaysCorrect) {
  FakeSource src(8, kPageLen);
  BufferPoolOptions tiny;
  tiny.capacity_bytes = 1;  // smaller than any single page
  BufferPool pool(&src, tiny);
  for (int round = 0; round < 2; ++round) {
    for (PageId p = 0; p < 8; ++p) {
      PagePin pin;
      pool.Pin(p, &pin);
      ExpectPageBytes(pin);
    }
  }
  BufferPoolStats s = pool.stats();
  EXPECT_EQ(s.hits, 0u);  // nothing ever fits to stay resident
  EXPECT_EQ(s.misses, 16u);
  EXPECT_EQ(s.dirty_pages, 0u);
}

TEST(BufferPool, FailedReadFailsPinAndRetrySucceeds) {
  FakeSource src(4, kPageLen);
  BufferPool pool(&src, PoolOf(4));
  src.FailNextReads(1);
  {
    PagePin pin;
    const std::byte* data = pool.Pin(0, &pin);
    EXPECT_EQ(data, nullptr);
    EXPECT_TRUE(pin.failed());
    EXPECT_TRUE(pin.empty());  // no frame held — destruction is a no-op
    EXPECT_EQ(pin.data(), nullptr);
  }
  BufferPoolStats s = pool.stats();
  EXPECT_EQ(s.io_errors, 1u);
  EXPECT_EQ(s.resident_pages, 0u);  // the failed frame was reclaimed
  EXPECT_FALSE(pool.Resident(0));
  // The failed page left the table, so a retry reads fresh and succeeds
  // (transient errors recover).
  PagePin pin;
  ASSERT_NE(pool.Pin(0, &pin), nullptr);
  EXPECT_FALSE(pin.failed());
  ExpectPageBytes(pin);
  EXPECT_EQ(pool.stats().io_errors, 1u);
}

TEST(BufferPool, FailedAsyncFetchStillFiresReadyAndCounts) {
  FakeSource src(4, kPageLen);
  BufferPool pool(&src, PoolOf(4));
  auto listener = std::make_shared<CountingListener>();
  src.FailNextReads(1);
  pool.RequestFetch(2, listener);
  // The protocol owes exactly one OnPageReady per OnFetchQueued even
  // when the read fails; the requeued task's next pin sees the error.
  ASSERT_TRUE(listener->WaitForReady(1));
  EXPECT_EQ(listener->ready().size(), 1u);
  EXPECT_EQ(pool.stats().io_errors, 1u);
  EXPECT_FALSE(pool.Resident(2));
}

TEST(BufferPool, ConcurrentPinsOnFailedLoadAllFail) {
  FakeSource src(2, kPageLen);
  BufferPool pool(&src, PoolOf(2));
  src.FailNextReads(1);
  constexpr int kThreads = 4;
  std::atomic<int> failed{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      PagePin pin;
      const std::byte* data = pool.Pin(1, &pin);
      if (data == nullptr && pin.failed()) {
        failed.fetch_add(1, std::memory_order_relaxed);
      } else {
        ExpectPageBytes(pin);
      }
    });
  }
  for (auto& th : threads) th.join();
  // Exactly one read failed; every pin attached to that load failed with
  // it, and any pin that arrived after the retry got good bytes.
  EXPECT_GE(failed.load(), 1);
  EXPECT_EQ(pool.stats().io_errors, 1u);
  PagePin pin;
  ASSERT_NE(pool.Pin(1, &pin), nullptr);
  ExpectPageBytes(pin);
}

TEST(BufferPool, StatsGaugesTrackResidency) {
  FakeSource src(4, kPageLen);
  BufferPool pool(&src, PoolOf(4));
  PagePin a, b;
  pool.Pin(0, &a);
  pool.Pin(1, &b);
  BufferPoolStats s = pool.stats();
  EXPECT_EQ(s.resident_pages, 2u);
  EXPECT_EQ(s.resident_bytes, 2u * kPageLen);
  EXPECT_EQ(s.pinned_pages, 2u);
  a.Reset();
  s = pool.stats();
  EXPECT_EQ(s.resident_pages, 2u);  // unpinned but still cached
  EXPECT_EQ(s.pinned_pages, 1u);
}

}  // namespace
}  // namespace banks
