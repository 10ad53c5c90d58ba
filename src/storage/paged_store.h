#ifndef BANKS_STORAGE_PAGED_STORE_H_
#define BANKS_STORAGE_PAGED_STORE_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "relational/graph_builder.h"
#include "storage/buffer_pool.h"

namespace banks {

/// Physical page-assignment order for adjacency runs (docs/STORAGE.md).
enum class PageLayout : uint8_t {
  /// Runs packed in NodeId order — the naive baseline.
  kNodeOrder = 0,
  /// Runs packed in the settle order of a multi-source Dijkstra sweep
  /// seeded from the nodes in descending prestige (PageRank), using the
  /// same edge weights the searches expand by. The hub-dense region
  /// every activation-directed expansion revisits shares the leading
  /// pages, and nodes an expansion touches back-to-back (equidistant
  /// from the hubs) share pages. Byte-identical results either way:
  /// only the physical placement changes, never the logical CSR order.
  kClustered = 1,
};

struct PagedStoreOptions {
  /// Target page size in bytes. Runs never span pages; a run larger
  /// than this gets a dedicated oversized page.
  uint32_t page_size = 16u << 10;
  /// Adjacency runs of at most this many bytes stay in the resident
  /// skeleton (kInlinePage refs) instead of being paged. A short run
  /// costs less to keep in RAM than the per-node run locator that
  /// points at it, while paging it would spend a pin — and a possible
  /// fault — to read a few dozen bytes. Paging only the heavy hub runs
  /// is also what keeps the buffer pool's working set small: the long
  /// tail of one-touch accesses that would otherwise cycle the pool
  /// never reaches it. 0 pages every run. Posting lists are always
  /// paged regardless (they are read once per query, not per node).
  uint32_t inline_run_bytes = 256;
  PageLayout layout = PageLayout::kClustered;
};

struct PagedOpenOptions {
  /// Buffer pool budget for resident pages (see BufferPoolOptions).
  size_t pool_bytes = 4u << 20;
};

class PagedStore;

/// Result of PagedStore::Open: a DataGraph whose Graph adjacency and
/// InvertedIndex postings read through the store's buffer pool. The
/// graph and index share ownership of the store; `store` is a
/// convenience handle for pool stats.
struct PagedData {
  DataGraph data;
  std::shared_ptr<PagedStore> store;
};

/// One paged on-disk data graph: serialized resident skeleton (CSR
/// offsets, per-node scalars, term/relation tables, labels, prestige)
/// plus fixed-size pages holding the adjacency and posting runs, read
/// on demand through an embedded BufferPool. Format in docs/STORAGE.md.
class PagedStore : public PageSource {
 public:
  /// Serializes `dg` (which must be resident) into a paged file.
  /// `prestige` orders the kClustered layout and is stored in the file
  /// so opening never needs a PageRank pass over paged adjacency; pass
  /// empty to skip both (clustered falls back to node order).
  static bool Save(const DataGraph& dg, const std::vector<double>& prestige,
                   const std::string& path,
                   const PagedStoreOptions& options = {});

  static std::optional<PagedData> Open(const std::string& path,
                                       const PagedOpenOptions& options = {});

  ~PagedStore() override;
  PagedStore(const PagedStore&) = delete;
  PagedStore& operator=(const PagedStore&) = delete;

  BufferPool& pool() const { return *pool_; }
  uint32_t page_size() const { return page_size_; }
  PageLayout layout() const { return layout_; }
  /// Prestige scores stored at Save time (empty if none were given).
  const std::vector<double>& prestige() const { return prestige_; }
  /// Total bytes across all pages — the paged "working set ceiling"
  /// benchmarks size pools against.
  size_t DataBytes() const;

  // PageSource:
  size_t NumPages() const override { return page_lengths_.size(); }
  uint32_t PageLength(PageId page) const override {
    return page_lengths_[page];
  }
  bool ReadPage(PageId page, std::byte* out) const override;

 private:
  PagedStore() = default;

  int fd_ = -1;
  uint32_t page_size_ = 0;
  PageLayout layout_ = PageLayout::kNodeOrder;
  uint64_t data_start_ = 0;            // file offset of the first page
  std::vector<uint64_t> page_offsets_;  // per page, relative to data_start_
  std::vector<uint32_t> page_lengths_;
  std::vector<double> prestige_;
  std::unique_ptr<BufferPool> pool_;
};

}  // namespace banks

#endif  // BANKS_STORAGE_PAGED_STORE_H_
