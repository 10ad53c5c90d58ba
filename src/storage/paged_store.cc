#include "storage/paged_store.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cassert>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <fstream>
#include <limits>
#include <numeric>
#include <queue>
#include <utility>

#include "util/serialize.h"

namespace banks {
namespace {

constexpr uint64_t kPagedMagic = 0x42414E4B53503101ULL;  // "BANKSP1\x01"
constexpr uint32_t kPagedVersion = 2;

/// Greedy first-fit packer: runs are appended to the current open page
/// until it would overflow, oversized runs get a dedicated page. Pages
/// keep their creation order, which is what makes the layout (the node
/// order the caller feeds runs in) the physical clustering.
class PagePacker {
 public:
  explicit PagePacker(uint32_t page_size) : page_size_(page_size) {}

  PageRunRef Place(const void* src, size_t bytes) {
    if (bytes == 0) return {};
    const std::byte* p = static_cast<const std::byte*>(src);
    if (bytes >= page_size_) {
      pages_.emplace_back(p, p + bytes);
      return {static_cast<PageId>(pages_.size() - 1), 0};
    }
    if (cur_ == SIZE_MAX || pages_[cur_].size() + bytes > page_size_) {
      pages_.emplace_back();
      pages_.back().reserve(page_size_);
      cur_ = pages_.size() - 1;
    }
    PageRunRef ref{static_cast<PageId>(cur_),
                   static_cast<uint32_t>(pages_[cur_].size())};
    pages_[cur_].insert(pages_[cur_].end(), p, p + bytes);
    return ref;
  }

  const std::vector<std::vector<std::byte>>& pages() const { return pages_; }

 private:
  uint32_t page_size_;
  std::vector<std::vector<std::byte>> pages_;
  size_t cur_ = SIZE_MAX;
};

void WriteRunRef(std::ostream& os, PageRunRef ref) {
  WritePod<uint32_t>(os, ref.page);
  WritePod<uint32_t>(os, ref.offset);
}

bool ReadRunRef(std::istream& is, PageRunRef* ref) {
  return ReadPod(is, &ref->page) && ReadPod(is, &ref->offset);
}

}  // namespace

bool PagedStore::Save(const DataGraph& dg, const std::vector<double>& prestige,
                      const std::string& path,
                      const PagedStoreOptions& options) {
  const Graph& g = dg.graph;
  const InvertedIndex& ix = dg.index;
  assert(!g.paged() && !ix.paged());
  assert(prestige.empty() || prestige.size() == g.num_nodes());
  const size_t n = g.num_nodes();

  // Runs of at most inline_run_bytes stay resident (kInlinePage refs
  // into an Edge array the loader keeps in the Graph); only heavier
  // runs are paged, so the layout below only decides where heavy runs
  // land.
  const size_t inline_cap = options.inline_run_bytes;

  // Physical node order. The clustered layout is the Dijkstra settle
  // order of a multi-source shortest-path sweep seeded from the nodes in
  // descending prestige. Distance uses the same edge weights the
  // searchers expand by, so settle order is exactly the order an
  // activation wavefront radiating from a high-prestige region reaches
  // nodes: the hub-dense core every expansion revisits heads the file,
  // and nodes a search touches back-to-back (equidistant from the hubs
  // it is expanding around) sit in adjacent pages. A plain BFS
  // approximates this but hop count is a poor proxy for weighted
  // distance here — backward edges into hubs carry log-indegree weights,
  // so one hop can cross the whole activation scale; replayed access
  // traces showed the weighted sweep consistently out-hitting both BFS
  // and raw prestige order.
  std::vector<NodeId> order(n);
  std::iota(order.begin(), order.end(), NodeId{0});
  if (options.layout == PageLayout::kClustered && !prestige.empty()) {
    std::vector<NodeId> by_prestige = order;
    std::stable_sort(by_prestige.begin(), by_prestige.end(),
                     [&](NodeId a, NodeId b) {
                       if (prestige[a] != prestige[b]) {
                         return prestige[a] > prestige[b];
                       }
                       return a < b;
                     });
    order.clear();
    std::vector<double> dist(n, std::numeric_limits<double>::infinity());
    std::vector<char> settled(n, 0);
    using QueueEntry = std::pair<double, NodeId>;
    std::priority_queue<QueueEntry, std::vector<QueueEntry>,
                        std::greater<QueueEntry>>
        frontier;
    for (NodeId s : by_prestige) {
      // Each still-unreached prestige rank opens a new component (or a
      // region the previous sweeps priced out); distance restarts at 0.
      if (settled[s]) continue;
      if (std::isinf(dist[s])) {
        dist[s] = 0;
        frontier.push({0, s});
      }
      while (!frontier.empty()) {
        const auto [d, v] = frontier.top();
        frontier.pop();
        if (settled[v]) continue;
        settled[v] = 1;
        order.push_back(v);
        const auto relax = [&](const Edge& e) {
          const double nd = d + e.weight;
          if (nd < dist[e.other]) {
            dist[e.other] = nd;
            frontier.push({nd, e.other});
          }
        };
        for (size_t i = g.out_offsets_[v]; i < g.out_offsets_[v + 1]; ++i) {
          relax(g.out_edges_[i]);
        }
        for (size_t i = g.in_offsets_[v]; i < g.in_offsets_[v + 1]; ++i) {
          relax(g.in_edges_[i]);
        }
      }
    }
  }

  // Pack adjacency runs: a node's out-run and in-run ride together —
  // bidirectional search touches both directions of the same frontier
  // node, so co-locating them halves its page working set.
  PagePacker packer(options.page_size);
  std::vector<Edge> inline_edges;
  auto place_run = [&](const Edge* src, size_t count) -> PageRunRef {
    const size_t bytes = count * sizeof(Edge);
    if (bytes == 0) return {};
    if (bytes <= inline_cap) {
      PageRunRef ref{kInlinePage, static_cast<uint32_t>(inline_edges.size())};
      inline_edges.insert(inline_edges.end(), src, src + count);
      return ref;
    }
    return packer.Place(src, bytes);
  };
  std::vector<PageRunRef> out_runs(n), in_runs(n);
  for (NodeId v : order) {
    out_runs[v] = place_run(g.out_edges_.data() + g.out_offsets_[v],
                            g.out_offsets_[v + 1] - g.out_offsets_[v]);
    in_runs[v] = place_run(g.in_edges_.data() + g.in_offsets_[v],
                           g.in_offsets_[v + 1] - g.in_offsets_[v]);
  }

  // Posting lists, packed in sorted-term order (the deterministic
  // enumeration the loader re-reads them in).
  const auto terms = ix.SortedTerms();
  std::vector<std::pair<PageRunRef, uint64_t>> posting_runs(terms.size());
  for (size_t i = 0; i < terms.size(); ++i) {
    std::span<const NodeId> list = ix.PostingsById(terms[i].second);
    posting_runs[i] = {packer.Place(list.data(), list.size() * sizeof(NodeId)),
                       list.size()};
  }

  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  if (!os) return false;
  WritePod(os, kPagedMagic);
  WritePod(os, kPagedVersion);
  WritePod<uint32_t>(os, options.page_size);
  WritePod<uint8_t>(os, static_cast<uint8_t>(options.layout));
  WritePod<uint64_t>(os, n);
  WritePod<uint64_t>(os, g.num_edges());
  WritePod<double>(os, g.MinEdgeWeight());

  // Resident skeleton: CSR offsets and per-node scalar pools.
  for (size_t off : g.out_offsets_) WritePod<uint64_t>(os, off);
  for (size_t off : g.in_offsets_) WritePod<uint64_t>(os, off);
  for (uint32_t d : g.fwd_indegree_) WritePod(os, d);
  for (double s : g.in_inv_weight_sum_) WritePod(os, s);
  for (double s : g.out_inv_weight_sum_) WritePod(os, s);

  WritePod<uint8_t>(os, g.node_types_.empty() ? 0 : 1);
  for (NodeType t : g.node_types_) WritePod<uint16_t>(os, t);
  WritePod<uint32_t>(os, static_cast<uint32_t>(g.type_names_.size()));
  for (const std::string& name : g.type_names_) WriteString(os, name);

  WritePod<uint8_t>(os, prestige.empty() ? 0 : 1);
  for (double p : prestige) WritePod(os, p);

  // Resident short-run pool (kInlinePage refs index into it).
  WritePod<uint64_t>(os, inline_edges.size());
  os.write(reinterpret_cast<const char*>(inline_edges.data()),
           static_cast<std::streamsize>(inline_edges.size() * sizeof(Edge)));

  for (PageRunRef ref : out_runs) WriteRunRef(os, ref);
  for (PageRunRef ref : in_runs) WriteRunRef(os, ref);

  // Index tables (terms and relations resident; postings paged).
  WritePod<uint64_t>(os, terms.size());
  for (size_t i = 0; i < terms.size(); ++i) {
    WriteString(os, terms[i].first);
    WritePod<uint64_t>(os, posting_runs[i].second);
    WriteRunRef(os, posting_runs[i].first);
  }
  const auto& relations = ix.relations();
  std::vector<std::pair<std::string, InvertedIndex::RelationRange>> rels(
      relations.begin(), relations.end());
  std::sort(rels.begin(), rels.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  WritePod<uint64_t>(os, rels.size());
  for (const auto& [name, range] : rels) {
    WriteString(os, name);
    WritePod<uint32_t>(os, range.first);
    WritePod<uint64_t>(os, range.count);
  }

  // Relational extras for DataGraph round-trips.
  WritePod<uint32_t>(os, static_cast<uint32_t>(dg.table_first_node.size()));
  for (NodeId first : dg.table_first_node) WritePod<uint32_t>(os, first);
  WritePod<uint64_t>(os, dg.node_labels.size());
  for (const std::string& label : dg.node_labels) WriteString(os, label);

  // Page directory, then the page blobs.
  const auto& pages = packer.pages();
  WritePod<uint64_t>(os, pages.size());
  for (const auto& page : pages) {
    WritePod<uint32_t>(os, static_cast<uint32_t>(page.size()));
  }
  for (const auto& page : pages) {
    os.write(reinterpret_cast<const char*>(page.data()),
             static_cast<std::streamsize>(page.size()));
  }
  return static_cast<bool>(os);
}

std::optional<PagedData> PagedStore::Open(const std::string& path,
                                          const PagedOpenOptions& options) {
  std::ifstream is(path, std::ios::binary);
  if (!is) return std::nullopt;

  uint64_t magic;
  uint32_t version;
  if (!ReadPod(is, &magic) || magic != kPagedMagic) return std::nullopt;
  if (!ReadPod(is, &version) || version != kPagedVersion) return std::nullopt;

  std::shared_ptr<PagedStore> store(new PagedStore());
  uint8_t layout;
  uint64_t n, m;
  double min_weight;
  if (!ReadPod(is, &store->page_size_) || !ReadPod(is, &layout) ||
      !ReadPod(is, &n) || !ReadPod(is, &m) || !ReadPod(is, &min_weight)) {
    return std::nullopt;
  }
  if (n > UINT32_MAX) return std::nullopt;
  store->layout_ = static_cast<PageLayout>(layout);

  PagedData pd;
  Graph& g = pd.data.graph;
  auto read_u64s = [&](std::vector<size_t>* out, size_t count) {
    out->resize(count);
    for (auto& v : *out) {
      uint64_t x;
      if (!ReadPod(is, &x)) return false;
      v = static_cast<size_t>(x);
    }
    return true;
  };
  if (!read_u64s(&g.out_offsets_, n + 1)) return std::nullopt;
  if (!read_u64s(&g.in_offsets_, n + 1)) return std::nullopt;
  g.fwd_indegree_.resize(n);
  for (auto& d : g.fwd_indegree_) {
    if (!ReadPod(is, &d)) return std::nullopt;
  }
  g.in_inv_weight_sum_.resize(n);
  for (auto& s : g.in_inv_weight_sum_) {
    if (!ReadPod(is, &s)) return std::nullopt;
  }
  g.out_inv_weight_sum_.resize(n);
  for (auto& s : g.out_inv_weight_sum_) {
    if (!ReadPod(is, &s)) return std::nullopt;
  }
  g.min_edge_weight_ = min_weight;

  uint8_t has_types;
  if (!ReadPod(is, &has_types)) return std::nullopt;
  if (has_types) {
    g.node_types_.resize(n);
    for (auto& t : g.node_types_) {
      if (!ReadPod(is, &t)) return std::nullopt;
    }
  }
  uint32_t num_type_names;
  if (!ReadPod(is, &num_type_names)) return std::nullopt;
  g.type_names_.resize(num_type_names);
  for (auto& name : g.type_names_) {
    if (!ReadString(is, &name)) return std::nullopt;
  }

  uint8_t has_prestige;
  if (!ReadPod(is, &has_prestige)) return std::nullopt;
  if (has_prestige) {
    store->prestige_.resize(n);
    for (auto& p : store->prestige_) {
      if (!ReadPod(is, &p)) return std::nullopt;
    }
  }

  uint64_t num_inline_edges;
  if (!ReadPod(is, &num_inline_edges)) return std::nullopt;
  g.inline_edges_.resize(num_inline_edges);
  if (num_inline_edges > 0 &&
      !is.read(reinterpret_cast<char*>(g.inline_edges_.data()),
               static_cast<std::streamsize>(num_inline_edges * sizeof(Edge)))) {
    return std::nullopt;
  }

  g.out_runs_.resize(n);
  for (auto& ref : g.out_runs_) {
    if (!ReadRunRef(is, &ref)) return std::nullopt;
  }
  g.in_runs_.resize(n);
  for (auto& ref : g.in_runs_) {
    if (!ReadRunRef(is, &ref)) return std::nullopt;
  }

  InvertedIndex& ix = pd.data.index;
  uint64_t num_terms;
  if (!ReadPod(is, &num_terms)) return std::nullopt;
  ix.posting_runs_.resize(num_terms);
  for (uint64_t i = 0; i < num_terms; ++i) {
    std::string term;
    if (!ReadString(is, &term)) return std::nullopt;
    auto& run = ix.posting_runs_[i];
    if (!ReadPod(is, &run.count) || !ReadRunRef(is, &run.ref)) {
      return std::nullopt;
    }
    ix.term_ids_.emplace(std::move(term), static_cast<uint32_t>(i));
  }
  uint64_t num_relations;
  if (!ReadPod(is, &num_relations)) return std::nullopt;
  for (uint64_t i = 0; i < num_relations; ++i) {
    std::string name;
    InvertedIndex::RelationRange range;
    uint64_t count;
    if (!ReadString(is, &name) || !ReadPod(is, &range.first) ||
        !ReadPod(is, &count)) {
      return std::nullopt;
    }
    range.count = static_cast<size_t>(count);
    ix.relations_.emplace(std::move(name), range);
  }
  ix.frozen_ = true;

  uint32_t num_tables;
  if (!ReadPod(is, &num_tables)) return std::nullopt;
  pd.data.table_first_node.resize(num_tables);
  for (auto& first : pd.data.table_first_node) {
    if (!ReadPod(is, &first)) return std::nullopt;
  }
  uint64_t num_labels;
  if (!ReadPod(is, &num_labels)) return std::nullopt;
  pd.data.node_labels.resize(num_labels);
  for (auto& label : pd.data.node_labels) {
    if (!ReadString(is, &label)) return std::nullopt;
  }

  uint64_t num_pages;
  if (!ReadPod(is, &num_pages)) return std::nullopt;
  store->page_lengths_.resize(num_pages);
  store->page_offsets_.resize(num_pages);
  uint64_t offset = 0;
  for (uint64_t i = 0; i < num_pages; ++i) {
    if (!ReadPod(is, &store->page_lengths_[i])) return std::nullopt;
    store->page_offsets_[i] = offset;
    offset += store->page_lengths_[i];
  }
  store->data_start_ = static_cast<uint64_t>(is.tellg());
  is.close();

  store->fd_ = ::open(path.c_str(), O_RDONLY);
  if (store->fd_ < 0) return std::nullopt;
  store->pool_ = std::make_unique<BufferPool>(
      store.get(), BufferPoolOptions{options.pool_bytes});

  g.store_ = store;
  ix.store_ = store;
  pd.store = std::move(store);
  return pd;
}

PagedStore::~PagedStore() {
  pool_.reset();  // joins the fetch thread before the fd goes away
  if (fd_ >= 0) ::close(fd_);
}

size_t PagedStore::DataBytes() const {
  size_t total = 0;
  for (uint32_t len : page_lengths_) total += len;
  return total;
}

bool PagedStore::ReadPage(PageId page, std::byte* out) const {
  size_t remaining = page_lengths_[page];
  uint64_t pos = data_start_ + page_offsets_[page];
  char* dst = reinterpret_cast<char*>(out);
  while (remaining > 0) {
    ssize_t got = ::pread(fd_, dst, remaining, static_cast<off_t>(pos));
    if (got <= 0) {
      if (got < 0 && errno == EINTR) continue;
      // Truncated or unreadable file: report the failure instead of
      // zero-filling — a zeroed page would fabricate empty adjacency
      // and searches would silently return wrong answers. The buffer
      // pool fails the pins waiting on this read and the searcher
      // surfaces SearchStatus::kIoError.
      return false;
    }
    dst += got;
    pos += static_cast<uint64_t>(got);
    remaining -= static_cast<size_t>(got);
  }
  return true;
}

}  // namespace banks
