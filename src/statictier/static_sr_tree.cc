#include "src/statictier/static_sr_tree.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>
#include <queue>

#include "src/common/check.h"
#include "src/debug/structural_auditor.h"
#include "src/storage/image_io.h"

namespace srtree {
namespace {

// Page header: [u8 level][u8 flags][u16 count][u32 first_child]. 8 bytes
// keeps the double blocks that follow 8-byte aligned.
constexpr size_t kHeaderBytes = 8;

size_t LeafEntryBytes(int dim) {
  return static_cast<size_t>(dim) * sizeof(double) + sizeof(uint32_t);
}

size_t InnerEntryBytes(int dim) {
  // center (dim) + radius + lo (dim) + hi (dim) doubles, weight u32.
  return (3 * static_cast<size_t>(dim) + 1) * sizeof(double) +
         sizeof(uint32_t);
}

}  // namespace

StaticSRTree::StaticSRTree(const Options& options)
    : options_(options), file_(options.page_size) {
  CHECK_GT(options_.dim, 0);
  leaf_cap_ = (options_.page_size - kHeaderBytes) / LeafEntryBytes(options_.dim);
  node_cap_ = (options_.page_size - kHeaderBytes) / InnerEntryBytes(options_.dim);
  CHECK_GE(leaf_cap_, 2u);
  CHECK_GE(node_cap_, 2u);
  // Publish the empty tree so a snapshot acquired before BulkLoad sees
  // coherent metadata (root = invalid, size = 0).
  CommitState();
}

// --------------------------------------------------------------------------
// Persistence
// --------------------------------------------------------------------------

namespace {

// v2 header record embedded in the SRIX container (src/storage/image_io.h).
struct StaticImageHeader {
  int32_t dim;
  uint32_t pad0;
  uint64_t page_size;
  uint32_t root_id;
  int32_t root_level;
  uint64_t size;
};

// True iff `o` would pass every constructor CHECK, so Open() can reject a
// forged header with Corruption instead of crashing the process.
bool PlausibleOptions(const StaticSRTree::Options& o) {
  if (o.dim <= 0 || o.dim > (1 << 16)) return false;
  if (o.page_size <= kHeaderBytes || o.page_size > (1u << 28)) return false;
  return (o.page_size - kHeaderBytes) / LeafEntryBytes(o.dim) >= 2 &&
         (o.page_size - kHeaderBytes) / InnerEntryBytes(o.dim) >= 2;
}

}  // namespace

Status StaticSRTree::Save(const std::string& path) const {
  StaticImageHeader header = {};
  header.dim = options_.dim;
  header.page_size = options_.page_size;
  header.root_id = root_id_;
  header.root_level = root_level_;
  header.size = size_;
  return AtomicWriteFile(path, [&](std::ostream& out) {
    RETURN_IF_ERROR(WriteIndexImageTo(out, kImageTag, &header, sizeof(header)));
    return file_.SaveTo(out);
  });
}

StatusOr<std::unique_ptr<StaticSRTree>> StaticSRTree::Open(
    const std::string& path) {
  StaticImageHeader header = {};
  IndexImageFile image;
  RETURN_IF_ERROR(image.Open(path, kImageTag, &header, sizeof(header)));

  Options options;
  options.dim = header.dim;
  options.page_size = header.page_size;
  if (!PlausibleOptions(options) || header.root_level < 0 ||
      header.root_level > 64) {
    return Status::Corruption("implausible static SR-tree header");
  }
  auto tree = std::make_unique<StaticSRTree>(options);
  RETURN_IF_ERROR(tree->LoadPages(image.stream(), header.root_id,
                                  header.root_level, header.size));
  return tree;
}

Status StaticSRTree::SavePagesTo(std::ostream& out) const {
  return file_.SaveTo(out);
}

Status StaticSRTree::LoadPages(std::istream& in, PageId root_id,
                               int root_level, uint64_t size) {
  if (root_level < 0 || root_level > 64) {
    return Status::Corruption("implausible static SR-tree root level");
  }
  RETURN_IF_ERROR(file_.LoadFrom(in));
  if (size == 0) {
    if (root_id != kInvalidPageId) {
      return Status::Corruption("empty static SR-tree image names a root");
    }
    root_id_ = kInvalidPageId;
    root_level_ = 0;
    size_ = 0;
    CommitState();
    return Status::OK();
  }
  if (!file_.is_live(root_id)) {
    return Status::Corruption("static SR-tree root page is not live");
  }
  root_id_ = root_id;
  root_level_ = root_level;
  size_ = size;
  RETURN_IF_ERROR(ValidateStructure());
  CommitState();
  return CheckInvariants();
}

Status StaticSRTree::ValidateStructure() const {
  // BFS from the root: every reachable page must be live, carry the level
  // its parent implies, and keep its count within capacity — so the
  // PeekPage-based audit/stats walks can never chase a wild child id.
  struct Item {
    PageId id;
    int level;
  };
  std::queue<Item> queue;
  queue.push({root_id_, root_level_});
  uint64_t points = 0;
  uint64_t visited = 0;
  while (!queue.empty()) {
    const Item item = queue.front();
    queue.pop();
    if (++visited > file_.live_pages()) {
      return Status::Corruption("static SR-tree structure is not a tree");
    }
    const char* buf = file_.PeekPage(item.id);
    if (PageLevel(buf) != item.level) {
      return Status::Corruption("static SR-tree page level mismatch");
    }
    if (item.level == 0) {
      const LeafRef leaf = ParseLeaf(buf);
      if (leaf.count == 0 || leaf.count > leaf_cap_) {
        return Status::Corruption("static SR-tree leaf count out of range");
      }
      points += leaf.count;
      continue;
    }
    const InnerRef inner = ParseInner(buf);
    if (inner.count == 0 || inner.count > node_cap_) {
      return Status::Corruption("static SR-tree node count out of range");
    }
    for (size_t i = 0; i < inner.count; ++i) {
      const PageId child = inner.first_child + static_cast<PageId>(i);
      if (child < inner.first_child || !file_.is_live(child)) {
        return Status::Corruption("static SR-tree child page is not live");
      }
      queue.push({child, item.level - 1});
    }
  }
  if (points != size_) {
    return Status::Corruption("static SR-tree leaf total != stored size");
  }
  return Status::OK();
}

// --------------------------------------------------------------------------
// Page views
// --------------------------------------------------------------------------

int StaticSRTree::PageLevel(const char* buf) const {
  return static_cast<int>(static_cast<unsigned char>(buf[0]));
}

StaticSRTree::LeafRef StaticSRTree::ParseLeaf(const char* buf) const {
  LeafRef leaf;
  uint16_t count = 0;
  std::memcpy(&count, buf + 2, sizeof(count));
  leaf.count = count;
  const double* coords = reinterpret_cast<const double*>(buf + kHeaderBytes);
  leaf.points = SoaBlock{coords, leaf.count, options_.dim};
  leaf.oids = reinterpret_cast<const uint32_t*>(
      buf + kHeaderBytes +
      static_cast<size_t>(options_.dim) * leaf.count * sizeof(double));
  return leaf;
}

StaticSRTree::InnerRef StaticSRTree::ParseInner(const char* buf) const {
  InnerRef inner;
  inner.level = PageLevel(buf);
  uint16_t count = 0;
  std::memcpy(&count, buf + 2, sizeof(count));
  inner.count = count;
  uint32_t first_child = 0;
  std::memcpy(&first_child, buf + 4, sizeof(first_child));
  inner.first_child = first_child;
  const size_t dim = static_cast<size_t>(options_.dim);
  const double* cursor = reinterpret_cast<const double*>(buf + kHeaderBytes);
  inner.centers = SoaBlock{cursor, inner.count, options_.dim};
  cursor += dim * inner.count;
  inner.radii = cursor;
  cursor += inner.count;
  inner.lo = SoaBlock{cursor, inner.count, options_.dim};
  cursor += dim * inner.count;
  inner.hi = SoaBlock{cursor, inner.count, options_.dim};
  cursor += dim * inner.count;
  inner.weights = reinterpret_cast<const uint32_t*>(cursor);
  return inner;
}

void StaticSRTree::GatherPoint(const SoaBlock& block, size_t i,
                               Point& out) const {
  out.resize(static_cast<size_t>(block.dim));
  for (size_t d = 0; d < out.size(); ++d) {
    out[d] = block.coords[d * block.count + i];
  }
}

bool StaticSRTree::Tombstoned(const TombstoneSet* tombstones,
                              const SoaBlock& points, size_t i, uint32_t oid,
                              Point& scratch) const {
  if (tombstones == nullptr || tombstones->empty()) return false;
  GatherPoint(points, i, scratch);
  return tombstones->find({scratch, oid}) != tombstones->end();
}

// --------------------------------------------------------------------------
// Construction
// --------------------------------------------------------------------------

Status StaticSRTree::Insert(PointView point, uint32_t) {
  RETURN_IF_ERROR(ValidatePoint(point, options_.dim));
  return Status::Unimplemented(
      "Static SR-tree is immutable; mutate through a TieredIndex");
}

Status StaticSRTree::Delete(PointView point, uint32_t) {
  RETURN_IF_ERROR(ValidatePoint(point, options_.dim));
  return Status::Unimplemented(
      "Static SR-tree is immutable; mutate through a TieredIndex");
}

uint64_t StaticSRTree::SubtreeCapacity(int height) const {
  uint64_t cap = leaf_cap_;
  for (int h = 0; h < height; ++h) cap *= node_cap_;
  return cap;
}

// In-memory build node; page ids are assigned by a BFS pass afterwards so
// sibling subtrees land on contiguous pages.
struct StaticSRTree::BuildNode {
  int level = 0;
  std::vector<uint32_t> items;    // leaf: indices into the bulk-load arrays
  std::vector<size_t> children;   // inner: indices into the build pool
  // Aggregates over the node's whole subtree (the parent's entry for it).
  Point center;
  double radius = 0.0;
  Rect rect;
  uint64_t weight = 0;
  PageId page = kInvalidPageId;
};

int StaticSRTree::MaxVarianceDim(const std::vector<Point>& points,
                                 std::span<uint32_t> items) const {
  int best_dim = 0;
  double best_var = -1.0;
  for (int d = 0; d < options_.dim; ++d) {
    double sum = 0.0, sum_sq = 0.0;
    for (const uint32_t i : items) {
      const double x = points[i][static_cast<size_t>(d)];
      sum += x;
      sum_sq += x * x;
    }
    const double n = static_cast<double>(items.size());
    const double mean = sum / n;
    const double var = sum_sq / n - mean * mean;
    if (var > best_var) {
      best_var = var;
      best_dim = d;
    }
  }
  return best_dim;
}

void StaticSRTree::SplitIntoPieces(
    const std::vector<Point>& points, std::span<uint32_t> items,
    uint64_t piece_cap, std::vector<std::span<uint32_t>>& pieces) const {
  if (items.size() <= piece_cap) {
    pieces.push_back(items);
    return;
  }
  const int dim = MaxVarianceDim(points, items);
  // The VAM split point: the multiple of the maximal-subtree capacity
  // closest to the median, so the left side packs full subtrees and the
  // total number of blocks is minimal (White & Jain).
  const uint64_t n = items.size();
  uint64_t mult = static_cast<uint64_t>(std::llround(
      static_cast<double>(n) / 2.0 / static_cast<double>(piece_cap)));
  mult = std::max<uint64_t>(mult, 1);
  uint64_t left = mult * piece_cap;
  if (left >= n) left = ((n - 1) / piece_cap) * piece_cap;
  CHECK_GT(left, 0u);
  CHECK_LT(left, n);

  std::nth_element(items.begin(), items.begin() + static_cast<ptrdiff_t>(left),
                   items.end(), [&](uint32_t a, uint32_t b) {
                     return points[a][static_cast<size_t>(dim)] <
                            points[b][static_cast<size_t>(dim)];
                   });
  SplitIntoPieces(points, items.subspan(0, left), piece_cap, pieces);
  SplitIntoPieces(points, items.subspan(left), piece_cap, pieces);
}

size_t StaticSRTree::BuildSubtree(const std::vector<Point>& points,
                                  std::span<uint32_t> items, int height,
                                  std::vector<BuildNode>& pool) const {
  const DistanceKernel& kernel = GetDistanceKernel();
  BuildNode node;
  node.level = height;
  node.weight = items.size();

  // Subtree aggregates from the actual point set: centroid center, exact
  // MBR, and the Section 4.2 radius rule min(d_s, d_r). Every subtree point
  // is inside the MBR, so d_r also bounds all of them — the sphere stays a
  // valid cover even when d_r < d_s.
  const size_t dim = static_cast<size_t>(options_.dim);
  node.center.assign(dim, 0.0);
  node.rect = Rect::Empty(options_.dim);
  for (const uint32_t i : items) {
    for (size_t d = 0; d < dim; ++d) node.center[d] += points[i][d];
    node.rect.Expand(points[i]);
  }
  for (size_t d = 0; d < dim; ++d) {
    node.center[d] /= static_cast<double>(items.size());
  }
  double max_d2 = 0.0;
  for (const uint32_t i : items) {
    max_d2 = std::max(max_d2, kernel.SquaredL2(node.center, points[i]));
  }
  const double d_s = std::sqrt(max_d2);
  const double d_r = std::sqrt(node.rect.MaxDistSq(node.center));
  node.radius = std::min(d_s, d_r);

  if (height == 0) {
    CHECK_LE(items.size(), leaf_cap_);
    node.items.assign(items.begin(), items.end());
    pool.push_back(std::move(node));
    return pool.size() - 1;
  }

  std::vector<std::span<uint32_t>> pieces;
  SplitIntoPieces(points, items, SubtreeCapacity(height - 1), pieces);
  CHECK_LE(pieces.size(), node_cap_);
  for (const std::span<uint32_t> piece : pieces) {
    node.children.push_back(BuildSubtree(points, piece, height - 1, pool));
  }
  pool.push_back(std::move(node));
  return pool.size() - 1;
}

void StaticSRTree::SerializeTree(const std::vector<Point>& points,
                                 const std::vector<uint32_t>& oids,
                                 std::vector<BuildNode>& pool,
                                 size_t root_index) {
  // BFS numbering: a node's children are enqueued (and therefore allocated)
  // consecutively, which is what makes the single first_child id sufficient.
  std::vector<size_t> order;
  order.reserve(pool.size());
  std::queue<size_t> queue;
  queue.push(root_index);
  while (!queue.empty()) {
    const size_t index = queue.front();
    queue.pop();
    pool[index].page = file_.Allocate();
    order.push_back(index);
    for (const size_t child : pool[index].children) queue.push(child);
  }

  const size_t dim = static_cast<size_t>(options_.dim);
  std::vector<char> buf(options_.page_size);
  std::vector<double> block;
  for (const size_t index : order) {
    const BuildNode& node = pool[index];
    std::memset(buf.data(), 0, buf.size());
    PageWriter w(buf.data(), options_.page_size);
    const size_t count =
        node.level == 0 ? node.items.size() : node.children.size();
    CHECK_GT(count, 0u);
    w.PutU8(static_cast<uint8_t>(node.level));
    w.PutU8(0);
    w.PutU16(static_cast<uint16_t>(count));
    if (node.level == 0) {
      w.PutU32(0);
      // Coordinates dimension-major, then the oid array.
      block.resize(dim * count);
      for (size_t i = 0; i < count; ++i) {
        const Point& p = points[node.items[i]];
        for (size_t d = 0; d < dim; ++d) block[d * count + i] = p[d];
      }
      w.PutDoubles(block);
      for (size_t i = 0; i < count; ++i) w.PutU32(oids[node.items[i]]);
    } else {
      const PageId first_child = pool[node.children.front()].page;
      for (size_t i = 0; i < count; ++i) {
        CHECK_EQ(pool[node.children[i]].page,
                 first_child + static_cast<PageId>(i));
      }
      w.PutU32(first_child);
      // centers | radii | rect lo | rect hi | weights, each dim-major.
      block.resize(dim * count);
      for (size_t i = 0; i < count; ++i) {
        const BuildNode& child = pool[node.children[i]];
        for (size_t d = 0; d < dim; ++d) block[d * count + i] = child.center[d];
      }
      w.PutDoubles(block);
      for (size_t i = 0; i < count; ++i) {
        w.PutDouble(pool[node.children[i]].radius);
      }
      for (size_t i = 0; i < count; ++i) {
        const Point& lo = pool[node.children[i]].rect.lo();
        for (size_t d = 0; d < dim; ++d) block[d * count + i] = lo[d];
      }
      w.PutDoubles(block);
      for (size_t i = 0; i < count; ++i) {
        const Point& hi = pool[node.children[i]].rect.hi();
        for (size_t d = 0; d < dim; ++d) block[d * count + i] = hi[d];
      }
      w.PutDoubles(block);
      for (size_t i = 0; i < count; ++i) {
        w.PutU32(static_cast<uint32_t>(pool[node.children[i]].weight));
      }
    }
    file_.StageWrite(node.page, buf.data());
  }
}

Status StaticSRTree::BulkLoad(const std::vector<Point>& points,
                              const std::vector<uint32_t>& oids) {
  if (points.size() != oids.size()) {
    return Status::InvalidArgument("points/oids size mismatch");
  }
  if (size_ != 0) {
    return Status::FailedPrecondition("BulkLoad requires an empty index");
  }
  for (const Point& p : points) {
    RETURN_IF_ERROR(ValidatePoint(p, options_.dim));
  }
  if (points.size() > 0xffffffffull) {
    return Status::InvalidArgument("too many points for 32-bit object slots");
  }
  if (points.empty()) return Status::OK();

  int height = 0;
  while (SubtreeCapacity(height) < points.size()) ++height;

  std::vector<uint32_t> items(points.size());
  std::iota(items.begin(), items.end(), 0);

  std::vector<BuildNode> pool;
  const size_t root_index = BuildSubtree(points, items, height, pool);
  SerializeTree(points, oids, pool, root_index);
  root_id_ = pool[root_index].page;
  root_level_ = height;
  size_ = points.size();
  CommitState();
  return Status::OK();
}

Status StaticSRTree::ExportEntries(
    const std::function<void(PointView, uint32_t)>& fn) const {
  if (size_ == 0) return Status::OK();
  std::vector<Point> points;
  std::vector<uint32_t> oids;
  std::queue<std::pair<PageId, int>> queue;
  queue.push({root_id_, root_level_});
  while (!queue.empty()) {
    const auto [id, level] = queue.front();
    queue.pop();
    const char* buf = file_.PeekPage(id);
    if (level == 0) {
      DecodeLeaf(buf, points, oids);
      for (size_t i = 0; i < points.size(); ++i) fn(points[i], oids[i]);
      continue;
    }
    const InnerRef inner = ParseInner(buf);
    for (size_t i = 0; i < inner.count; ++i) {
      queue.push({inner.first_child + static_cast<PageId>(i), level - 1});
    }
  }
  return Status::OK();
}

bool StaticSRTree::Contains(PointView point, uint32_t oid) const {
  if (size_ == 0 || static_cast<int>(point.size()) != options_.dim) {
    return false;
  }
  // Rect-guided descent: MBRs are exact over the stored coordinates, so the
  // containment test is exact too (no epsilon). Overlapping siblings mean
  // several children may need probing.
  std::queue<std::pair<PageId, int>> queue;
  queue.push({root_id_, root_level_});
  Point scratch;
  while (!queue.empty()) {
    const auto [id, level] = queue.front();
    queue.pop();
    const char* buf = file_.PeekPage(id);
    if (level == 0) {
      const LeafRef leaf = ParseLeaf(buf);
      for (size_t i = 0; i < leaf.count; ++i) {
        if (leaf.oids[i] != oid) continue;
        GatherPoint(leaf.points, i, scratch);
        if (std::equal(point.begin(), point.end(), scratch.begin())) {
          return true;
        }
      }
      continue;
    }
    const InnerRef inner = ParseInner(buf);
    for (size_t i = 0; i < inner.count; ++i) {
      bool inside = true;
      for (size_t d = 0; d < point.size() && inside; ++d) {
        const double lo = inner.lo.coords[d * inner.count + i];
        const double hi = inner.hi.coords[d * inner.count + i];
        inside = point[d] >= lo && point[d] <= hi;
      }
      if (inside) {
        queue.push({inner.first_child + static_cast<PageId>(i), level - 1});
      }
    }
  }
  return false;
}

// --------------------------------------------------------------------------
// Search
// --------------------------------------------------------------------------

TraversalRoot StaticSRTree::Source::root() const {
  const PageId id = static_cast<PageId>(snap_.meta(0));
  return {id, static_cast<int>(snap_.meta(1)),
          snap_.meta(2) == 0 || id == kInvalidPageId};
}

StaticSRTree::Source::Node StaticSRTree::Source::Load(PageId id, int level,
                                                      IoStatsDelta* io) const {
  page_.resize(tree_.options_.page_size);
  snap_.Read(id, page_.data(), level, io);
  Node node;
  node.level = level;
  if (level == 0) {
    node.leaf = tree_.ParseLeaf(page_.data());
  } else {
    node.inner = tree_.ParseInner(page_.data());
  }
  return node;
}

const std::vector<double>& StaticSRTree::Source::MinDists(
    const Node& node, PointView query, KernelScratch& scratch) const {
  // Rect MINDIST^2 lands in scratch.dist, sphere MINDIST in scratch.dist2;
  // the combined SR bound is the max of the two in distance space.
  const std::vector<double>& rect_d2 = BatchRectMinDistSqFromBlocks(
      scratch, query, node.inner.lo, node.inner.hi);
  BatchSphereMinDistFromBlock(scratch, query, node.inner.centers,
                              node.inner.radii);
  for (size_t i = 0; i < node.inner.count; ++i) {
    scratch.dist2[i] = std::max(std::sqrt(rect_d2[i]), scratch.dist2[i]);
  }
  return scratch.dist2;
}

std::vector<Neighbor> StaticSRTree::SearchImpl(PointView query,
                                               const QuerySpec& spec,
                                               IoStatsDelta* io) const {
  const EpochGuard guard(file_.epochs());
  return Traverse(Source(*this, file_.AcquireSnapshot(guard)), query, spec,
                  io);
}

std::unique_ptr<IndexSnapshot> StaticSRTree::AcquireSnapshot() const {
  return std::make_unique<PinnedSnapshot<StaticSRTree>>(this, file_);
}

// --------------------------------------------------------------------------
// Stats & validation
// --------------------------------------------------------------------------

std::vector<StaticSRTree::DecodedEntry> StaticSRTree::DecodeInner(
    const char* buf) const {
  const InnerRef inner = ParseInner(buf);
  const size_t dim = static_cast<size_t>(options_.dim);
  std::vector<DecodedEntry> entries(inner.count);
  for (size_t i = 0; i < inner.count; ++i) {
    Point center(dim), lo(dim), hi(dim);
    for (size_t d = 0; d < dim; ++d) {
      center[d] = inner.centers.coords[d * inner.count + i];
      lo[d] = inner.lo.coords[d * inner.count + i];
      hi[d] = inner.hi.coords[d * inner.count + i];
    }
    entries[i].sphere = Sphere(std::move(center), inner.radii[i]);
    entries[i].rect = Rect(std::move(lo), std::move(hi));
    entries[i].weight = inner.weights[i];
    entries[i].child = inner.first_child + static_cast<PageId>(i);
  }
  return entries;
}

void StaticSRTree::DecodeLeaf(const char* buf, std::vector<Point>& points,
                              std::vector<uint32_t>& oids) const {
  const LeafRef leaf = ParseLeaf(buf);
  points.resize(leaf.count);
  oids.resize(leaf.count);
  for (size_t i = 0; i < leaf.count; ++i) {
    GatherPoint(leaf.points, i, points[i]);
    oids[i] = leaf.oids[i];
  }
}

TreeStats StaticSRTree::GetTreeStats() const {
  TreeStats stats;
  if (size_ == 0) return stats;
  stats.height = root_level_ + 1;
  std::queue<std::pair<PageId, int>> queue;
  queue.push({root_id_, root_level_});
  while (!queue.empty()) {
    const auto [id, level] = queue.front();
    queue.pop();
    const char* buf = file_.PeekPage(id);
    if (level == 0) {
      ++stats.leaf_count;
      stats.entry_count += ParseLeaf(buf).count;
      continue;
    }
    ++stats.node_count;
    const InnerRef inner = ParseInner(buf);
    for (size_t i = 0; i < inner.count; ++i) {
      queue.push({inner.first_child + static_cast<PageId>(i), level - 1});
    }
  }
  return stats;
}

RegionSummary StaticSRTree::LeafRegionSummary() const {
  RegionStatsCollector collector;
  if (size_ == 0) return collector.Finish();
  std::queue<std::pair<PageId, int>> queue;
  queue.push({root_id_, root_level_});
  std::vector<Point> points;
  std::vector<uint32_t> oids;
  while (!queue.empty()) {
    const auto [id, level] = queue.front();
    queue.pop();
    const char* buf = file_.PeekPage(id);
    if (level == 0) {
      DecodeLeaf(buf, points, oids);
      if (points.empty()) continue;
      collector.CountLeaf();
      Rect bound = Rect::Empty(options_.dim);
      for (const Point& p : points) bound.Expand(p);
      collector.AddRect(bound);
      continue;
    }
    const InnerRef inner = ParseInner(buf);
    for (size_t i = 0; i < inner.count; ++i) {
      queue.push({inner.first_child + static_cast<PageId>(i), level - 1});
    }
  }
  return collector.Finish();
}

Status StaticSRTree::CheckInvariants() const {
  if (size_ > 0) RETURN_IF_ERROR(ValidateStructure());
  return debug::AuditIndex(*this);
}

void StaticSRTree::VisitNodes(const NodeVisitor& visitor) const {
  if (size_ == 0) return;
  std::vector<int> path;
  VisitSubtree(root_id_, path, visitor);
}

void StaticSRTree::VisitSubtree(PageId id, std::vector<int>& path,
                                const NodeVisitor& visitor) const {
  const char* buf = file_.PeekPage(id);
  const int level = PageLevel(buf);
  NodeView view;
  view.level = level;
  view.min_entries = 0;  // bulk-loaded: no minimum is enforced
  if (level == 0) {
    view.capacity = leaf_cap_;
    std::vector<Point> points;
    std::vector<uint32_t> oids;
    DecodeLeaf(buf, points, oids);
    view.points.reserve(points.size());
    for (const Point& p : points) view.points.push_back(p);
    visitor(path, view);
    return;
  }
  view.capacity = node_cap_;
  const std::vector<DecodedEntry> entries = DecodeInner(buf);
  view.entries.reserve(entries.size());
  for (const DecodedEntry& e : entries) {
    view.entries.push_back(
        EntryView{&e.rect, &e.sphere, e.weight, /*has_weight=*/true});
  }
  visitor(path, view);
  for (size_t i = 0; i < entries.size(); ++i) {
    path.push_back(static_cast<int>(i));
    VisitSubtree(entries[i].child, path, visitor);
    path.pop_back();
  }
}

AuditSpec StaticSRTree::GetAuditSpec() const {
  AuditSpec spec;
  spec.dim = options_.dim;
  spec.rect_semantics = RectSemantics::kExactMbr;
  spec.has_spheres = true;
  spec.sphere_bounded_by_rect = true;
  spec.has_weights = true;
  spec.internal_root_min2 = true;
  return spec;
}

}  // namespace srtree
