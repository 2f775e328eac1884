// One traversal for every tree: the depth-first branch-and-bound k-NN
// search of Roussopoulos, Kelley & Vincent (the paper's search), the
// best-first k-NN search of Hjaltason & Samet, and the range search, each
// written once over the NodeSource concept below.
//
// What differs between the structures is only how a page is read and what
// lower bound a child region gives: rect MINDIST for the R*-family, K-D-B
// and VAMSplit trees, sphere MINDIST for the SS-tree, max(sphere, rect) for
// the SR-trees (Section 4.4), the active-subspace rect for the TV-tree. A
// NodeSource supplies exactly that, and the traversals own everything else:
// the candidate set, the visiting order, pruning, and the result order.
//
// Comparison space. The rect trees compare squared MINDISTs against the
// squared k-th distance; the sphere trees compare distances against its
// square root. Each source keeps the space its bound is computed in
// (kSquaredBounds), because converting a bound from one space to the other
// rounds, and a rounded bound can flip a tie and change which pages are
// read. Children are visited closest first with ties broken by child
// index, and the best-first frontier receives them in child-index order,
// so the pages a query reads are fixed by the tree's bound and comparison
// space alone; the TraversalReadsExact test holds them exactly.

#ifndef SRTREE_INDEX_TRAVERSAL_H_
#define SRTREE_INDEX_TRAVERSAL_H_

#include <algorithm>
#include <cmath>
#include <concepts>
#include <cstdint>
#include <functional>
#include <queue>
#include <tuple>
#include <vector>

#include "src/geometry/kernel.h"
#include "src/index/knn.h"
#include "src/index/query.h"
#include "src/storage/epoch.h"
#include "src/storage/io_stats.h"
#include "src/storage/page_file.h"

namespace srtree {

// Where a traversal starts: the root page of the version being searched.
struct TraversalRoot {
  PageId id = kInvalidPageId;
  int level = 0;
  bool empty = true;  // no points: the traversal reads nothing
};

// A tree as the traversals see it:
//
//   kSquaredBounds   true when MinDists() returns squared distances;
//   root()           the root page, its level, and whether the tree is empty;
//   Load(id, level, io)
//                    reads one node through the tree's own page path, which
//                    records the read into `io` (so the I/O counts keep one
//                    source of truth). The returned Node may alias a buffer
//                    the next Load() overwrites;
//   is_leaf(node), child_count(node), child(node, i)
//                    the node's shape and its children's page ids;
//   ScanLeaf(node, query, bound_sq, scratch, offer)
//                    calls offer(squared distance, oid) for every stored
//                    point within squared distance bound_sq (the static
//                    tier also skips tombstoned points here);
//   MinDists(node, query, scratch)
//                    the lower bound of every child region, batched into
//                    `scratch`, in the space kSquaredBounds names.
//
// A child sits one level below its parent.
template <typename S>
concept NodeSource = requires(const S& source, const typename S::Node& node,
                              PageId id, int level, IoStatsDelta* io,
                              PointView query, double bound_sq,
                              KernelScratch& scratch, size_t i,
                              void (*offer)(double, uint32_t)) {
  { S::kSquaredBounds } -> std::convertible_to<bool>;
  { source.root() } -> std::same_as<TraversalRoot>;
  { source.Load(id, level, io) } -> std::same_as<typename S::Node>;
  { source.is_leaf(node) } -> std::same_as<bool>;
  { source.child_count(node) } -> std::same_as<size_t>;
  { source.child(node, i) } -> std::same_as<PageId>;
  { source.MinDists(node, query, scratch) }
      -> std::same_as<const std::vector<double>&>;
  source.ScanLeaf(node, query, bound_sq, scratch, offer);
};

// The NodeSource members shared by every tree whose Load() decodes a page
// into a Node with `children` (each carrying its `child` page id) and
// `points` (each carrying `point` and `oid`).
template <typename NodeT>
struct DecodedNodeSource {
  using Node = NodeT;

  static bool is_leaf(const Node& node) { return node.is_leaf(); }
  static size_t child_count(const Node& node) { return node.children.size(); }
  static PageId child(const Node& node, size_t i) {
    return node.children[i].child;
  }

  template <typename Offer>
  static void ScanLeaf(const Node& node, PointView query, double bound_sq,
                       KernelScratch& scratch, Offer&& offer) {
    // SoA leaf scan with partial-distance pruning against the bound at
    // block start (conservative: the bound only shrinks as we offer).
    const std::vector<double>& d2 = BatchSquaredL2(
        scratch, query, node.points.size(),
        [&](size_t i) { return PointView(node.points[i].point); }, bound_sq);
    for (size_t i = 0; i < node.points.size(); ++i) {
      if (d2[i] <= bound_sq) offer(d2[i], node.points[i].oid);
    }
  }
};

namespace traversal_internal {

// The k-NN pruning radius in the source's comparison space.
template <NodeSource S>
double PruneBound(const KnnCandidates& candidates) {
  if constexpr (S::kSquaredBounds) {
    return candidates.PruneDistanceSquared();
  } else {
    return candidates.PruneDistance();
  }
}

// One child of an inner node, copied out of the node and the scratch
// before the traversal descends (both are reused below).
struct Branch {
  double bound;
  uint32_t index;
  PageId child;
};

template <NodeSource S>
void KnnDfsVisit(const S& source, PageId id, int level, PointView query,
                 KnnCandidates& candidates, KernelScratch& scratch,
                 IoStatsDelta* io) {
  std::vector<Branch> order;
  {
    const typename S::Node node = source.Load(id, level, io);
    if (source.is_leaf(node)) {
      source.ScanLeaf(node, query, candidates.PruneDistanceSquared(), scratch,
                      [&](double d2, uint32_t oid) {
                        candidates.OfferSquared(d2, oid);
                      });
      return;
    }
    const std::vector<double>& bounds = source.MinDists(node, query, scratch);
    order.resize(source.child_count(node));
    for (size_t i = 0; i < order.size(); ++i) {
      order[i] = Branch{bounds[i], static_cast<uint32_t>(i),
                        source.child(node, i)};
    }
  }
  std::sort(order.begin(), order.end(), [](const Branch& a, const Branch& b) {
    return std::tie(a.bound, a.index) < std::tie(b.bound, b.index);
  });
  for (const Branch& branch : order) {
    if (branch.bound > PruneBound<S>(candidates)) break;
    KnnDfsVisit(source, branch.child, level - 1, query, candidates, scratch,
                io);
  }
}

template <NodeSource S>
void RangeVisit(const S& source, PageId id, int level, PointView query,
                double bound, double radius_sq, std::vector<Neighbor>& out,
                KernelScratch& scratch, IoStatsDelta* io) {
  std::vector<PageId> hits;
  {
    const typename S::Node node = source.Load(id, level, io);
    if (source.is_leaf(node)) {
      source.ScanLeaf(node, query, radius_sq, scratch,
                      [&](double d2, uint32_t oid) {
                        out.push_back(Neighbor{std::sqrt(d2), oid});
                      });
      return;
    }
    const std::vector<double>& bounds = source.MinDists(node, query, scratch);
    for (size_t i = 0; i < source.child_count(node); ++i) {
      if (bounds[i] <= bound) hits.push_back(source.child(node, i));
    }
  }
  for (const PageId child : hits) {
    RangeVisit(source, child, level - 1, query, bound, radius_sq, out, scratch,
               io);
  }
}

}  // namespace traversal_internal

// The paper's k-NN search: depth-first, children in MINDIST order, pruned
// against the current k-th candidate. At most k neighbors, closest first.
template <NodeSource S>
std::vector<Neighbor> KnnDfs(const S& source, PointView query, int k,
                             IoStatsDelta* io) {
  KnnCandidates candidates(k);
  const TraversalRoot root = source.root();
  if (!root.empty) {
    KernelScratch scratch;
    traversal_internal::KnnDfsVisit(source, root.id, root.level, query,
                                    candidates, scratch, io);
  }
  return candidates.TakeSorted();
}

// Global best-first k-NN: always expand the pending subtree with the
// smallest MINDIST; stop once that bound exceeds the k-th candidate.
template <NodeSource S>
std::vector<Neighbor> KnnBestFirst(const S& source, PointView query, int k,
                                   IoStatsDelta* io) {
  using traversal_internal::PruneBound;
  KnnCandidates candidates(k);
  const TraversalRoot root = source.root();
  if (root.empty) return candidates.TakeSorted();

  struct Pending {
    double bound;
    PageId id;
    int level;
    bool operator>(const Pending& other) const { return bound > other.bound; }
  };
  std::priority_queue<Pending, std::vector<Pending>, std::greater<Pending>>
      frontier;
  KernelScratch scratch;
  frontier.push(Pending{0.0, root.id, root.level});
  while (!frontier.empty()) {
    const Pending next = frontier.top();
    frontier.pop();
    if (next.bound > PruneBound<S>(candidates)) break;
    const typename S::Node node = source.Load(next.id, next.level, io);
    if (source.is_leaf(node)) {
      source.ScanLeaf(node, query, candidates.PruneDistanceSquared(), scratch,
                      [&](double d2, uint32_t oid) {
                        candidates.OfferSquared(d2, oid);
                      });
      continue;
    }
    const std::vector<double>& bounds = source.MinDists(node, query, scratch);
    const double prune = PruneBound<S>(candidates);
    for (size_t i = 0; i < source.child_count(node); ++i) {
      if (bounds[i] <= prune) {
        frontier.push(Pending{bounds[i], source.child(node, i),
                              next.level - 1});
      }
    }
  }
  return candidates.TakeSorted();
}

// Every stored point within `radius` of `query` (closed ball), in the
// canonical (distance, oid) order.
template <NodeSource S>
std::vector<Neighbor> Range(const S& source, PointView query, double radius,
                            IoStatsDelta* io) {
  std::vector<Neighbor> result;
  const TraversalRoot root = source.root();
  if (!root.empty) {
    KernelScratch scratch;
    const double radius_sq = radius * radius;
    traversal_internal::RangeVisit(source, root.id, root.level, query,
                                   S::kSquaredBounds ? radius_sq : radius,
                                   radius_sq, result, scratch, io);
  }
  std::sort(result.begin(), result.end());  // canonical (distance, oid)
  return result;
}

// The traversal `spec` names, over `source`; the one dispatch behind every
// page-based structure's SearchDispatch::SearchImpl. `spec` is validated.
template <NodeSource S>
std::vector<Neighbor> Traverse(const S& source, PointView query,
                               const QuerySpec& spec, IoStatsDelta* io) {
  switch (spec.kind) {
    case QueryKind::kKnn:
      return KnnDfs(source, query, spec.k, io);
    case QueryKind::kKnnBestFirst:
      return KnnBestFirst(source, query, spec.k, io);
    case QueryKind::kRange:
      return Range(source, query, spec.radius, io);
  }
  return {};
}

// A pinned committed version of a tree whose Source(tree, snapshot) reads
// through a PageFile::Snapshot (the SR-tree and the static tier), queryable
// many times: what their AcquireSnapshot() returns. The EpochPin it holds
// for its whole lifetime keeps the version's pages from being reclaimed
// under it, and every query runs through the shared validation shell.
template <typename Tree>
class PinnedSnapshot final : public IndexSnapshot, public SearchDispatch {
 public:
  PinnedSnapshot(const Tree* tree, const PageFile& file)
      : IndexSnapshot(tree),
        tree_(tree),
        pin_(file.epochs()),
        snap_(file.AcquireSnapshot(pin_)) {}

  QueryResult Search(PointView query, const QuerySpec& spec) const override {
    return RunValidatedSearch(*this, tree_->dim(), query, spec);
  }
  uint64_t version() const override { return snap_.version(); }
  size_t size() const override { return static_cast<size_t>(snap_.meta(2)); }

  std::vector<Neighbor> SearchImpl(PointView query, const QuerySpec& spec,
                                   IoStatsDelta* io) const override {
    return Traverse(typename Tree::Source(*tree_, snap_), query, spec, io);
  }

 private:
  const Tree* tree_;
  EpochPin pin_;  // declared before snap_: the announce precedes the pin
  PageFile::Snapshot snap_;
};

}  // namespace srtree

#endif  // SRTREE_INDEX_TRAVERSAL_H_
