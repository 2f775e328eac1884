// The benchmark's independent oracle: its own copy of the logical contents
// of the index under test, and exact k-NN / range answers for a fixed pool
// of query points, computed by brute force in long double and kept current
// as every generated insert and delete is applied.
//
// Nothing here calls into the library's own brute-force scan; the only
// library types used are the plain result records (Neighbor, Point).
//
// Exactness of the incremental answers. For each pool query the oracle
// keeps `top`, the exact first m entries (m <= k + 16) of the contents in
// the strict (distance, oid) order:
//   * an insert whose key sorts before top.back() joins the list (the
//     list then is the exact first m+1, trimmed back to k + 16); any other
//     insert sorts after every listed entry and leaves the list exact;
//   * a delete of a listed entry leaves the exact first m-1;
//   * when fewer than k entries remain the list is recomputed from
//     scratch over the whole contents.
// Range answers keep every point within r * (1 + kTieRel).

#ifndef PERFBENCH_ORACLE_H_
#define PERFBENCH_ORACLE_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <string>
#include <unordered_set>
#include <vector>

#include "src/geometry/point.h"
#include "src/index/query.h"

namespace perfbench {

// Two distances closer than this (relative) count as a tie: a k-NN answer
// may order or choose tied k-th neighbours either way, and a point this
// close to a range boundary may be reported or not.
inline constexpr long double kTieRel = 1e-12L;

// One exact candidate: a point's long double distance to the query.
struct Cand {
  long double d = 0.0L;
  uint32_t oid = 0;
  bool operator<(const Cand& o) const {
    return d != o.d ? d < o.d : oid < o.oid;
  }
};

// Returns the fresh long double distance from the query to the live point
// `oid`, or a negative value when no live point has that oid.
using FreshDistance = std::function<long double(uint32_t oid)>;

inline long double LongDistance(const double* a, const double* b, int dim) {
  long double s = 0.0L;
  for (int i = 0; i < dim; ++i) {
    const long double diff =
        static_cast<long double>(a[i]) - static_cast<long double>(b[i]);
    s += diff * diff;
  }
  return std::sqrt(s);
}

// Properties every answer must have: ordered by (distance, oid), no oid
// twice, and every reported distance equal to a fresh computation from the
// live point it names. Returns "" when they hold, else what failed.
inline std::string VerifyCommon(const std::vector<srtree::Neighbor>& got,
                                const FreshDistance& fresh) {
  std::unordered_set<uint32_t> seen;
  for (size_t i = 0; i < got.size(); ++i) {
    if (i > 0 && got[i] < got[i - 1]) {
      return "result " + std::to_string(i) + " is out of (distance, oid) order";
    }
    if (!seen.insert(got[i].oid).second) {
      return "oid " + std::to_string(got[i].oid) + " reported twice";
    }
    const long double d = fresh(got[i].oid);
    if (d < 0.0L) {
      return "oid " + std::to_string(got[i].oid) + " is not a live point";
    }
    const long double err = std::fabs(static_cast<long double>(got[i].distance) - d);
    if (err > kTieRel * d + 1e-300L) {
      return "oid " + std::to_string(got[i].oid) +
             " reported at a distance that differs from a fresh computation";
    }
  }
  return "";
}

// `exact` is the exact first m >= k entries of the contents in (distance,
// oid) order, or all of them when the contents hold fewer; `expected` is
// min(k, contents size).
inline std::string VerifyKnn(const std::vector<srtree::Neighbor>& got,
                             const std::vector<Cand>& exact, size_t k,
                             size_t expected, const FreshDistance& fresh) {
  if (got.size() != expected) {
    return "returned " + std::to_string(got.size()) + " neighbours, expected " +
           std::to_string(expected);
  }
  if (std::string err = VerifyCommon(got, fresh); !err.empty()) return err;
  if (expected == 0) return "";
  const long double dk = exact[std::min(k, exact.size()) - 1].d;
  const long double hi = dk * (1.0L + kTieRel);
  const long double lo = dk * (1.0L - kTieRel);
  std::unordered_set<uint32_t> returned;
  for (const srtree::Neighbor& n : got) {
    if (fresh(n.oid) > hi) {
      return "oid " + std::to_string(n.oid) + " lies beyond the k-th distance";
    }
    returned.insert(n.oid);
  }
  for (const Cand& c : exact) {
    if (c.d >= lo) break;
    if (returned.count(c.oid) == 0) {
      return "true neighbour oid " + std::to_string(c.oid) + " is missing";
    }
  }
  return "";
}

// `ball` holds every live point within r * (1 + kTieRel), any order.
inline std::string VerifyRange(const std::vector<srtree::Neighbor>& got,
                               const std::vector<Cand>& ball, long double r,
                               const FreshDistance& fresh) {
  if (std::string err = VerifyCommon(got, fresh); !err.empty()) return err;
  const long double hi = r * (1.0L + kTieRel);
  const long double lo = r * (1.0L - kTieRel);
  std::unordered_set<uint32_t> returned;
  for (const srtree::Neighbor& n : got) {
    if (fresh(n.oid) > hi) {
      return "oid " + std::to_string(n.oid) + " lies outside the radius";
    }
    returned.insert(n.oid);
  }
  for (const Cand& c : ball) {
    if (c.d < lo && returned.count(c.oid) == 0) {
      return "point oid " + std::to_string(c.oid) + " inside the radius is missing";
    }
  }
  return "";
}

class Oracle {
 public:
  // `coords` is the flat coordinate arena every point of the run is drawn
  // from (dim doubles per entry); it must outlive the oracle.
  Oracle(int dim, const std::vector<double>* coords, size_t k)
      : dim_(dim), coords_(coords), k_(k), keep_(k + 16) {}

  size_t size() const { return live_.size(); }

  // Coordinates of arena entry `coord`.
  const double* At(uint32_t coord) const {
    return coords_->data() + static_cast<size_t>(coord) * dim_;
  }

  // Adds a pool query at arena entry `coord`; its answers are computed
  // from the current contents.
  size_t AddQuery(uint32_t coord, long double radius) {
    queries_.push_back(PoolQuery{coord, radius, {}, {}});
    Recompute(queries_.size() - 1);
    return queries_.size() - 1;
  }

  // The exact distance to the k-th nearest neighbour of pool query j.
  long double KthDistance(size_t j) const { return queries_[j].top[k_ - 1].d; }

  // Sets the range radius of every pool query and recomputes the balls.
  void SetRadius(long double radius) {
    for (size_t j = 0; j < queries_.size(); ++j) {
      queries_[j].radius = radius;
      Recompute(j);
    }
  }

  void Insert(uint32_t oid, uint32_t coord) {
    if (oid >= coord_of_.size()) coord_of_.resize(oid + 1, kNone);
    coord_of_[oid] = coord;
    if (oid >= pos_of_.size()) pos_of_.resize(oid + 1, kNone);
    pos_of_[oid] = static_cast<uint32_t>(live_.size());
    for (PoolQuery& q : queries_) {
      const Cand c{LongDistance(At(q.coord), At(coord), dim_), oid};
      // A list holding every point so far takes any newcomer.
      if (q.top.size() == live_.size() || c < q.top.back()) {
        q.top.insert(std::upper_bound(q.top.begin(), q.top.end(), c), c);
        if (q.top.size() > keep_) q.top.pop_back();
      }
      if (c.d <= q.radius * (1.0L + kTieRel)) q.ball.push_back(c);
    }
    live_.push_back(oid);
  }

  void Delete(uint32_t oid) {
    const uint32_t coord = coord_of_[oid];
    coord_of_[oid] = kNone;
    const uint32_t pos = pos_of_[oid];
    live_[pos] = live_.back();
    pos_of_[live_[pos]] = pos;
    live_.pop_back();
    for (size_t j = 0; j < queries_.size(); ++j) {
      PoolQuery& q = queries_[j];
      const Cand c{LongDistance(At(q.coord), At(coord), dim_), oid};
      if (!(q.top.back() < c)) {
        q.top.erase(std::remove_if(q.top.begin(), q.top.end(),
                                   [oid](const Cand& x) { return x.oid == oid; }),
                    q.top.end());
        if (q.top.size() < std::min(k_, live_.size())) Recompute(j);
      }
      if (c.d <= q.radius * (1.0L + kTieRel)) {
        q.ball.erase(std::remove_if(q.ball.begin(), q.ball.end(),
                                    [oid](const Cand& x) { return x.oid == oid; }),
                     q.ball.end());
      }
    }
  }

  // The exact answers kept for pool query j (see the file comment).
  const std::vector<Cand>& Top(size_t j) const { return queries_[j].top; }
  const std::vector<Cand>& Ball(size_t j) const { return queries_[j].ball; }

  std::string CheckKnn(size_t j, const std::vector<srtree::Neighbor>& got) const {
    return VerifyKnn(got, queries_[j].top, k_, std::min(k_, size()),
                     FreshFor(j));
  }

  std::string CheckRange(size_t j,
                         const std::vector<srtree::Neighbor>& got) const {
    return VerifyRange(got, queries_[j].ball, queries_[j].radius, FreshFor(j));
  }

 private:
  static constexpr uint32_t kNone = 0xffffffffu;

  struct PoolQuery {
    uint32_t coord;
    long double radius;
    std::vector<Cand> top;   // exact first m entries, k + 16 >= m >= k
    std::vector<Cand> ball;  // every point within radius * (1 + kTieRel)
  };

  FreshDistance FreshFor(size_t j) const {
    const double* q = At(queries_[j].coord);
    return [this, q](uint32_t oid) -> long double {
      if (oid >= coord_of_.size() || coord_of_[oid] == kNone) return -1.0L;
      return LongDistance(q, At(coord_of_[oid]), dim_);
    };
  }

  void Recompute(size_t j) {
    PoolQuery& q = queries_[j];
    std::vector<Cand> all;
    all.reserve(live_.size());
    q.ball.clear();
    for (const uint32_t oid : live_) {
      const Cand c{LongDistance(At(q.coord), At(coord_of_[oid]), dim_), oid};
      all.push_back(c);
      if (c.d <= q.radius * (1.0L + kTieRel)) q.ball.push_back(c);
    }
    const size_t m = std::min(keep_, all.size());
    std::partial_sort(all.begin(), all.begin() + static_cast<std::ptrdiff_t>(m),
                      all.end());
    q.top.assign(all.begin(), all.begin() + static_cast<std::ptrdiff_t>(m));
  }

  const int dim_;
  const std::vector<double>* coords_;
  const size_t k_;
  const size_t keep_;
  std::vector<uint32_t> coord_of_;  // oid -> arena entry, kNone once deleted
  std::vector<uint32_t> pos_of_;    // oid -> index in live_
  std::vector<uint32_t> live_;
  std::vector<PoolQuery> queries_;
};

}  // namespace perfbench

#endif  // PERFBENCH_ORACLE_H_
