// Self-test of the benchmark's oracle (oracle.h): the checker accepts the
// exact answer and rejects an answer with one neighbour dropped, replaced,
// moved out of order or misreported; and answers kept up to date across
// inserts and deletes equal answers computed from scratch.
//
//   cmake --build .bench_build/perfbench --target oracle_selftest
//   .bench_build/perfbench/oracle_selftest

#include <algorithm>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "perfbench/oracle.h"
#include "src/common/random.h"

namespace perfbench {
namespace {

constexpr int kDim = 16;
constexpr size_t kK = 21;
constexpr size_t kPoints = 3000;

int failures = 0;

void Expect(bool cond, const std::string& what) {
  if (!cond) {
    std::fprintf(stderr, "FAIL: %s\n", what.c_str());
    ++failures;
  }
}

std::vector<srtree::Neighbor> AsNeighbors(const std::vector<Cand>& cands,
                                          size_t count) {
  std::vector<srtree::Neighbor> out;
  for (size_t i = 0; i < count && i < cands.size(); ++i) {
    out.push_back(srtree::Neighbor{static_cast<double>(cands[i].d), cands[i].oid});
  }
  return out;
}

std::vector<srtree::Neighbor> SortedBall(const std::vector<Cand>& ball, long double r) {
  std::vector<Cand> in;
  for (const Cand& c : ball) {
    if (c.d <= r) in.push_back(c);
  }
  std::sort(in.begin(), in.end());
  return AsNeighbors(in, in.size());
}

void TestCheckerRejectsBrokenAnswers(Oracle& oracle, long double radius) {
  const std::vector<srtree::Neighbor> good = AsNeighbors(oracle.Top(0), kK);
  Expect(oracle.CheckKnn(0, good).empty(), "exact k-NN answer accepted");

  std::vector<srtree::Neighbor> dropped = good;
  dropped.erase(dropped.begin() + 5);
  Expect(!oracle.CheckKnn(0, dropped).empty(), "k-NN answer with a neighbour dropped rejected");

  // Replace the 6th neighbour by the (k+1)-th point, re-sorted: right size,
  // right order, but a true neighbour is missing.
  std::vector<srtree::Neighbor> swapped = good;
  swapped.erase(swapped.begin() + 5);
  swapped.push_back(srtree::Neighbor{static_cast<double>(oracle.Top(0)[kK].d),
                                     oracle.Top(0)[kK].oid});
  Expect(!oracle.CheckKnn(0, swapped).empty(),
         "k-NN answer with a neighbour swapped for a farther point rejected");

  std::vector<srtree::Neighbor> reordered = good;
  std::swap(reordered[3], reordered[4]);
  Expect(!oracle.CheckKnn(0, reordered).empty(), "k-NN answer out of order rejected");

  std::vector<srtree::Neighbor> misreported = good;
  misreported[7].distance *= 1.0 + 1e-9;
  Expect(!oracle.CheckKnn(0, misreported).empty(), "k-NN answer with a wrong distance rejected");

  std::vector<srtree::Neighbor> duplicated = good;
  duplicated[8] = duplicated[7];
  Expect(!oracle.CheckKnn(0, duplicated).empty(), "k-NN answer with an oid twice rejected");

  const std::vector<srtree::Neighbor> ball = SortedBall(oracle.Ball(0), radius);
  Expect(ball.size() >= 2, "range ball holds points");
  Expect(oracle.CheckRange(0, ball).empty(), "exact range answer accepted");
  std::vector<srtree::Neighbor> short_ball = ball;
  short_ball.erase(short_ball.begin() + static_cast<std::ptrdiff_t>(short_ball.size() / 2));
  Expect(!oracle.CheckRange(0, short_ball).empty(), "range answer with a point dropped rejected");
  std::vector<srtree::Neighbor> long_ball = ball;
  long_ball.push_back(srtree::Neighbor{static_cast<double>(oracle.Top(0)[kK + 10].d),
                                       oracle.Top(0)[kK + 10].oid});
  if (oracle.Top(0)[kK + 10].d > radius * (1.0L + kTieRel)) {
    Expect(!oracle.CheckRange(0, long_ball).empty(),
           "range answer with a point outside the radius rejected");
  }
}

void TestIncrementalEqualsScratch(const std::vector<double>& coords) {
  // Live set: oids 0..kPoints-1 at coords 0..kPoints-1; then churn.
  Oracle live(kDim, &coords, kK);
  for (uint32_t i = 0; i < kPoints; ++i) live.Insert(i, i);
  for (uint32_t q = 0; q < 8; ++q) live.AddQuery(q * 17, 0.0L);
  const long double radius = live.Top(0)[kK].d;
  live.SetRadius(radius);
  srtree::Xoshiro256 rng(5);
  std::vector<std::pair<uint32_t, uint32_t>> members;  // (oid, coord)
  for (uint32_t i = 0; i < kPoints; ++i) members.emplace_back(i, i);
  uint32_t next_oid = kPoints;
  uint32_t next_coord = kPoints;
  for (int step = 0; step < 4000; ++step) {
    if (step % 2 == 0) {
      live.Insert(next_oid, next_coord);
      members.emplace_back(next_oid++, next_coord++);
    } else {
      const size_t at = rng.NextBounded(members.size());
      live.Delete(members[at].first);
      members[at] = members.back();
      members.pop_back();
    }
  }
  Oracle scratch(kDim, &coords, kK);
  for (const auto& [oid, coord] : members) scratch.Insert(oid, coord);
  for (uint32_t q = 0; q < 8; ++q) scratch.AddQuery(q * 17, radius);
  for (size_t j = 0; j < 8; ++j) {
    const std::vector<Cand>& a = live.Top(j);
    const std::vector<Cand>& b = scratch.Top(j);
    bool same = a.size() <= b.size();
    for (size_t i = 0; same && i < a.size(); ++i) {
      same = a[i].oid == b[i].oid && a[i].d == b[i].d;
    }
    Expect(same && a.size() >= kK, "maintained k-NN list equals a fresh one, query " +
                                       std::to_string(j));
    Expect(live.CheckKnn(j, AsNeighbors(b, kK)).empty(),
           "fresh k-NN answer accepted by the maintained oracle, query " + std::to_string(j));
    Expect(live.CheckRange(j, SortedBall(scratch.Ball(j), radius)).empty(),
           "fresh range answer accepted by the maintained oracle, query " + std::to_string(j));
  }
}

int Main() {
  srtree::Xoshiro256 rng(3);
  std::vector<double> coords(3 * kPoints * kDim);
  for (double& x : coords) x = rng.NextDouble();
  Oracle oracle(kDim, &coords, kK);
  for (uint32_t i = 0; i < kPoints; ++i) oracle.Insert(i, i);
  oracle.AddQuery(0, 0.0L);
  const long double radius = oracle.Top(0)[kK + 5].d;
  oracle.SetRadius(radius);
  TestCheckerRejectsBrokenAnswers(oracle, radius);
  TestIncrementalEqualsScratch(coords);
  if (failures != 0) {
    std::fprintf(stderr, "%d check(s) failed\n", failures);
    return 1;
  }
  std::printf("oracle self-test passed\n");
  return 0;
}

}  // namespace
}  // namespace perfbench

int main() { return perfbench::Main(); }
