// Timing instrument of the benchmark: every call the benchmark makes into a
// layer of the library goes through Recorder::Time, which files the call's
// wall time under "<phase>/<call>" and, in a traced run, also keeps a span
// (name, identifier, parent, trace identifier, start, end) in memory. The
// spans are written out as JSON lines when the run ends. End-to-end and
// per-layer figures both read the same per-key values.

#ifndef PERFBENCH_RECORDER_H_
#define PERFBENCH_RECORDER_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <map>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

inline double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Nearest-rank percentile, p in (0, 100].
inline double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * static_cast<double>(v.size())));
  rank = std::clamp<size_t>(rank, 1, v.size());
  return v[rank - 1];
}

// The median, over consecutive windows of `window` samples, of each
// window's p-th percentile: a tail figure that one stalled stretch of a run
// cannot move on its own. Samples past the last whole window are left out;
// with less than one window, the percentile of all samples.
inline double WindowedPercentile(const std::vector<double>& v, size_t window,
                                 double p) {
  if (v.size() < window) return Percentile(v, p);
  std::vector<double> per_window;
  for (size_t at = 0; at + window <= v.size(); at += window) {
    per_window.push_back(Percentile(
        std::vector<double>(v.begin() + static_cast<std::ptrdiff_t>(at),
                            v.begin() + static_cast<std::ptrdiff_t>(at + window)),
        p));
  }
  return Median(per_window);
}

inline double Sum(const std::vector<double>& v) {
  return std::accumulate(v.begin(), v.end(), 0.0);
}

class Recorder {
 public:
  explicit Recorder(bool trace) : trace_(trace), origin_(Clock::now()) {}

  // A fresh identifier shared by the spans of one batch or one phase.
  uint64_t NewTrace() { return ++last_trace_; }

  // Runs fn(), files its wall time under phase/call and returns it in
  // seconds. When tracing, records a span under trace identifier `trace`;
  // LastSpan() then names it, as the parent of spans filed inside it.
  template <typename Fn>
  double Time(const std::string& phase, const std::string& call, Fn&& fn,
              uint64_t trace = 0) {
    const Clock::time_point t0 = Clock::now();
    fn();
    const Clock::time_point t1 = Clock::now();
    const double s = SecondsBetween(t0, t1);
    Add(phase, call, s);
    if (trace_) {
      spans_.push_back(Span{phase + "/" + call, ++last_span_, 0, trace,
                            SecondsBetween(origin_, t0),
                            SecondsBetween(origin_, t1)});
    }
    return s;
  }

  // Files a duration measured elsewhere (per-query latencies inside an
  // engine batch stand in for spans inside the workers: the span carries
  // its duration but no start).
  void AddChild(const std::string& phase, const std::string& call, double s,
                uint64_t trace, uint64_t parent) {
    Add(phase, call, s);
    if (trace_) {
      spans_.push_back(Span{phase + "/" + call, ++last_span_, parent, trace,
                            -1.0, s});
    }
  }

  // Files a value that is not a call's duration (a count, a rate, a
  // duration measured inside the library); it gets no span.
  void Value(const std::string& phase, const std::string& name, double v) {
    Add(phase, name, v);
  }

  uint64_t LastSpan() const { return last_span_; }

  const std::vector<double>& Durations(const std::string& phase,
                                       const std::string& call) const {
    static const std::vector<double> kEmpty;
    const auto it = durations_.find(phase + "/" + call);
    return it == durations_.end() ? kEmpty : it->second;
  }

  // Writes one JSON object per span. Returns false when the file cannot be
  // written.
  bool WriteSpans(const std::string& path) const {
    std::ofstream out(path);
    if (!out) return false;
    out.precision(12);
    for (const Span& s : spans_) {
      out << "{\"name\":\"" << s.name << "\",\"id\":" << s.id
          << ",\"parent\":" << s.parent << ",\"trace\":" << s.trace;
      if (s.start >= 0.0) {
        out << ",\"start_s\":" << s.start << ",\"end_s\":" << s.end;
      } else {
        out << ",\"dur_s\":" << s.end;
      }
      out << "}\n";
    }
    return static_cast<bool>(out);
  }

  size_t span_count() const { return spans_.size(); }

 private:
  struct Span {
    std::string name;
    uint64_t id;
    uint64_t parent;
    uint64_t trace;
    double start;  // seconds since the recorder was made; -1 if unknown
    double end;    // seconds since made, or the duration when start < 0
  };

  void Add(const std::string& phase, const std::string& call, double s) {
    durations_[phase + "/" + call].push_back(s);
  }

  const bool trace_;
  const Clock::time_point origin_;
  uint64_t last_trace_ = 0;
  uint64_t last_span_ = 0;
  std::map<std::string, std::vector<double>> durations_;
  std::vector<Span> spans_;
};

}  // namespace perfbench

#endif  // PERFBENCH_RECORDER_H_
