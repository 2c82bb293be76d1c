// Shared pieces of the repo benchmark driver: options, result and metric
// bookkeeping, order statistics, and process resource probes.

#ifndef CCF_PERFBENCH_COMMON_H_
#define CCF_PERFBENCH_COMMON_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string ccf_host;  // path of the ccf_host binary (live workload)
  std::string out_dir;   // scratch directory for logs and span dumps
};

struct Metric {
  double value = 0;
  std::string unit;
};

// One run's outcome. `errors` lists every failed correctness check; any
// entry makes the run incorrect.
struct RunResult {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::map<std::string, Metric> metrics;
  std::vector<std::string> errors;
  std::vector<std::string> notes;  // human-readable lines, not the result

  void Set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  void Fail(const std::string& why) { errors.push_back(why); }
  bool correct() const { return errors.empty(); }
};

inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// Linear-interpolated quantile (q in [0, 1]); 0 for an empty sample.
inline double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  double pos = q * static_cast<double>(v.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, v.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

inline double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

inline double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

// Throughput over the first tenth of the replies (counted from the window
// start) divided by throughput over the last tenth: above 1 when the
// service slows down as the run goes on. `done_ns` holds reply times.
inline double FirstOverLastTenthTput(std::vector<uint64_t> done_ns,
                                     uint64_t start_ns) {
  std::sort(done_ns.begin(), done_ns.end());
  size_t n = done_ns.size(), k = n / 10;
  if (k < 2) return 0;
  double first = Ratio(static_cast<double>(k),
                       static_cast<double>(done_ns[k - 1] - start_ns));
  double last = Ratio(static_cast<double>(k),
                      static_cast<double>(done_ns[n - 1] - done_ns[n - 1 - k]));
  return Ratio(first, last);
}

// CPU seconds (user + system) consumed by every thread of this process.
double ProcessCpuSeconds();
// Peak resident set of this process, in MB.
double PeakRssMb();

// Per-episode samples of each metric, folded into medians at the end of a
// run (several episodes per run keep one slow episode from setting the
// figure).
class EpisodeSamples {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    auto& s = samples_[name];
    s.unit = unit;
    s.values.push_back(value);
  }
  void MediansInto(RunResult* out) const {
    for (const auto& [name, s] : samples_) {
      out->Set(name, Median(s.values), s.unit);
    }
  }

 private:
  struct Series {
    std::string unit;
    std::vector<double> values;
  };
  std::map<std::string, Series> samples_;
};

// Prints the result line: {"correct", "attempted", "failed", "metrics"}.
void PrintResult(const RunResult& result);

}  // namespace perfbench

#endif  // CCF_PERFBENCH_COMMON_H_
