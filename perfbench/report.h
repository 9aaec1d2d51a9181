// The benchmark's statistics and report writer.
//
// Every timing is reported as its median and the highest percentile that
// still has at least ten samples beyond it, together with the sample count:
// a p99 read off 200 samples is two observations, not a tail. A run's result
// is a set of named metrics with units, the number of operations attempted
// and failed, and the outcome of every output check; Report renders it as a
// human-readable table and as the one-line JSON result that is the last line
// of the benchmark's standard output.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Percentiles the tail rule considers, highest first.
inline constexpr double kTailPercentiles[] = {99.9, 99.0, 95.0, 90.0, 50.0};

/// Minimum number of samples that must lie beyond a reported percentile.
inline constexpr uint64_t kMinBeyond = 10;

/// Samples strictly beyond the nearest-rank `pct`-th percentile of `n`
/// samples (rank = ceil(pct / 100 * n)).
uint64_t SamplesBeyond(uint64_t n, double pct);

/// A timing distribution under the tail rule. `tail_pct` is 0 when even the
/// median has fewer than kMinBeyond samples beyond it (n < 20); `tail` is
/// then 0 too.
struct Summary {
  uint64_t n = 0;
  double p50 = 0.0;
  double tail_pct = 0.0;
  double tail = 0.0;

  /// The nearest-rank value at `pct`, or 0 when fewer than kMinBeyond
  /// samples lie beyond it.
  double At(double pct) const;

  std::vector<std::pair<double, double>> quantiles;  // (pct, value) pairs
};

/// Summarizes one timing's samples under the tail rule.
Summary Summarize(std::vector<double> values);

class Report {
 public:
  /// Adds or replaces metric `name`.
  void Set(const std::string& name, double value, const std::string& unit);

  /// Records an output check; a failed check makes the run incorrect.
  void Check(bool ok, const std::string& what);

  /// Free-text line for the human table (sample counts, percentile used).
  void Note(const std::string& line);

  /// Operations attempted and failed (Open / Draw / RunWalkEngine calls).
  void Count(uint64_t attempted, uint64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }

  /// True when every check passed, at least one operation was attempted,
  /// and every metric value is finite.
  bool correct() const;

  const std::vector<std::string>& failures() const { return failures_; }

  /// The result line: {"correct", "attempted", "failed",
  /// "metrics": {name: {"value", "unit"}}}; values keep all their digits.
  std::string Json() const;

  /// Metrics, notes and check outcomes as aligned text lines.
  std::string Table() const;

 private:
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  std::vector<std::string> notes_;
  std::vector<std::string> checks_;    // every check, with its outcome
  std::vector<std::string> failures_;  // the failed ones
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

}  // namespace perfbench
