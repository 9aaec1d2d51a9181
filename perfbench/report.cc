#include "report.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

uint64_t SamplesBeyond(uint64_t n, double pct) {
  const auto rank =
      static_cast<uint64_t>(std::ceil(pct / 100.0 * static_cast<double>(n)));
  return n - std::min(rank, n);
}

double Summary::At(double pct) const {
  for (const auto& [q, value] : quantiles) {
    if (q == pct) return value;
  }
  return 0.0;
}

Summary Summarize(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  Summary summary;
  summary.n = values.size();
  if (summary.n == 0) return summary;

  // Nearest rank: the value of the rank-th smallest sample (1-based).
  auto value_at = [&](double pct) {
    const auto rank = static_cast<uint64_t>(
        std::ceil(pct / 100.0 * static_cast<double>(summary.n)));
    return values[std::clamp<uint64_t>(rank, 1, summary.n) - 1];
  };

  summary.p50 = value_at(50.0);
  for (double pct : kTailPercentiles) {
    if (SamplesBeyond(summary.n, pct) < kMinBeyond) continue;
    const double value = value_at(pct);
    summary.quantiles.emplace_back(pct, value);
    if (summary.tail_pct == 0.0) {
      summary.tail_pct = pct;
      summary.tail = value;
    }
  }
  return summary;
}

void Report::Set(const std::string& name, double value,
                 const std::string& unit) {
  for (Metric& m : metrics_) {
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  }
  metrics_.push_back({name, value, unit});
}

void Report::Check(bool ok, const std::string& what) {
  checks_.push_back(std::string(ok ? "PASS  " : "FAIL  ") + what);
  if (!ok) failures_.push_back(what);
}

void Report::Note(const std::string& line) { notes_.push_back(line); }

bool Report::correct() const {
  if (!failures_.empty() || attempted_ == 0) return false;
  return std::all_of(metrics_.begin(), metrics_.end(),
                     [](const Metric& m) { return std::isfinite(m.value); });
}

namespace {

// Metric names and units are benchmark-defined identifiers; escape the two
// JSON-significant characters anyway so the line always parses.
std::string Quoted(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string Number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

std::string Report::Json() const {
  std::string out = "{\"correct\": ";
  out += correct() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted_);
  out += ", \"failed\": " + std::to_string(failed_);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    if (i > 0) out += ", ";
    out += Quoted(m.name) + ": {\"value\": " + Number(m.value) +
           ", \"unit\": " + Quoted(m.unit) + "}";
  }
  out += "}}";
  return out;
}

std::string Report::Table() const {
  std::string out;
  char line[256];
  for (const Metric& m : metrics_) {
    std::snprintf(line, sizeof(line), "  %-40s %16.6g %s\n", m.name.c_str(),
                  m.value, m.unit.c_str());
    out += line;
  }
  for (const std::string& note : notes_) out += "  note: " + note + "\n";
  for (const std::string& check : checks_) out += "  check " + check + "\n";
  return out;
}

}  // namespace perfbench
