// The benchmark's report: the one-line result every run ends with, and the
// full report file (host stamp, calibration, every metric and note).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "measure.hpp"

namespace e2ebench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;  ///< reference ensembles (ops) attempted
  std::uint64_t failed = 0;     ///< ops missing, wrong, unarchived or lost
  /// The metrics of the result line: every end-to-end metric untraced,
  /// every per-layer metric traced.
  std::vector<Metric> metrics;
  /// Further numbers for the report file and the human-readable lines
  /// (failed share, lane count, supported percentiles, ...).
  std::vector<Metric> info;
};

/// Shortest decimal spelling that parses back to exactly `value`. Throws on
/// NaN or infinity, which JSON cannot carry.
[[nodiscard]] std::string format_number(double value);

/// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name:
/// {"value": v, "unit": u}, ...}} on one line.
[[nodiscard]] std::string result_line(const Result& result);

struct RunHeader {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  HostStamp host;
  double calibration_ns_per_fft900 = 0.0;
};

/// Full report document (schema "e2ebench-v1"): the header, the result line's
/// fields, and the info metrics.
[[nodiscard]] std::string report_json(const RunHeader& header,
                                       const Result& result);

}  // namespace e2ebench
