// The three workloads of the end-to-end benchmark (see README.md):
//
//   live_tcp        open loop: 4 stations stream wire records over loopback
//                   TCP into the scheduler; the sink archives every ensemble
//                   with a sync, then featurizes and classifies it.
//   backfill_dense  closed loop: 4 stations replay disjoint ranges of a packed
//                   archive of dense chorus audio; featurize + classify.
//   quiet_64st      closed loop: one generator pushes 64 quiet stations'
//                   audio through SessionScheduler::push; rare ensembles are
//                   archived (no per-ensemble sync), featurized, classified.
//
// Every workload runs in epochs: each epoch streams every station's fixed
// input through a fresh scheduler, and its output must equal the serial batch
// reference computed in set-up. Epochs repeat until the run's seconds are up.
#pragma once

#include <cstdint>
#include <filesystem>
#include <string>
#include <string_view>

#include "report.hpp"

namespace e2ebench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory for stores and archives; emptied before and after.
  std::filesystem::path work_dir;
  /// Where the traced run writes its spans (JSON lines).
  std::filesystem::path spans_out;
};

[[nodiscard]] bool known_workload(std::string_view name);

/// Set up, run and check one workload. Untraced runs report the end-to-end
/// metrics; traced runs report the per-layer metrics.
[[nodiscard]] Result run_workload(const RunOptions& options);

}  // namespace e2ebench
