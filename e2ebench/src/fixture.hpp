// Inputs and reference results of the workloads: rendered clip pools, the
// trained classifier, and the serial batch reference every run is held to.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "core/features.hpp"
#include "core/params.hpp"
#include "meso/classifier.hpp"

namespace e2ebench {

/// What the correctness gate compares per ensemble.
struct Outcome {
  std::size_t start = 0;
  std::size_t length = 0;
  int label = -1;  ///< majority MESO label; -1 when no pattern fits

  bool operator==(const Outcome&) const = default;
};

/// The serial batch reference of one station stream.
struct Expected {
  std::vector<Outcome> outcomes;
  std::vector<std::uint32_t> crcs;  ///< CRC-32 of each ensemble's samples
  std::size_t samples = 0;
  std::size_t retained = 0;
};

/// Clip populations of the workloads (30 s, 21.6 kHz, PCM16 grid).
enum class PoolKind : std::uint8_t {
  /// Four singers in every clip: the densest chorus whose retention stays
  /// steady across seeds when clips run back to back (denser choruses
  /// swing the adaptive trigger's baseline from seed to seed).
  kChorus,
  kQuiet,  ///< background only, one singer in one clip of four
};

inline constexpr std::size_t kRecordSize = 900;
inline constexpr std::size_t kClipSamples = 648000;  // 30 s at 21.6 kHz
inline constexpr std::size_t kClipRecords = kClipSamples / kRecordSize;

/// Render `count` clips of `kind` from `seed`, up to `threads` at a time.
[[nodiscard]] std::vector<std::vector<float>> render_pool(
    PoolKind kind, std::uint64_t seed, std::size_t count, std::size_t threads);

/// Concatenate pool clips `order` into one station stream.
[[nodiscard]] std::vector<float> concat_clips(
    const std::vector<std::vector<float>>& pool,
    const std::vector<std::size_t>& order);

/// Featurize + classify: FeatureExtractor patterns, one MESO query per
/// pattern, majority vote over the species.
class Analyzer {
 public:
  Analyzer(const dynriver::core::PipelineParams& params,
           dynriver::meso::MesoClassifier classifier);

  [[nodiscard]] std::vector<std::vector<float>> patterns(
      std::span<const float> ensemble) const {
    return features_.patterns(ensemble);
  }
  [[nodiscard]] int label(const std::vector<std::vector<float>>& patterns) const;

 private:
  dynriver::core::FeatureExtractor features_;
  dynriver::meso::MesoClassifier classifier_;
};

/// Train MESO on songs rendered from a fixed seed, separate from every
/// workload seed, then issue one query so the lazily built sphere tree
/// exists before any lane classifies concurrently.
[[nodiscard]] std::unique_ptr<Analyzer> trained_analyzer(
    const dynriver::core::PipelineParams& params);

/// Serial batch EnsembleExtractor pass over `stream`, then featurize and
/// classify each ensemble.
[[nodiscard]] Expected reference(std::span<const float> stream,
                                 const dynriver::core::PipelineParams& params,
                                 const Analyzer& analyzer);

[[nodiscard]] std::uint32_t samples_crc(std::span<const float> samples);

/// Ensembles of `got` that differ from `want` position by position, plus
/// the ones missing or extra.
[[nodiscard]] std::uint64_t mismatches(const std::vector<Outcome>& got,
                                       const std::vector<Outcome>& want);

/// body(i) for i in [0, count) on up to `threads` threads.
void parallel_for(std::size_t count, std::size_t threads,
                  const std::function<void(std::size_t)>& body);

}  // namespace e2ebench
