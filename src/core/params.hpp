// Parameters of the acoustic ensemble-extraction pipeline.
//
// Defaults reconstruct the paper's configuration (see DESIGN.md section 3):
// 21,600 Hz clips in 900-sample records, SAX anomaly window 100 / alphabet 8
// / moving average 2250, a 5-sigma adaptive trigger, DFT records cut to
// ~[1.2 kHz, 9.6 kHz) = 350 bins, patterns of 3 merged records = 1050
// features (105 after PAA x10) spanning 0.125 s.
#pragma once

#include <cstddef>
#include <string>

#include "dsp/window.hpp"
#include "ts/anomaly.hpp"

namespace dynriver::core {

struct PipelineParams {
  // -- acquisition ----------------------------------------------------------
  double sample_rate = 21600.0;
  std::size_t record_size = 900;  ///< amplitude samples per Data record

  // -- saxanomaly -----------------------------------------------------------
  /// Window 100, alphabet 8, level 2, MA 2250 (the paper's settings), plus
  /// 24-sample energy frames so each SAX symbol encodes ~1.1 ms of log-RMS
  /// energy (see DESIGN.md: symbolizing raw 21.6 kHz samples makes the
  /// bitmap score mark only texture boundaries, not event interiors).
  ts::AnomalyParams anomaly{.window = 100,
                            .alphabet = 8,
                            .level = 2,
                            .ma_window = 2250,
                            .frame = 24};

  // -- trigger --------------------------------------------------------------
  double trigger_sigma = 5.0;  ///< "more than 5 standard deviations from mu0"
  /// Untriggered samples required before the trigger may fire (baseline
  /// estimation warmup).
  std::size_t trigger_min_baseline = 4500;
  /// Consecutive below-threshold samples tolerated before the trigger
  /// releases; bridges short score jitter around the threshold.
  std::size_t trigger_hold_samples = 1500;

  // -- cutter ---------------------------------------------------------------
  /// Ensembles shorter than this are dropped (too short to carry a pattern).
  std::size_t min_ensemble_samples = 2700;
  /// Triggered stretches separated by gaps up to this many samples merge
  /// into one ensemble (gap included). Vocalizations contain homogeneous
  /// stretches -- a dove's steady coo, a blackbird's constant trill -- where
  /// the texture score legitimately dips; merging keeps one song as one
  /// ensemble while both ensemble ends stay tight against the trigger.
  std::size_t merge_gap_samples = 13000;

  // -- spectral segment -----------------------------------------------------
  bool reslice = true;  ///< insert 50%-overlap records between originals
  dsp::WindowKind window = dsp::WindowKind::kWelch;
  std::size_t dft_size = 900;  ///< records are zero-padded to this length
  double cutout_lo_hz = 1200.0;
  double cutout_hi_hz = 9600.0;

  // -- pattern construction -------------------------------------------------
  bool use_paa = true;
  std::size_t paa_factor = 10;
  std::size_t pattern_merge = 3;   ///< spectrum records merged per pattern
  std::size_t pattern_stride = 6;  ///< record advance between patterns
  // With reslice on, records arrive at half-record hops, so stride 6 keeps
  // the paper's 0.125 s pattern cadence; without reslice use stride 3.

  // -- derived --------------------------------------------------------------
  [[nodiscard]] std::size_t cutout_lo_bin() const;
  [[nodiscard]] std::size_t cutout_hi_bin() const;  ///< exclusive
  [[nodiscard]] std::size_t bins_per_record() const;
  [[nodiscard]] std::size_t features_per_record() const;  ///< after optional PAA
  [[nodiscard]] std::size_t features_per_pattern() const;
  /// Seconds of original audio represented by one pattern.
  [[nodiscard]] double pattern_seconds() const;

  void validate() const;
};

/// Text rendering of the paper's Figure 5 operator graph for the given
/// parameters: the acquisition chain, the extraction stages (saxanomaly ->
/// trigger -> cutter, run by StreamSession) and the featurization stages
/// (run by FeatureExtractor). reslice and paa appear only when enabled.
[[nodiscard]] std::string pipeline_diagram(const PipelineParams& params);

}  // namespace dynriver::core
