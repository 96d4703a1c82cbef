// The shared spectral execution engine.
//
// SpectralEngine owns the transform geometry of featurization (window kind
// + DFT size) and runs the paper's welchwindow -> dft -> cabs stages for
// FeatureExtractor (and through it every session and extractor facade)
// through plan-cached FFTs (dsp::FftPlan) with reusable per-thread scratch.
//
// Thread model: the engine itself is immutable after construction; all
// mutable execution state (FFT plans, window tables, pad scratch) lives in
// thread-local storage. One engine can therefore be shared by reference
// across extractors — and across threads (e.g. the MultiStreamExtractor's
// worker pool) — without locking.
#pragma once

#include <span>
#include <vector>

#include "core/params.hpp"
#include "dsp/window.hpp"

namespace dynriver::core {

class SpectralEngine {
 public:
  SpectralEngine(dsp::WindowKind window, std::size_t dft_size);
  /// Geometry from pipeline parameters (window kind + dft_size).
  explicit SpectralEngine(const PipelineParams& params);

  [[nodiscard]] std::size_t dft_size() const { return dft_size_; }
  [[nodiscard]] dsp::WindowKind window_kind() const { return window_; }

  /// Windowed magnitude spectrum of one analysis record: windows a copy of
  /// `record` (record.size() <= dft_size()), zero-pads to dft_size(), and
  /// writes the dft_size() magnitudes |X[k]| into `out`.
  void windowed_magnitudes(std::span<const float> record,
                           std::vector<float>& out) const;

  /// Batched windowed magnitude spectra: `records` is a row-major matrix of
  /// same-length records (records.size() must be a multiple of `record_len`,
  /// record_len <= dft_size()); writes count rows of dft_size() magnitudes
  /// into `out`. Bit-identical to calling windowed_magnitudes per row — the
  /// batch hoists the window table, FFT plan, and pad zeroing out of the
  /// record loop and streams each row through one cache-hot padded buffer
  /// (windowing fused with the copy), so per-record dispatch amortizes
  /// across a clip.
  void windowed_magnitudes_batch(std::span<const float> records,
                                 std::size_t record_len,
                                 std::vector<float>& out) const;

 private:
  dsp::WindowKind window_;
  std::size_t dft_size_;
};

}  // namespace dynriver::core
