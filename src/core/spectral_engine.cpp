#include "core/spectral_engine.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <utility>

#include "common/contracts.hpp"
#include "dsp/fft_plan.hpp"
#include "dsp/simd.hpp"

namespace dynriver::core {

namespace {

/// Thread-local window tables keyed by (kind, length). Shared across engine
/// instances: a window table has no per-engine state.
std::span<const float> cached_window(dsp::WindowKind kind, std::size_t n) {
  thread_local std::map<std::pair<std::uint8_t, std::size_t>, std::vector<float>>
      windows;
  auto [it, inserted] =
      windows.try_emplace({static_cast<std::uint8_t>(kind), n});
  if (inserted) it->second = dsp::make_window(kind, n);
  return it->second;
}

/// Thread-local transform scratch shared across engine instances.
struct Scratch {
  std::vector<float> padded;
};

Scratch& local_scratch() {
  thread_local Scratch scratch;
  return scratch;
}

}  // namespace

SpectralEngine::SpectralEngine(dsp::WindowKind window, std::size_t dft_size)
    : window_(window), dft_size_(dft_size) {
  DR_EXPECTS(dft_size >= 2);
}

SpectralEngine::SpectralEngine(const PipelineParams& params)
    : SpectralEngine(params.window, params.dft_size) {}

void SpectralEngine::windowed_magnitudes(std::span<const float> record,
                                         std::vector<float>& out) const {
  DR_EXPECTS(!record.empty());
  // A single record is a 1-row batch; sharing the implementation is what
  // guarantees the batch path's bit-identity contract.
  windowed_magnitudes_batch(record, record.size(), out);
}

void SpectralEngine::windowed_magnitudes_batch(std::span<const float> records,
                                               std::size_t record_len,
                                               std::vector<float>& out) const {
  DR_EXPECTS(record_len >= 1);
  DR_EXPECTS(record_len <= dft_size_);
  DR_EXPECTS(records.size() % record_len == 0);
  const std::size_t count = records.size() / record_len;

  out.resize(count * dft_size_);
  if (count == 0) return;

  // Window table, plan, and pad zeroing are hoisted out of the record loop;
  // each record then streams through one cache-hot padded row (windowing
  // fused with the copy) straight into its transform. Keeping the row
  // working set small beats windowing the whole matrix up front.
  Scratch& scratch = local_scratch();
  scratch.padded.resize(dft_size_);
  float* padded = scratch.padded.data();
  std::fill(padded + record_len, padded + dft_size_, 0.0F);
  const auto window = cached_window(window_, record_len);
  dsp::FftPlan& plan = dsp::local_plan_cache().get(dft_size_);
  for (std::size_t r = 0; r < count; ++r) {
    dsp::simd::multiply_f32(padded, records.data() + r * record_len,
                            window.data(), record_len);
    plan.magnitudes(std::span<const float>(padded, dft_size_),
                    std::span<float>(out.data() + r * dft_size_, dft_size_));
  }
}

}  // namespace dynriver::core
