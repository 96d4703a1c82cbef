#include "core/params.hpp"

#include <cmath>
#include <string>

#include "common/contracts.hpp"

namespace dynriver::core {

std::size_t PipelineParams::cutout_lo_bin() const {
  const double k = cutout_lo_hz * static_cast<double>(dft_size) / sample_rate;
  return static_cast<std::size_t>(std::ceil(k - 1e-9));
}

std::size_t PipelineParams::cutout_hi_bin() const {
  const double k = cutout_hi_hz * static_cast<double>(dft_size) / sample_rate;
  const auto bin = static_cast<std::size_t>(std::ceil(k - 1e-9));
  return std::min(bin, dft_size / 2 + 1);
}

std::size_t PipelineParams::bins_per_record() const {
  return cutout_hi_bin() - cutout_lo_bin();
}

std::size_t PipelineParams::features_per_record() const {
  const std::size_t bins = bins_per_record();
  if (!use_paa) return bins;
  return (bins + paa_factor - 1) / paa_factor;
}

std::size_t PipelineParams::features_per_pattern() const {
  return features_per_record() * pattern_merge;
}

double PipelineParams::pattern_seconds() const {
  // Patterns advance by `pattern_stride` records; with reslice the record
  // hop is half a record, without it a full record.
  const double hop_samples =
      reslice ? static_cast<double>(record_size) / 2.0
              : static_cast<double>(record_size);
  return static_cast<double>(pattern_stride) * hop_samples / sample_rate;
}

void PipelineParams::validate() const {
  DR_EXPECTS(sample_rate > 0.0);
  DR_EXPECTS(record_size >= 8);
  anomaly.validate();
  DR_EXPECTS(trigger_sigma > 0.0);
  DR_EXPECTS(dft_size >= record_size);
  DR_EXPECTS(cutout_lo_hz >= 0.0);
  DR_EXPECTS(cutout_hi_hz > cutout_lo_hz);
  DR_EXPECTS(cutout_hi_hz <= sample_rate / 2.0);
  DR_EXPECTS(paa_factor >= 1);
  DR_EXPECTS(pattern_merge >= 1);
  DR_EXPECTS(pattern_stride >= 1);
  DR_EXPECTS(bins_per_record() >= 1);
}

std::string pipeline_diagram(const PipelineParams& params) {
  params.validate();
  std::string out =
      "sensor -> readout -> storage -> data feed -> wav2rec -> saxanomaly -> "
      "trigger -> cutter";
  if (params.reslice) out += " -> reslice";
  out += " -> welchwindow -> float2cplx -> dft -> cabs -> cutout";
  if (params.use_paa && params.paa_factor > 1) out += " -> paa";
  out += " -> rec2vect -> MESO";
  return out;
}

}  // namespace dynriver::core
