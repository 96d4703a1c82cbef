// Acquisition-side record construction: a decoded clip as a scoped record
// stream (the paper's wav2rec step), plus the acoustic attribute vocabulary.
#pragma once

#include <cstdint>
#include <vector>

#include "core/params.hpp"
#include "dsp/wav.hpp"
#include "river/record.hpp"

namespace dynriver::core {

/// Attribute keys used throughout the acoustic pipeline. The definitions
/// live in river/record.hpp (stream-model vocabulary, shared with the
/// river sample-source/ensemble-sink adapters); these names keep every
/// existing core:: spelling working.
using river::kAttrSampleRate;
using river::kAttrClipId;
using river::kAttrStation;
using river::kAttrSpecies;
using river::kAttrEnsembleId;
using river::kAttrStartSample;
using river::kAttrNumSamples;

/// Split a decoded clip into a scoped record stream:
///   OpenScope(clip, attrs: sample_rate, clip_id, extra...) , Data(audio)*,
///   CloseScope(clip).
[[nodiscard]] std::vector<river::Record> clip_to_records(
    const dsp::WavClip& clip, std::uint64_t clip_id, std::size_t record_size,
    const river::AttrMap& extra_attrs = {});

}  // namespace dynriver::core
