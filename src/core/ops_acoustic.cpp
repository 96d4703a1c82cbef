#include "core/ops_acoustic.hpp"

#include <algorithm>

#include "common/contracts.hpp"

namespace dynriver::core {

using river::Record;

std::vector<Record> clip_to_records(const dsp::WavClip& clip,
                                    std::uint64_t clip_id,
                                    std::size_t record_size,
                                    const river::AttrMap& extra_attrs) {
  DR_EXPECTS(record_size >= 1);
  DR_EXPECTS(clip.sample_rate > 0);

  const auto mono = dsp::to_mono(clip);
  std::vector<Record> out;
  out.reserve(mono.size() / record_size + 3);

  Record open = Record::open_scope(river::kScopeClip, 0);
  open.set_attr(kAttrSampleRate, static_cast<double>(clip.sample_rate));
  open.set_attr(kAttrClipId, static_cast<std::int64_t>(clip_id));
  open.set_attr(kAttrNumSamples, static_cast<std::int64_t>(mono.size()));
  for (const auto& [key, value] : extra_attrs) open.set_attr(key, value);
  out.push_back(std::move(open));

  for (std::size_t start = 0; start < mono.size(); start += record_size) {
    const std::size_t len = std::min(record_size, mono.size() - start);
    river::FloatVec payload(mono.begin() + static_cast<std::ptrdiff_t>(start),
                            mono.begin() + static_cast<std::ptrdiff_t>(start + len));
    Record rec = Record::data(river::kSubtypeAudio, std::move(payload));
    rec.scope_depth = 1;
    out.push_back(std::move(rec));
  }

  out.push_back(Record::close_scope(river::kScopeClip, 0));
  return out;
}

}  // namespace dynriver::core
