#include "fixture.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <numeric>
#include <thread>

#include "common/rng.hpp"
#include "core/extractor.hpp"
#include "eval/protocol.hpp"
#include "river/wire.hpp"
#include "synth/species.hpp"
#include "synth/station.hpp"

namespace e2ebench {

namespace dr = dynriver;

namespace {

/// A real station's PCM16 front end: the grid the archive codec is built for.
void quantize_pcm16(std::vector<float>& samples) {
  for (auto& v : samples) {
    const float c = std::clamp(v, -1.0F, 1.0F);
    v = static_cast<float>(std::lround(c * 32767.0F)) / 32768.0F;
  }
}

/// Clip `index` of a pool. Singers are dealt from a seed-shuffled species
/// order in turn, so a pool whose slot count is a multiple of the species
/// count holds every species equally often whatever the seed: seeds change
/// renditions, positions and noise, not the species mix.
std::vector<float> render_clip(PoolKind kind, std::uint64_t seed,
                               std::size_t index,
                               const std::vector<std::size_t>& species_order) {
  dr::synth::StationParams params;
  std::size_t singers = 0;
  std::size_t first_slot = 0;
  switch (kind) {
    case PoolKind::kChorus:
      singers = 4;
      first_slot = index * singers;
      break;
    case PoolKind::kQuiet:
      params.distractor_probability = 0.0;
      singers = index % 4 == 0 ? 1 : 0;
      first_slot = index / 4;
      break;
  }
  dr::synth::SensorStation station(params, seed * 1000003ULL + index);
  std::vector<dr::synth::SpeciesId> chorus;
  for (std::size_t i = 0; i < singers; ++i) {
    chorus.push_back(static_cast<dr::synth::SpeciesId>(
        species_order[(first_slot + i) % species_order.size()]));
  }
  auto clip = chorus.empty() ? station.record_silence()
                             : station.record_clip(chorus);
  quantize_pcm16(clip.clip.samples);
  clip.clip.samples.resize(kClipSamples, 0.0F);
  return std::move(clip.clip.samples);
}

}  // namespace

std::vector<std::vector<float>> render_pool(PoolKind kind, std::uint64_t seed,
                                            std::size_t count,
                                            std::size_t threads) {
  std::vector<std::size_t> species_order(dr::synth::kNumSpecies);
  std::iota(species_order.begin(), species_order.end(), 0);
  dr::Rng rng(seed);
  std::shuffle(species_order.begin(), species_order.end(), rng.engine());
  std::vector<std::vector<float>> pool(count);
  parallel_for(count, threads, [&](std::size_t i) {
    pool[i] = render_clip(kind, seed, i, species_order);
  });
  return pool;
}

std::vector<float> concat_clips(const std::vector<std::vector<float>>& pool,
                                const std::vector<std::size_t>& order) {
  std::vector<float> out;
  out.reserve(order.size() * kClipSamples);
  for (const std::size_t c : order) {
    out.insert(out.end(), pool[c].begin(), pool[c].end());
  }
  return out;
}

Analyzer::Analyzer(const dr::core::PipelineParams& params,
                   dr::meso::MesoClassifier classifier)
    : features_(params), classifier_(std::move(classifier)) {}

int Analyzer::label(const std::vector<std::vector<float>>& patterns) const {
  if (patterns.empty()) return -1;
  std::vector<int> votes;
  votes.reserve(patterns.size());
  for (const auto& p : patterns) votes.push_back(classifier_.classify(p));
  return dr::eval::majority_vote(votes, dr::synth::kNumSpecies);
}

std::unique_ptr<Analyzer> trained_analyzer(
    const dr::core::PipelineParams& params) {
  constexpr std::uint64_t kTrainingSeed = 0x7EA1C0DEULL;
  constexpr int kRenditions = 4;
  dr::core::FeatureExtractor features(params);
  dr::meso::MesoClassifier classifier;
  dr::Rng rng(kTrainingSeed);
  for (int rep = 0; rep < kRenditions; ++rep) {
    for (std::size_t sp = 0; sp < dr::synth::kNumSpecies; ++sp) {
      const auto song =
          dr::synth::render_song(dr::synth::species(sp), params.sample_rate, rng);
      for (const auto& p : features.patterns(song)) {
        classifier.train(p, static_cast<dr::meso::Label>(sp));
      }
    }
  }
  // MesoClassifier::ensure_tree() builds the query index lazily inside the
  // const classify(); without this warm-up query the first classifies from
  // several lanes would race to build it.
  const std::vector<float> probe(params.features_per_pattern(), 0.0F);
  (void)classifier.classify(probe);
  return std::make_unique<Analyzer>(params, std::move(classifier));
}

Expected reference(std::span<const float> stream,
                   const dr::core::PipelineParams& params,
                   const Analyzer& analyzer) {
  const dr::core::EnsembleExtractor extractor(params);
  const auto result = extractor.extract(stream);
  Expected out;
  out.samples = stream.size();
  out.retained = result.retained_samples();
  for (const auto& e : result.ensembles) {
    out.outcomes.push_back(Outcome{.start = e.start_sample,
                                   .length = e.length(),
                                   .label = analyzer.label(analyzer.patterns(e.samples))});
    out.crcs.push_back(samples_crc(e.samples));
  }
  return out;
}

std::uint32_t samples_crc(std::span<const float> samples) {
  return dr::river::crc32(reinterpret_cast<const std::uint8_t*>(samples.data()),
                          samples.size_bytes());
}

std::uint64_t mismatches(const std::vector<Outcome>& got,
                         const std::vector<Outcome>& want) {
  const std::size_t common = std::min(got.size(), want.size());
  std::uint64_t bad = std::max(got.size(), want.size()) - common;
  for (std::size_t i = 0; i < common; ++i) {
    if (!(got[i] == want[i])) ++bad;
  }
  return bad;
}

void parallel_for(std::size_t count, std::size_t threads,
                  const std::function<void(std::size_t)>& body) {
  std::atomic<std::size_t> next{0};
  auto worker = [&] {
    for (std::size_t i = next++; i < count; i = next++) body(i);
  };
  std::vector<std::jthread> pool;
  for (std::size_t t = 1; t < std::min(threads, count); ++t) {
    pool.emplace_back(worker);
  }
  worker();
}

}  // namespace e2ebench
