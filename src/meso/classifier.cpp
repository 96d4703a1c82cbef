#include "meso/classifier.hpp"

#include <cmath>
#include <cstring>
#include <istream>
#include <limits>
#include <ostream>

#include "common/contracts.hpp"

namespace dynriver::meso {

void MesoParams::validate() const {
  DR_EXPECTS(initial_delta_scale > 0.0);
  DR_EXPECTS(grow_rate >= 0.0 && grow_rate < 1.0);
  DR_EXPECTS(shrink_rate >= 0.0 && shrink_rate < 1.0);
  DR_EXPECTS(tree_leaf_size >= 1);
  DR_EXPECTS(query_spill >= 1.0);
}

MesoClassifier::MesoClassifier(MesoParams params) : params_(params) {
  params_.validate();
}

std::pair<std::size_t, double> MesoClassifier::nearest_sphere_linear(
    std::span<const float> features) const {
  DR_ASSERT(!spheres_.empty());
  std::size_t best = 0;
  double best_d = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < spheres_.size(); ++i) {
    const double d =
        squared_distance_bounded(spheres_[i].center(), features, best_d);
    if (d < best_d) {
      best_d = d;
      best = i;
    }
  }
  return {best, best_d};
}

void MesoClassifier::train(std::span<const float> features, Label label) {
  DR_EXPECTS(!features.empty());
  if (!patterns_.empty()) {
    DR_EXPECTS(features.size() == patterns_.front().features.size());
  }

  index_.invalidate();  // absorb() moves centres, emplace adds spheres
  const std::size_t pattern_index = patterns_.size();
  patterns_.push_back(Pattern{FeatureVec(features.begin(), features.end()), label});

  if (spheres_.empty()) {
    spheres_.emplace_back(features, label, pattern_index);
    return;
  }

  const auto [nearest, d2] = nearest_sphere_linear(features);
  const double dist = std::sqrt(d2);

  // Delta bootstraps from the first non-zero nearest-neighbour distance.
  if (delta_ == 0.0 && dist > 0.0) {
    delta_ = dist * params_.initial_delta_scale;
  }

  if (dist <= delta_) {
    const Label sphere_label = spheres_[nearest].majority_label();
    spheres_[nearest].absorb(features, label, pattern_index);
    if (label != sphere_label) {
      // Impure absorption: tighten future spheres.
      delta_ *= (1.0 - params_.shrink_rate);
    }
  } else {
    const Label nearest_label = spheres_[nearest].majority_label();
    spheres_.emplace_back(features, label, pattern_index);
    if (label == nearest_label) {
      // Same class landed outside every sphere: generalize a little.
      delta_ *= (1.0 + params_.grow_rate);
    }
  }
}

const SphereTree& MesoClassifier::tree() const {
  if (!index_.built.load(std::memory_order_acquire)) {
    common::LockGuard lock(index_.mu);
    if (!index_.built.load(std::memory_order_relaxed)) {
      index_.tree.emplace(spheres_, params_.tree_leaf_size);
      index_.built.store(true, std::memory_order_release);
    }
  }
  return *index_.tree;
}

MesoClassifier::QueryResult MesoClassifier::query(
    std::span<const float> features) const {
  QueryResult result;
  if (spheres_.empty()) return result;
  DR_EXPECTS(features.size() == patterns_.front().features.size());

  const auto found = tree().nearest(spheres_, features);
  result.sphere_index = found.sphere_index;

  if (!params_.nearest_pattern_query) {
    result.label = spheres_[found.sphere_index].majority_label();
    result.distance = std::sqrt(found.squared_dist);
    return result;
  }

  // Search member patterns of the nearest sphere, plus spheres whose center
  // distance is within query_spill of the best (boundary robustness).
  const double spill_limit =
      found.squared_dist * params_.query_spill * params_.query_spill;
  double best_d = std::numeric_limits<double>::infinity();
  Label best_label = spheres_[found.sphere_index].majority_label();

  for (std::size_t s = 0; s < spheres_.size(); ++s) {
    if (s != found.sphere_index) {
      const double center_d =
          squared_distance_bounded(spheres_[s].center(), features, spill_limit);
      if (center_d > spill_limit) continue;
    }
    for (const std::size_t pi : spheres_[s].members()) {
      const double d =
          squared_distance_bounded(patterns_[pi].features, features, best_d);
      if (d < best_d) {
        best_d = d;
        best_label = patterns_[pi].label;
      }
    }
  }
  result.label = best_label;
  result.distance = std::isfinite(best_d) ? std::sqrt(best_d) : 0.0;
  return result;
}

Label MesoClassifier::classify(std::span<const float> features) const {
  if (spheres_.empty()) return -1;
  return query(features).label;
}

void MesoClassifier::reset() {
  patterns_.clear();
  spheres_.clear();
  delta_ = 0.0;
  index_.invalidate();
}

MesoStats MesoClassifier::stats() const {
  MesoStats s;
  s.spheres = spheres_.size();
  s.patterns = patterns_.size();
  s.delta = delta_;
  if (!spheres_.empty()) {
    s.tree_nodes = tree().node_count();
    s.tree_depth = tree().depth();
    std::size_t pure_patterns = 0;
    for (const auto& sphere : spheres_) {
      if (sphere.pure()) pure_patterns += sphere.size();
    }
    s.mean_sphere_size =
        static_cast<double>(patterns_.size()) / static_cast<double>(spheres_.size());
    s.purity = patterns_.empty()
                   ? 0.0
                   : static_cast<double>(pure_patterns) /
                         static_cast<double>(patterns_.size());
  }
  return s;
}

namespace {
template <typename T>
void put(std::ostream& out, T value) {
  static_assert(std::is_trivially_copyable_v<T>);
  out.write(reinterpret_cast<const char*>(&value), sizeof(T));
}

template <typename T>
T get(std::istream& in) {
  static_assert(std::is_trivially_copyable_v<T>);
  T value;
  in.read(reinterpret_cast<char*>(&value), sizeof(T));
  if (!in) throw std::runtime_error("truncated MESO snapshot");
  return value;
}

constexpr std::uint32_t kSnapshotMagic = 0x4D45534F;  // "MESO"
}  // namespace

void MesoClassifier::save(std::ostream& out) const {
  put<std::uint32_t>(out, kSnapshotMagic);
  put<double>(out, params_.initial_delta_scale);
  put<double>(out, params_.grow_rate);
  put<double>(out, params_.shrink_rate);
  put<std::uint64_t>(out, params_.tree_leaf_size);
  put<std::uint8_t>(out, params_.nearest_pattern_query ? 1 : 0);
  put<double>(out, params_.query_spill);
  put<double>(out, delta_);

  put<std::uint64_t>(out, patterns_.size());
  const std::uint64_t dim =
      patterns_.empty() ? 0 : patterns_.front().features.size();
  put<std::uint64_t>(out, dim);
  for (const auto& p : patterns_) {
    put<std::int32_t>(out, p.label);
    out.write(reinterpret_cast<const char*>(p.features.data()),
              static_cast<std::streamsize>(dim * sizeof(float)));
  }
  // Spheres are reconstructed from membership on load.
  put<std::uint64_t>(out, spheres_.size());
  for (const auto& s : spheres_) {
    put<std::uint64_t>(out, s.members().size());
    for (const std::size_t m : s.members()) put<std::uint64_t>(out, m);
  }
}

MesoClassifier MesoClassifier::load(std::istream& in) {
  if (get<std::uint32_t>(in) != kSnapshotMagic) {
    throw std::runtime_error("not a MESO snapshot");
  }
  MesoParams params;
  params.initial_delta_scale = get<double>(in);
  params.grow_rate = get<double>(in);
  params.shrink_rate = get<double>(in);
  params.tree_leaf_size = static_cast<std::size_t>(get<std::uint64_t>(in));
  params.nearest_pattern_query = get<std::uint8_t>(in) != 0;
  params.query_spill = get<double>(in);

  MesoClassifier clf(params);
  clf.delta_ = get<double>(in);

  const auto n_patterns = get<std::uint64_t>(in);
  const auto dim = get<std::uint64_t>(in);
  clf.patterns_.reserve(n_patterns);
  for (std::uint64_t i = 0; i < n_patterns; ++i) {
    Pattern p;
    p.label = get<std::int32_t>(in);
    p.features.resize(dim);
    in.read(reinterpret_cast<char*>(p.features.data()),
            static_cast<std::streamsize>(dim * sizeof(float)));
    if (!in) throw std::runtime_error("truncated MESO snapshot");
    clf.patterns_.push_back(std::move(p));
  }

  const auto n_spheres = get<std::uint64_t>(in);
  clf.spheres_.reserve(n_spheres);
  for (std::uint64_t s = 0; s < n_spheres; ++s) {
    const auto n_members = get<std::uint64_t>(in);
    DR_ASSERT(n_members >= 1);
    std::optional<SensitivitySphere> sphere;
    for (std::uint64_t m = 0; m < n_members; ++m) {
      const auto pi = static_cast<std::size_t>(get<std::uint64_t>(in));
      DR_ASSERT(pi < clf.patterns_.size());
      const auto& pattern = clf.patterns_[pi];
      if (!sphere) {
        sphere.emplace(pattern.features, pattern.label, pi);
      } else {
        sphere->absorb(pattern.features, pattern.label, pi);
      }
    }
    clf.spheres_.push_back(std::move(*sphere));
  }
  return clf;
}

}  // namespace dynriver::meso
