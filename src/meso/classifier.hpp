// MESO: a perceptual memory system supporting online, incremental learning
// (Kasten & McKinley, TKDE 2007; used by the paper for all classification
// and detection experiments).
//
// MESO is based on the leader-follower algorithm: each training pattern is
// absorbed by the nearest sensitivity sphere if it falls within the sphere
// radius delta, otherwise it seeds a new sphere. Delta adapts during
// training: it shrinks when spheres start mixing labels and grows when
// same-label patterns keep landing just outside existing spheres. Queries
// find the nearest sphere (via the agglomerative sphere tree) and return the
// label of the most similar training pattern inside it, or the sphere's
// majority label.
#pragma once

#include <atomic>
#include <iosfwd>
#include <optional>

#include "common/thread_annotations.hpp"
#include "meso/sphere.hpp"
#include "meso/tree.hpp"
#include "meso/types.hpp"

namespace dynriver::meso {

struct MesoParams {
  /// Delta is initialized to (first non-zero nearest-neighbour distance)
  /// times this scale.
  double initial_delta_scale = 0.5;
  /// Multiplicative growth when a same-label pattern misses every sphere.
  double grow_rate = 0.05;
  /// Multiplicative shrink when a pattern of a different label lands inside
  /// an existing sphere (sphere impurity pressure).
  double shrink_rate = 0.10;
  /// Leaf capacity of the agglomerative sphere tree.
  std::size_t tree_leaf_size = 8;
  /// Answer queries from the nearest member pattern of the nearest sphere
  /// (true) or from the sphere's majority label (false).
  bool nearest_pattern_query = true;
  /// Also search the member patterns of sibling spheres whose centers are
  /// within this factor of the nearest sphere distance (robustness against
  /// sphere-boundary effects). 1.0 searches only the nearest sphere.
  double query_spill = 1.25;

  void validate() const;
};

/// Classification statistics exposed for the benches.
struct MesoStats {
  std::size_t spheres = 0;
  std::size_t patterns = 0;
  double delta = 0.0;
  std::size_t tree_nodes = 0;
  std::size_t tree_depth = 0;
  double mean_sphere_size = 0.0;
  double purity = 0.0;  ///< fraction of patterns in single-label spheres
};

class MesoClassifier final : public Classifier {
 public:
  explicit MesoClassifier(MesoParams params = {});

  void train(std::span<const float> features, Label label) override;
  [[nodiscard]] Label classify(std::span<const float> features) const override;
  void reset() override;
  [[nodiscard]] std::size_t pattern_count() const override {
    return patterns_.size();
  }

  struct QueryResult {
    Label label = -1;
    double distance = 0.0;       ///< Euclidean distance to the deciding pattern
    std::size_t sphere_index = 0;
  };
  [[nodiscard]] QueryResult query(std::span<const float> features) const;

  [[nodiscard]] double delta() const { return delta_; }
  [[nodiscard]] std::size_t sphere_count() const { return spheres_.size(); }
  [[nodiscard]] const std::vector<SensitivitySphere>& spheres() const {
    return spheres_;
  }
  [[nodiscard]] MesoStats stats() const;

  /// Binary serialization of the full trained state.
  void save(std::ostream& out) const;
  static MesoClassifier load(std::istream& in);

 private:
  /// Linear nearest-sphere scan used during training (centers move, so the
  /// tree is only maintained for queries).
  [[nodiscard]] std::pair<std::size_t, double> nearest_sphere_linear(
      std::span<const float> features) const;

  /// The query index, built on first use after train()/reset(). Safe for
  /// concurrent const callers: the first builds under `mu`, later ones see
  /// `built` and read the tree without locking.
  [[nodiscard]] const SphereTree& tree() const;

  /// Lazily built query index. train() moves sphere centres (absorb) as
  /// well as adding spheres, so any training invalidates it. A moved-to
  /// classifier starts unbuilt (the mutex and flag cannot move).
  struct QueryIndex {
    QueryIndex() = default;
    QueryIndex(QueryIndex&& /*other*/) noexcept {}
    QueryIndex& operator=(QueryIndex&& /*other*/) noexcept {
      invalidate();
      return *this;
    }
    /// Non-const callers only (no concurrent queries).
    void invalidate() {
      built.store(false, std::memory_order_relaxed);
      tree.reset();
    }

    common::Mutex mu;
    std::atomic<bool> built{false};
    /// Written under `mu` before `built` is released; read-only after.
    std::optional<SphereTree> tree;
  };

  MesoParams params_;
  std::vector<Pattern> patterns_;
  std::vector<SensitivitySphere> spheres_;
  double delta_ = 0.0;  // squared radius not stored; delta is a distance
  mutable QueryIndex index_;
};

}  // namespace dynriver::meso
