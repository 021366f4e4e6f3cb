// Synthetic federated datasets.
//
// Stand-ins for the paper's MNIST / CIFAR10 / FEMNIST / CoronaHack (§IV-A):
// same tensor shapes, class counts, and partition structure, with learnable
// but non-trivial content. Each class has a smooth random prototype image
// (a coarse Gaussian grid, bilinearly upsampled); a sample is its class
// prototype under a per-writer style transform (contrast/brightness/
// translation) plus i.i.d. pixel noise. Difficulty is controlled by the
// noise-to-prototype ratio. Everything is a pure function of the seed.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "data/dataset.hpp"
#include "rng/rng.hpp"

namespace appfl::data {

/// A federated view of a dataset: P client training shards plus the
/// server-side test set used by the validation routine (§II-A5).
struct FederatedSplit {
  std::string name;
  std::vector<TensorDataset> clients;
  TensorDataset test;

  std::size_t num_clients() const { return clients.size(); }
  std::size_t total_train() const;
};

/// Parameters shared by the IID image generators.
struct SynthImageSpec {
  std::size_t channels = 1;
  std::size_t height = 28;
  std::size_t width = 28;
  std::size_t num_classes = 10;
  std::size_t num_clients = 4;
  std::size_t train_per_client = 256;
  std::size_t test_size = 512;
  double noise = 0.9;        // pixel-noise stddev relative to prototype scale
  std::uint64_t seed = 1;
};

/// MNIST-like: equal IID shards over 4 clients of the spec's image shape
/// (by default MNIST's 1×28×28 with 10 classes).
FederatedSplit mnist_like(const SynthImageSpec& spec = {});

/// CIFAR10-like: 3×32×32, 10 classes, harder (more noise) by default.
/// The shape is fixed: a shape field left at its default or set to the
/// preset's value is fine, any other value throws appfl::Error naming it.
FederatedSplit cifar10_like(SynthImageSpec spec = {});

/// CoronaHack-like: 1×64×64 chest-X-ray stand-in, 3 classes
/// (normal / bacterial / viral), 4 clients. Fixed shape, as cifar10_like.
FederatedSplit coronahack_like(SynthImageSpec spec = {});

/// Smart-grid scenario (the paper's other motivating domain, see abstract):
/// each client is a utility holding daily load profiles — 1×1×96 signals
/// (15-minute resolution) — classified into consumer types. Utilities have
/// regional styles (feature non-IID), and load data cannot leave the
/// utility for policy reasons, exactly the FL setting the paper targets.
struct SmartGridSpec {
  std::size_t num_classes = 4;     // residential/commercial/industrial/EV
  std::size_t num_utilities = 8;   // clients
  std::size_t train_per_utility = 64;
  std::size_t test_size = 256;
  double noise = 0.7;
  std::uint64_t seed = 1;
};

FederatedSplit smartgrid_like(const SmartGridSpec& spec = {});

/// Parameters of the FEMNIST-like non-IID generator (LEAF writer split).
struct FemnistSpec {
  std::size_t num_classes = 62;
  std::size_t num_writers = 203;   // = number of clients, as in the paper
  std::size_t mean_samples_per_writer = 180;  // ≈ 36,699 / 203
  std::size_t min_classes_per_writer = 5;
  std::size_t max_classes_per_writer = 15;
  std::size_t test_size = 2048;
  double noise = 0.9;
  std::uint64_t seed = 1;
};

/// FEMNIST-like: 1×28×28, 62 classes, one client per writer; each writer
/// draws from a personal class subset with a personal style (non-IID in both
/// labels and features) and a lognormal sample count (unbalanced).
FederatedSplit femnist_like(const FemnistSpec& spec = {});

/// A lazy FEMNIST-like client population for the event engine's sampled
/// rounds. Same statistical family as femnist_like (personal class subset,
/// personal style, heavy-tailed lognormal sample count), but each writer's
/// recipe is derived from an independent per-writer stream
/// (derive_seed(seed, {9100, id})) instead of femnist_like's one sequential
/// meta stream — so shard `id` is a pure O(shard) function of (spec, id)
/// and costs nothing until materialized. A 100k-writer population holds no
/// per-writer state at all: memory tracks the participants actually built
/// in a round, never the population. (The per-writer streams necessarily
/// draw differently from the sequential meta stream, so this generator and
/// femnist_like produce different — same-family — tasks for equal specs.)
class SyntheticPopulation {
 public:
  /// `spec.num_writers` is the population size. Validates like femnist_like.
  explicit SyntheticPopulation(FemnistSpec spec);

  std::size_t size() const { return spec_.num_writers; }
  const FemnistSpec& spec() const { return spec_; }

  /// Builds writer `id`'s training shard from scratch. Pure: every call
  /// returns bit-identical data, so transient clients can be rebuilt per
  /// participation with no stored state.
  TensorDataset materialize(std::uint32_t id) const;

  /// Server-side test set: same task (prototypes), neutral style, all
  /// classes — identical recipe to femnist_like's test set.
  TensorDataset test_set() const;

 private:
  FemnistSpec spec_;
  /// The class prototypes, built once by the constructor (62 classes of
  /// 28×28 floats at the default spec). materialize() only reads them, so
  /// concurrent calls share them.
  std::vector<float> protos_;
};

/// Low-level generator used by all of the above: draws `count` labeled
/// samples with uniform class labels and writer style `writer_id`
/// (writer 0 = neutral style). `seed` fixes the *task* — class prototypes
/// and writer styles — while `sample_stream` selects an independent draw of
/// samples from that task, so different clients of one federated dataset
/// share prototypes but see disjoint data. Exposed for tests.
/// `proto_gain` scales the class prototypes relative to the noise (1.0 for
/// the image datasets; the 1-D smart-grid profiles use a larger gain since
/// consumer types differ strongly and the 1-D prototypes have few degrees
/// of freedom).
TensorDataset generate_samples(std::size_t channels, std::size_t height,
                               std::size_t width, std::size_t num_classes,
                               std::size_t count, double noise,
                               std::uint64_t seed, std::size_t writer_id = 0,
                               const std::vector<std::size_t>* class_pool = nullptr,
                               std::uint64_t sample_stream = 0,
                               double proto_gain = 1.0);

}  // namespace appfl::data
