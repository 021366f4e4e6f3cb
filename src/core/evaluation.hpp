// Evaluation beyond plain accuracy: loss, per-class recall, and a confusion
// matrix — what a user actually inspects before deploying a federated model
// (and what surfaces class-skew pathologies in non-IID runs).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "data/dataset.hpp"
#include "nn/module.hpp"

namespace appfl::core {

struct EvalReport {
  double accuracy = 0.0;
  double mean_loss = 0.0;                 // cross-entropy
  std::vector<double> per_class_recall;   // −1 for classes with no samples
  /// confusion[true][predicted] = count.
  std::vector<std::vector<std::size_t>> confusion;
  std::size_t samples = 0;

  /// Balanced accuracy: mean recall over classes that have samples.
  double balanced_accuracy() const;
};

/// Evaluates `parameters` (flat vector, set into `model`) on `dataset` in
/// mini-batches of `batch_size`.
EvalReport evaluate(nn::Module& model, std::span<const float> parameters,
                    const data::Dataset& dataset, std::size_t batch_size = 256);

/// The validation loop every FL loop runs: validation of `w` on `test_set`
/// is one task per `batch_size` batch in test-set order. count_correct runs
/// batch `task` through its own clone of `model` under nn::NoGradGuard and
/// counts the correct predictions; accuracy() turns all tasks' counts into
/// the test accuracy (0 for an empty test set). Tasks only read their
/// arguments, so they may run on any thread while nothing writes `model`.
/// `model` itself never runs: its layer caches stay as they were.
std::size_t validation_tasks(const data::Dataset& test_set,
                             std::size_t batch_size);
std::size_t count_correct(const nn::Module& model, std::span<const float> w,
                          const data::Dataset& test_set,
                          std::size_t batch_size, std::size_t task);
double accuracy(const data::Dataset& test_set,
                std::span<const std::size_t> correct);

/// Accuracy of `w` on `test_set`: every validation task, run inline on the
/// calling thread.
double validation_accuracy(const nn::Module& model, std::span<const float> w,
                           const data::Dataset& test_set,
                           std::size_t batch_size);

}  // namespace appfl::core
