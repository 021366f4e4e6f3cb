#include "core/evaluation.hpp"

#include <algorithm>
#include <memory>
#include <numeric>

#include "nn/loss.hpp"
#include "tensor/ops.hpp"
#include "util/check.hpp"

namespace appfl::core {

double EvalReport::balanced_accuracy() const {
  double sum = 0.0;
  std::size_t counted = 0;
  for (double r : per_class_recall) {
    if (r >= 0.0) {
      sum += r;
      ++counted;
    }
  }
  return counted == 0 ? 0.0 : sum / static_cast<double>(counted);
}

EvalReport evaluate(nn::Module& model, std::span<const float> parameters,
                    const data::Dataset& dataset, std::size_t batch_size) {
  APPFL_CHECK(batch_size >= 1);
  model.set_flat_parameters(parameters);

  const std::size_t n = dataset.size();
  const std::size_t classes = dataset.num_classes();
  EvalReport report;
  report.samples = n;
  report.confusion.assign(classes, std::vector<std::size_t>(classes, 0));
  report.per_class_recall.assign(classes, -1.0);
  if (n == 0) return report;

  nn::CrossEntropyLoss criterion;
  std::size_t correct = 0;
  double loss_sum = 0.0;
  std::vector<std::size_t> idx;
  for (std::size_t start = 0; start < n; start += batch_size) {
    const std::size_t count = std::min(batch_size, n - start);
    idx.resize(count);
    for (std::size_t i = 0; i < count; ++i) idx[i] = start + i;
    const data::Batch batch = dataset.gather(idx);
    const nn::Tensor logits = model.forward(batch.inputs);
    loss_sum += criterion.compute(logits, batch.labels).loss *
                static_cast<double>(count);
    const auto preds = tensor::argmax_rows(logits);
    for (std::size_t i = 0; i < count; ++i) {
      const std::size_t truth = batch.labels[i];
      ++report.confusion[truth][preds[i]];
      if (preds[i] == truth) ++correct;
    }
  }
  report.accuracy = static_cast<double>(correct) / static_cast<double>(n);
  report.mean_loss = loss_sum / static_cast<double>(n);
  for (std::size_t c = 0; c < classes; ++c) {
    std::size_t total = 0;
    for (std::size_t p = 0; p < classes; ++p) total += report.confusion[c][p];
    if (total > 0) {
      report.per_class_recall[c] = static_cast<double>(report.confusion[c][c]) /
                                   static_cast<double>(total);
    }
  }
  return report;
}

std::size_t validation_tasks(const data::Dataset& test_set,
                             std::size_t batch_size) {
  APPFL_CHECK(batch_size >= 1);
  return (test_set.size() + batch_size - 1) / batch_size;
}

std::size_t count_correct(const nn::Module& model, std::span<const float> w,
                          const data::Dataset& test_set,
                          std::size_t batch_size, std::size_t task) {
  APPFL_CHECK(task < validation_tasks(test_set, batch_size));
  const std::size_t start = task * batch_size;
  const std::size_t count = std::min(batch_size, test_set.size() - start);
  std::vector<std::size_t> idx(count);
  std::iota(idx.begin(), idx.end(), start);
  const data::Batch b = test_set.gather(idx);
  const std::unique_ptr<nn::Module> replica = model.clone();
  replica->set_flat_parameters(w);
  const nn::NoGradGuard no_grad;
  const auto preds = tensor::argmax_rows(replica->forward(b.inputs));
  std::size_t correct = 0;
  for (std::size_t i = 0; i < count; ++i) {
    if (preds[i] == b.labels[i]) ++correct;
  }
  return correct;
}

double accuracy(const data::Dataset& test_set,
                std::span<const std::size_t> correct) {
  const std::size_t n = test_set.size();
  if (n == 0) return 0.0;
  const std::size_t sum =
      std::accumulate(correct.begin(), correct.end(), std::size_t{0});
  return static_cast<double>(sum) / static_cast<double>(n);
}

double validation_accuracy(const nn::Module& model, std::span<const float> w,
                           const data::Dataset& test_set,
                           std::size_t batch_size) {
  std::vector<std::size_t> correct(validation_tasks(test_set, batch_size));
  for (std::size_t t = 0; t < correct.size(); ++t) {
    correct[t] = count_correct(model, w, test_set, batch_size, t);
  }
  return accuracy(test_set, correct);
}

}  // namespace appfl::core
