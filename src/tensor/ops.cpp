#include "tensor/ops.hpp"

#include <algorithm>
#include <cmath>

#include "util/check.hpp"

namespace appfl::tensor {

void add_inplace(Tensor& a, const Tensor& b) {
  APPFL_CHECK_MSG(a.shape() == b.shape(),
                  "add_inplace: shape mismatch " << to_string(a.shape())
                                                 << " vs "
                                                 << to_string(b.shape()));
  auto ad = a.data();
  auto bd = b.data();
  for (std::size_t i = 0; i < ad.size(); ++i) ad[i] += bd[i];
}

void axpy(float alpha, std::span<const float> x, std::span<float> y) {
  APPFL_CHECK(x.size() == y.size());
  for (std::size_t i = 0; i < x.size(); ++i) y[i] += alpha * x[i];
}

void scal(float alpha, std::span<float> x) {
  for (auto& v : x) v *= alpha;
}

double dot(std::span<const float> x, std::span<const float> y) {
  APPFL_CHECK(x.size() == y.size());
  double acc = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    acc += static_cast<double>(x[i]) * static_cast<double>(y[i]);
  }
  return acc;
}

double norm2(std::span<const float> x) { return std::sqrt(dot(x, x)); }

void copy(std::span<const float> src, std::span<float> dst) {
  APPFL_CHECK(src.size() == dst.size());
  std::copy(src.begin(), src.end(), dst.begin());
}

float clip_norm(std::span<float> x, float max_norm) {
  APPFL_CHECK(max_norm > 0.0F);
  const double n = norm2(x);
  if (n <= static_cast<double>(max_norm) || n == 0.0) return 1.0F;
  const float factor = static_cast<float>(static_cast<double>(max_norm) / n);
  scal(factor, x);
  return factor;
}

std::vector<std::size_t> argmax_rows(const Tensor& t) {
  APPFL_CHECK_MSG(t.rank() == 2, "argmax_rows expects rank 2, got "
                                     << to_string(t.shape()));
  const std::size_t rows = t.dim(0);
  const std::size_t cols = t.dim(1);
  APPFL_CHECK(cols > 0);
  std::vector<std::size_t> out(rows);
  auto d = t.data();
  for (std::size_t r = 0; r < rows; ++r) {
    std::size_t best = 0;
    float best_v = d[r * cols];
    for (std::size_t c = 1; c < cols; ++c) {
      const float v = d[r * cols + c];
      if (v > best_v) {
        best_v = v;
        best = c;
      }
    }
    out[r] = best;
  }
  return out;
}

Tensor softmax_rows(const Tensor& t) {
  APPFL_CHECK_MSG(t.rank() == 2, "softmax_rows expects rank 2, got "
                                     << to_string(t.shape()));
  const std::size_t rows = t.dim(0);
  const std::size_t cols = t.dim(1);
  Tensor out = t;
  auto d = out.data();
  for (std::size_t r = 0; r < rows; ++r) {
    float* row = d.data() + r * cols;
    float mx = row[0];
    for (std::size_t c = 1; c < cols; ++c) mx = std::max(mx, row[c]);
    double z = 0.0;
    for (std::size_t c = 0; c < cols; ++c) {
      row[c] = std::exp(row[c] - mx);
      z += row[c];
    }
    const float inv = static_cast<float>(1.0 / z);
    for (std::size_t c = 0; c < cols; ++c) row[c] *= inv;
  }
  return out;
}

}  // namespace appfl::tensor
