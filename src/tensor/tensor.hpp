// Dense float32 tensor, row-major, always contiguous.
//
// This is the substrate standing in for torch.Tensor: value semantics
// (copying a Tensor copies its storage), explicit shapes, and checked
// indexing. All higher layers (nn, data, dp, fl algorithms) build on it.
#pragma once

#include <cstddef>
#include <initializer_list>
#include <span>
#include <string>
#include <vector>

#include "rng/rng.hpp"

namespace appfl::tensor {

/// Tensor shape: a list of extents. Rank 0 (scalar) is allowed.
using Shape = std::vector<std::size_t>;

/// Number of elements in a shape (product of extents; 1 for rank 0).
std::size_t numel(const Shape& shape);

/// Human-readable shape, e.g. "[4, 1, 28, 28]".
std::string to_string(const Shape& shape);

class Tensor {
 public:
  /// Empty rank-1 tensor of size 0.
  Tensor();

  /// Zero-initialized tensor of the given shape.
  explicit Tensor(Shape shape);

  /// Tensor of the given shape with explicit contents (size must match).
  Tensor(Shape shape, std::vector<float> values);

  // -- Factories ------------------------------------------------------------

  static Tensor full(Shape shape, float value);

  /// I.i.d. N(0, stddev) entries.
  static Tensor randn(Shape shape, rng::Rng& rng, float stddev = 1.0F);

  /// I.i.d. U[lo, hi) entries.
  static Tensor rand_uniform(Shape shape, rng::Rng& rng, float lo, float hi);

  /// 1-D tensor from an initializer list (convenience for tests).
  static Tensor from(std::initializer_list<float> values);

  // -- Introspection ---------------------------------------------------------

  const Shape& shape() const { return shape_; }
  std::size_t rank() const { return shape_.size(); }
  std::size_t size() const { return data_.size(); }
  std::size_t dim(std::size_t axis) const;

  std::span<float> data() { return data_; }
  std::span<const float> data() const { return data_; }

  float* raw() { return data_.data(); }
  const float* raw() const { return data_.data(); }

  // -- Element access (checked) ----------------------------------------------

  float& operator[](std::size_t flat_index);
  float operator[](std::size_t flat_index) const;

  /// N-d indexing, e.g. t.at({n, c, h, w}).
  float& at(std::initializer_list<std::size_t> idx);
  float at(std::initializer_list<std::size_t> idx) const;

  // -- Mutation ---------------------------------------------------------------

  void fill(float value);

  /// Reinterprets the buffer with a new shape of equal numel (no copy).
  void reshape(Shape new_shape);

  /// Returns a reshaped copy.
  Tensor reshaped(Shape new_shape) const;

  /// True if shapes and all elements are exactly equal.
  bool equals(const Tensor& other) const;

  /// True if shapes match and elements differ by at most `tol`.
  bool allclose(const Tensor& other, float tol = 1e-5F) const;

 private:
  Shape shape_;
  std::vector<float> data_;
};

}  // namespace appfl::tensor
