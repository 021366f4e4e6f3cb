#include "tensor/tensor.hpp"

#include <cmath>
#include <sstream>

#include "rng/distributions.hpp"
#include "util/check.hpp"

namespace appfl::tensor {

std::size_t numel(const Shape& shape) {
  std::size_t n = 1;
  for (std::size_t d : shape) n *= d;
  return n;
}

std::string to_string(const Shape& shape) {
  std::ostringstream os;
  os << '[';
  for (std::size_t i = 0; i < shape.size(); ++i) {
    if (i > 0) os << ", ";
    os << shape[i];
  }
  os << ']';
  return os.str();
}

Tensor::Tensor() : shape_{0} {}

Tensor::Tensor(Shape shape) : shape_(std::move(shape)), data_(numel(shape_), 0.0F) {}

Tensor::Tensor(Shape shape, std::vector<float> values)
    : shape_(std::move(shape)), data_(std::move(values)) {
  APPFL_CHECK_MSG(data_.size() == numel(shape_),
                  "value count " << data_.size() << " != numel of shape "
                                 << to_string(shape_));
}

Tensor Tensor::full(Shape shape, float value) {
  Tensor t(std::move(shape));
  t.fill(value);
  return t;
}

Tensor Tensor::randn(Shape shape, rng::Rng& rng, float stddev) {
  Tensor t(std::move(shape));
  rng::fill_normal(rng, t.data(), stddev);
  return t;
}

Tensor Tensor::rand_uniform(Shape shape, rng::Rng& rng, float lo, float hi) {
  Tensor t(std::move(shape));
  for (auto& v : t.data()) {
    v = static_cast<float>(rng::uniform(rng, lo, hi));
  }
  return t;
}

Tensor Tensor::from(std::initializer_list<float> values) {
  return Tensor({values.size()}, std::vector<float>(values));
}

std::size_t Tensor::dim(std::size_t axis) const {
  APPFL_CHECK_MSG(axis < shape_.size(),
                  "axis " << axis << " out of range for rank " << rank());
  return shape_[axis];
}

float& Tensor::operator[](std::size_t flat_index) {
  APPFL_CHECK_MSG(flat_index < data_.size(),
                  "flat index " << flat_index << " >= size " << data_.size());
  return data_[flat_index];
}

float Tensor::operator[](std::size_t flat_index) const {
  APPFL_CHECK_MSG(flat_index < data_.size(),
                  "flat index " << flat_index << " >= size " << data_.size());
  return data_[flat_index];
}

namespace {

/// Row-major offset of the N-d index `idx` into a tensor of `shape`.
std::size_t flat_offset(const Shape& shape,
                        std::initializer_list<std::size_t> idx) {
  APPFL_CHECK_MSG(idx.size() == shape.size(), "index rank "
                                                  << idx.size()
                                                  << " != tensor rank "
                                                  << shape.size());
  std::size_t flat = 0;
  std::size_t axis = 0;
  for (std::size_t i : idx) {
    APPFL_CHECK_MSG(i < shape[axis], "index " << i << " out of range on axis "
                                              << axis << " (extent "
                                              << shape[axis] << ")");
    flat = flat * shape[axis] + i;
    ++axis;
  }
  return flat;
}

}  // namespace

float& Tensor::at(std::initializer_list<std::size_t> idx) {
  return data_[flat_offset(shape_, idx)];
}

float Tensor::at(std::initializer_list<std::size_t> idx) const {
  return data_[flat_offset(shape_, idx)];
}

void Tensor::fill(float value) {
  for (auto& v : data_) v = value;
}

void Tensor::reshape(Shape new_shape) {
  APPFL_CHECK_MSG(numel(new_shape) == data_.size(),
                  "reshape " << to_string(shape_) << " -> "
                             << to_string(new_shape) << " changes numel");
  shape_ = std::move(new_shape);
}

Tensor Tensor::reshaped(Shape new_shape) const {
  Tensor t = *this;
  t.reshape(std::move(new_shape));
  return t;
}

bool Tensor::equals(const Tensor& other) const {
  return shape_ == other.shape_ && data_ == other.data_;
}

bool Tensor::allclose(const Tensor& other, float tol) const {
  if (shape_ != other.shape_) return false;
  for (std::size_t i = 0; i < data_.size(); ++i) {
    if (std::abs(data_[i] - other.data_[i]) > tol) return false;
  }
  return true;
}

}  // namespace appfl::tensor
