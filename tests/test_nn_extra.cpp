// The no-grad guard: every layer that caches activations for backward.
#include <gtest/gtest.h>

#include "util/check.hpp"

#include <cmath>
#include <cstring>
#include <functional>
#include <string>
#include <thread>

#include "nn/activation.hpp"
#include "nn/conv2d.hpp"
#include "nn/flatten.hpp"
#include "nn/linear.hpp"
#include "nn/maxpool2d.hpp"
#include "nn/model_zoo.hpp"
#include "nn/sequential.hpp"

namespace {

using appfl::nn::Module;
using appfl::nn::NoGradGuard;
using appfl::nn::Tensor;
using appfl::nn::grad_enabled;
using appfl::tensor::Shape;

bool same_bits(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.raw(), b.raw(), a.size() * sizeof(float)) == 0;
}

/// The message `m.backward(g)` throws (empty when it does not throw).
std::string backward_error(Module& m, const Tensor& g) {
  try {
    m.backward(g);
  } catch (const appfl::Error& e) {
    return e.what();
  }
  return "";
}

/// Every layer that caches activations for backward, and a Sequential.
struct NoGradCase {
  const char* name;
  std::function<std::unique_ptr<Module>()> make;
  Shape input;
};

std::vector<NoGradCase> no_grad_cases() {
  return {
      {"Linear",
       [] {
         appfl::rng::Rng r(1);
         return std::make_unique<appfl::nn::Linear>(6, 4, r);
       },
       {3, 6}},
      {"Conv2d",
       [] {
         appfl::rng::Rng r(2);
         return std::make_unique<appfl::nn::Conv2d>(2, 3, 3, r, 1, 1);
       },
       {2, 2, 5, 5}},
      {"ReLU", [] { return std::make_unique<appfl::nn::ReLU>(); }, {2, 7}},
      {"MaxPool2d", [] { return std::make_unique<appfl::nn::MaxPool2d>(2, 2); },
       {2, 3, 4, 4}},
      {"Flatten", [] { return std::make_unique<appfl::nn::Flatten>(); },
       {2, 3, 4, 4}},
      {"Sequential",
       [] {
         appfl::rng::Rng r(3);
         return appfl::nn::paper_cnn(1, 8, 8, 5, r);
       },
       {2, 1, 8, 8}},
  };
}

TEST(NoGrad, ForwardKeepsItsBitsAndLeavesNothingForBackward) {
  for (const NoGradCase& c : no_grad_cases()) {
    SCOPED_TRACE(c.name);
    appfl::rng::Rng r(7);
    const Tensor x = Tensor::randn(c.input, r);
    auto plain = c.make();
    auto guarded = c.make();
    const Tensor y = plain->forward(x);
    Tensor y_guarded;
    {
      const NoGradGuard no_grad;
      y_guarded = guarded->forward(x);
    }
    EXPECT_TRUE(same_bits(y_guarded, y));

    // A guarded forward leaves what a layer that never ran forward has: its
    // backward throws that layer's existing before-forward error.
    const Tensor g = Tensor::randn(y.shape(), r);
    const std::string fresh_error = backward_error(*c.make(), g);
    ASSERT_FALSE(fresh_error.empty());
    EXPECT_EQ(backward_error(*guarded, g), fresh_error);

    // An unguarded forward still feeds backward; a guarded forward after it
    // drops the cache again.
    EXPECT_EQ(backward_error(*plain, g), "");
    {
      const NoGradGuard no_grad;
      EXPECT_TRUE(same_bits(plain->forward(x), y));
    }
    EXPECT_EQ(backward_error(*plain, g), fresh_error);
  }
}

TEST(NoGrad, GuardsNestRestoreAndStayOnTheirThread) {
  EXPECT_TRUE(grad_enabled());
  {
    const NoGradGuard outer;
    EXPECT_FALSE(grad_enabled());
    {
      const NoGradGuard inner;
      EXPECT_FALSE(grad_enabled());
    }
    EXPECT_FALSE(grad_enabled());
    bool other_thread = false;
    std::thread([&] { other_thread = grad_enabled(); }).join();
    EXPECT_TRUE(other_thread);
  }
  EXPECT_TRUE(grad_enabled());
}

}  // namespace
