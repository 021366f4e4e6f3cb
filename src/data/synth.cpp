#include "data/synth.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <utility>

#include "rng/distributions.hpp"
#include "util/check.hpp"

namespace appfl::data {

std::size_t FederatedSplit::total_train() const {
  std::size_t n = 0;
  for (const auto& c : clients) n += c.size();
  return n;
}

namespace {

// Stream-purpose tags for seed derivation, so prototype content, writer
// styles and per-sample noise are independent streams of the same base seed.
constexpr std::uint64_t kProtoStream = 101;
constexpr std::uint64_t kStyleStream = 202;
constexpr std::uint64_t kSampleStream = 303;

constexpr std::size_t kCoarse = 7;  // coarse prototype grid extent

/// Bilinearly upsamples a kCoarse×kCoarse grid to h×w.
void upsample(const float* coarse, float* out, std::size_t h, std::size_t w) {
  for (std::size_t y = 0; y < h; ++y) {
    const double fy = (h == 1) ? 0.0
                               : static_cast<double>(y) * (kCoarse - 1) /
                                     static_cast<double>(h - 1);
    const std::size_t y0 = static_cast<std::size_t>(fy);
    const std::size_t y1 = std::min(y0 + 1, kCoarse - 1);
    const double wy = fy - static_cast<double>(y0);
    for (std::size_t x = 0; x < w; ++x) {
      const double fx = (w == 1) ? 0.0
                                 : static_cast<double>(x) * (kCoarse - 1) /
                                       static_cast<double>(w - 1);
      const std::size_t x0 = static_cast<std::size_t>(fx);
      const std::size_t x1 = std::min(x0 + 1, kCoarse - 1);
      const double wx = fx - static_cast<double>(x0);
      const double v00 = coarse[y0 * kCoarse + x0];
      const double v01 = coarse[y0 * kCoarse + x1];
      const double v10 = coarse[y1 * kCoarse + x0];
      const double v11 = coarse[y1 * kCoarse + x1];
      out[y * w + x] = static_cast<float>((1 - wy) * ((1 - wx) * v00 + wx * v01) +
                                          wy * ((1 - wx) * v10 + wx * v11));
    }
  }
}

/// Class prototypes for a dataset seed: [num_classes][channels][h][w].
/// Deterministic in (seed, class, channel) — identical for every writer.
std::vector<float> make_prototypes(std::size_t channels, std::size_t h,
                                   std::size_t w, std::size_t num_classes,
                                   std::uint64_t seed) {
  std::vector<float> protos(num_classes * channels * h * w);
  for (std::size_t c = 0; c < num_classes; ++c) {
    for (std::size_t ch = 0; ch < channels; ++ch) {
      rng::Rng r(rng::derive_seed(seed, {kProtoStream, c, ch}));
      float coarse[kCoarse * kCoarse];
      rng::fill_normal(r, coarse, 1.0);
      upsample(coarse, protos.data() + (c * channels + ch) * h * w, h, w);
    }
  }
  return protos;
}

struct WriterStyle {
  float contrast = 1.0F;
  float brightness = 0.0F;
  long shift_y = 0;
  long shift_x = 0;
};

WriterStyle make_style(std::uint64_t seed, std::size_t writer_id,
                       std::size_t height, std::size_t width) {
  if (writer_id == 0) return {};  // writer 0 is the neutral/global style
  rng::Rng r(rng::derive_seed(seed, {kStyleStream, writer_id}));
  WriterStyle s;
  s.contrast = static_cast<float>(rng::lognormal(r, 0.0, 0.2));
  s.brightness = static_cast<float>(rng::normal(r, 0.0, 0.3));
  s.shift_y = static_cast<long>(r.uniform_below(5)) - 2;
  s.shift_x = static_cast<long>(r.uniform_below(5)) - 2;
  // A translation must not push the prototype (mostly) out of frame: thin
  // extents (e.g. 1×96 load profiles) get no shift along that axis.
  if (height < 8) s.shift_y = 0;
  if (width < 8) s.shift_x = 0;
  return s;
}

/// generate_samples over prototypes already built by make_prototypes for
/// the same (channels, height, width, num_classes, seed). Data sets and
/// populations build their prototypes once and draw every writer from them.
TensorDataset draw_samples(const std::vector<float>& protos,
                           std::size_t channels, std::size_t height,
                           std::size_t width, std::size_t num_classes,
                           std::size_t count, double noise, std::uint64_t seed,
                           std::size_t writer_id,
                           const std::vector<std::size_t>* class_pool,
                           std::uint64_t sample_stream, double proto_gain) {
  APPFL_CHECK(channels > 0 && height > 0 && width > 0 && num_classes > 0);
  APPFL_CHECK(proto_gain > 0.0);
  APPFL_CHECK(protos.size() == num_classes * channels * height * width);
  const WriterStyle style = make_style(seed, writer_id, height, width);
  rng::Rng r(rng::derive_seed(seed, {kSampleStream, writer_id, sample_stream}));

  Tensor inputs({count, channels, height, width});
  std::vector<std::size_t> labels(count);
  float* out = inputs.raw();
  const std::size_t plane = height * width;
  std::vector<float> pixel_noise(channels * plane);

  for (std::size_t i = 0; i < count; ++i) {
    std::size_t label;
    if (class_pool != nullptr) {
      APPFL_CHECK(!class_pool->empty());
      label = (*class_pool)[r.uniform_below(class_pool->size())];
      APPFL_CHECK(label < num_classes);
    } else {
      label = r.uniform_below(num_classes);
    }
    labels[i] = label;
    rng::fill_normal(r, pixel_noise, noise);
    for (std::size_t ch = 0; ch < channels; ++ch) {
      const float* proto = protos.data() + (label * channels + ch) * plane;
      const float* eps = pixel_noise.data() + ch * plane;
      float* dst = out + (i * channels + ch) * plane;
      for (std::size_t y = 0; y < height; ++y) {
        const long sy = static_cast<long>(y) - style.shift_y;
        for (std::size_t x = 0; x < width; ++x) {
          const long sx = static_cast<long>(x) - style.shift_x;
          float base = 0.0F;
          if (sy >= 0 && sy < static_cast<long>(height) && sx >= 0 &&
              sx < static_cast<long>(width)) {
            base = proto[sy * static_cast<long>(width) + sx];
          }
          dst[y * width + x] =
              style.contrast * static_cast<float>(proto_gain) * base +
              style.brightness + eps[y * width + x];
        }
      }
    }
  }
  return TensorDataset(std::move(inputs), std::move(labels), num_classes);
}

}  // namespace

TensorDataset generate_samples(std::size_t channels, std::size_t height,
                               std::size_t width, std::size_t num_classes,
                               std::size_t count, double noise,
                               std::uint64_t seed, std::size_t writer_id,
                               const std::vector<std::size_t>* class_pool,
                               std::uint64_t sample_stream,
                               double proto_gain) {
  return draw_samples(
      make_prototypes(channels, height, width, num_classes, seed), channels,
      height, width, num_classes, count, noise, seed, writer_id, class_pool,
      sample_stream, proto_gain);
}

namespace {

FederatedSplit iid_image_split(std::string name, const SynthImageSpec& spec) {
  FederatedSplit split;
  split.name = std::move(name);
  split.clients.reserve(spec.num_clients);
  const auto protos = make_prototypes(spec.channels, spec.height, spec.width,
                                      spec.num_classes, spec.seed);
  for (std::size_t p = 0; p < spec.num_clients; ++p) {
    // Every client draws fresh samples from the same (global) task — same
    // prototypes, independent sample stream — an IID split, like the paper's
    // 4-way splits of MNIST/CIFAR10/CoronaHack.
    split.clients.push_back(draw_samples(
        protos, spec.channels, spec.height, spec.width, spec.num_classes,
        spec.train_per_client, spec.noise, spec.seed, /*writer_id=*/0,
        /*class_pool=*/nullptr, /*sample_stream=*/p + 1, /*proto_gain=*/1.0));
  }
  split.test = draw_samples(protos, spec.channels, spec.height, spec.width,
                            spec.num_classes, spec.test_size, spec.noise,
                            spec.seed, /*writer_id=*/0,
                            /*class_pool=*/nullptr,
                            /*sample_stream=*/999999, /*proto_gain=*/1.0);
  return split;
}

/// Sets a fixed-shape preset's {channels, height, width, num_classes}. A
/// field the caller left at SynthImageSpec's default or set to the
/// preset's own value takes the preset's; any other value throws, naming
/// the field, instead of being dropped.
void fix_shape(SynthImageSpec& spec, const char* preset,
               const std::array<std::size_t, 4>& shape) {
  using Field = std::size_t SynthImageSpec::*;
  static constexpr std::pair<Field, const char*> kFields[] = {
      {&SynthImageSpec::channels, "channels"},
      {&SynthImageSpec::height, "height"},
      {&SynthImageSpec::width, "width"},
      {&SynthImageSpec::num_classes, "num_classes"}};
  const SynthImageSpec defaults;
  for (std::size_t i = 0; i < shape.size(); ++i) {
    const auto [field, name] = kFields[i];
    APPFL_CHECK_MSG(spec.*field == defaults.*field || spec.*field == shape[i],
                    preset << " has a fixed " << name << " of " << shape[i]
                           << ", got " << spec.*field);
    spec.*field = shape[i];
  }
}

}  // namespace

FederatedSplit mnist_like(const SynthImageSpec& spec) {
  return iid_image_split("mnist-like", spec);
}

FederatedSplit cifar10_like(SynthImageSpec spec) {
  fix_shape(spec, "cifar10_like", {3, 32, 32, 10});
  if (spec.noise == SynthImageSpec{}.noise) spec.noise = 1.4;  // harder
  return iid_image_split("cifar10-like", spec);
}

FederatedSplit coronahack_like(SynthImageSpec spec) {
  fix_shape(spec, "coronahack_like", {1, 64, 64, 3});
  return iid_image_split("coronahack-like", spec);
}

FederatedSplit smartgrid_like(const SmartGridSpec& spec) {
  APPFL_CHECK(spec.num_utilities >= 1);
  FederatedSplit split;
  split.name = "smartgrid-like";
  split.clients.reserve(spec.num_utilities);
  constexpr std::size_t kIntervals = 96;  // 24h at 15-minute resolution
  // 1-D profiles have few prototype degrees of freedom, so boost the class
  // signal: consumer types differ strongly in reality.
  constexpr double kProfileGain = 3.0;
  const auto protos =
      make_prototypes(1, 1, kIntervals, spec.num_classes, spec.seed);
  for (std::size_t u = 0; u < spec.num_utilities; ++u) {
    // Each utility has its own regional style (writer transform) over the
    // shared consumer-type prototypes — feature-level non-IID.
    split.clients.push_back(draw_samples(
        protos, 1, 1, kIntervals, spec.num_classes, spec.train_per_utility,
        spec.noise, spec.seed, /*writer_id=*/u + 1, /*class_pool=*/nullptr,
        /*sample_stream=*/0, kProfileGain));
  }
  split.test = draw_samples(protos, 1, 1, kIntervals, spec.num_classes,
                            spec.test_size, spec.noise, spec.seed,
                            /*writer_id=*/0, /*class_pool=*/nullptr,
                            /*sample_stream=*/999999, kProfileGain);
  return split;
}

FederatedSplit femnist_like(const FemnistSpec& spec) {
  APPFL_CHECK(spec.num_writers > 0);
  APPFL_CHECK(spec.min_classes_per_writer >= 1);
  APPFL_CHECK(spec.max_classes_per_writer >= spec.min_classes_per_writer);
  APPFL_CHECK(spec.max_classes_per_writer <= spec.num_classes);

  FederatedSplit split;
  split.name = "femnist-like";
  split.clients.reserve(spec.num_writers);

  constexpr std::size_t kH = 28, kW = 28, kC = 1;
  const auto protos = make_prototypes(kC, kH, kW, spec.num_classes, spec.seed);
  rng::Rng meta(rng::derive_seed(spec.seed, {9000}));

  for (std::size_t w = 0; w < spec.num_writers; ++w) {
    // Personal class subset (label non-IID-ness).
    const std::size_t k =
        spec.min_classes_per_writer +
        meta.uniform_below(spec.max_classes_per_writer -
                           spec.min_classes_per_writer + 1);
    std::vector<std::size_t> all(spec.num_classes);
    for (std::size_t c = 0; c < spec.num_classes; ++c) all[c] = c;
    rng::shuffle(meta, std::span<std::size_t>(all));
    std::vector<std::size_t> pool(all.begin(), all.begin() + static_cast<long>(k));

    // Unbalanced sample count (LEAF's counts are heavy-tailed).
    const double ln = rng::lognormal(meta, 0.0, 0.45);
    std::size_t count = static_cast<std::size_t>(
        std::max(8.0, ln * static_cast<double>(spec.mean_samples_per_writer)));

    split.clients.push_back(draw_samples(
        protos, kC, kH, kW, spec.num_classes, count, spec.noise, spec.seed,
        /*writer_id=*/w + 1, &pool, /*sample_stream=*/0, /*proto_gain=*/1.0));
  }

  // Server test set: same task (prototypes), neutral style, all classes.
  split.test = draw_samples(protos, kC, kH, kW, spec.num_classes,
                            spec.test_size, spec.noise, spec.seed,
                            /*writer_id=*/0, /*class_pool=*/nullptr,
                            /*sample_stream=*/999999, /*proto_gain=*/1.0);
  return split;
}

namespace {

/// Every SyntheticPopulation writer draws 1×28×28 images.
constexpr std::size_t kC = 1, kH = 28, kW = 28;

/// A writer's personal recipe — class pool and sample count — drawn from a
/// per-writer stream so it is a pure O(num_classes) function of (spec, id).
/// The draw order matches femnist_like's per-writer block exactly; only the
/// stream it draws from differs (independent {9100, id} vs sequential
/// {9000}).
struct WriterRecipe {
  std::vector<std::size_t> pool;
  std::size_t count = 0;
};

WriterRecipe writer_recipe(const FemnistSpec& spec, std::uint32_t id) {
  rng::Rng meta(rng::derive_seed(spec.seed, {9100, id}));
  WriterRecipe recipe;
  const std::size_t k =
      spec.min_classes_per_writer +
      meta.uniform_below(spec.max_classes_per_writer -
                         spec.min_classes_per_writer + 1);
  std::vector<std::size_t> all(spec.num_classes);
  for (std::size_t c = 0; c < spec.num_classes; ++c) all[c] = c;
  rng::shuffle(meta, std::span<std::size_t>(all));
  recipe.pool.assign(all.begin(), all.begin() + static_cast<long>(k));
  const double ln = rng::lognormal(meta, 0.0, 0.45);
  recipe.count = static_cast<std::size_t>(
      std::max(8.0, ln * static_cast<double>(spec.mean_samples_per_writer)));
  return recipe;
}

}  // namespace

SyntheticPopulation::SyntheticPopulation(FemnistSpec spec)
    : spec_(std::move(spec)) {
  APPFL_CHECK(spec_.num_writers > 0);
  APPFL_CHECK(spec_.min_classes_per_writer >= 1);
  APPFL_CHECK(spec_.max_classes_per_writer >= spec_.min_classes_per_writer);
  APPFL_CHECK(spec_.max_classes_per_writer <= spec_.num_classes);
  protos_ = make_prototypes(kC, kH, kW, spec_.num_classes, spec_.seed);
}

std::size_t SyntheticPopulation::sample_count(std::uint32_t id) const {
  APPFL_CHECK_MSG(id >= 1 && id <= spec_.num_writers,
                  "writer " << id << " outside population of "
                            << spec_.num_writers);
  return writer_recipe(spec_, id).count;
}

TensorDataset SyntheticPopulation::materialize(std::uint32_t id) const {
  APPFL_CHECK_MSG(id >= 1 && id <= spec_.num_writers,
                  "writer " << id << " outside population of "
                            << spec_.num_writers);
  const WriterRecipe recipe = writer_recipe(spec_, id);
  return draw_samples(protos_, kC, kH, kW, spec_.num_classes, recipe.count,
                      spec_.noise, spec_.seed, /*writer_id=*/id, &recipe.pool,
                      /*sample_stream=*/0, /*proto_gain=*/1.0);
}

TensorDataset SyntheticPopulation::test_set() const {
  return draw_samples(protos_, kC, kH, kW, spec_.num_classes, spec_.test_size,
                      spec_.noise, spec_.seed, /*writer_id=*/0,
                      /*class_pool=*/nullptr, /*sample_stream=*/999999,
                      /*proto_gain=*/1.0);
}

}  // namespace appfl::data
