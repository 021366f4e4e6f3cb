// Fast comm data path: CRC32 fold and portable-twin bit-identity, fp16 codec
// bounds, pooled zero-copy encode/decode equivalence, and deterministic
// parallel aggregation.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "comm/buffer_pool.hpp"
#include "comm/compression.hpp"
#include "comm/envelope.hpp"
#include "comm/message.hpp"
#include "core/aggregate.hpp"
#include "rng/distributions.hpp"
#include "scoped_kernel_config.hpp"
#include "util/check.hpp"

namespace {

using appfl::testutil::ScopedKernelConfig;

std::vector<std::uint8_t> random_bytes(std::uint64_t seed, std::size_t n) {
  appfl::rng::Rng r(seed);
  std::vector<std::uint8_t> v(n);
  for (auto& b : v) b = static_cast<std::uint8_t>(r.next());
  return v;
}

std::vector<float> gaussian_vec(std::uint64_t seed, std::size_t n,
                                double stddev = 1.0) {
  appfl::rng::Rng r(seed);
  std::vector<float> v(n);
  for (auto& x : v) {
    x = static_cast<float>(appfl::rng::normal(r, 0.0, stddev));
  }
  return v;
}

// -- CRC32 -------------------------------------------------------------------

TEST(Crc32, KnownAnswer) {
  // The universal CRC-32 check value: crc32("123456789") = 0xCBF43926.
  const char* s = "123456789";
  const std::span<const std::uint8_t> bytes{
      reinterpret_cast<const std::uint8_t*>(s), 9};
  EXPECT_EQ(appfl::comm::crc32(bytes), 0xCBF43926U);
  EXPECT_EQ(appfl::comm::crc32_bytewise(bytes), 0xCBF43926U);
}

TEST(Crc32, EmptyIsZero) {
  EXPECT_EQ(appfl::comm::crc32({}), 0U);
  EXPECT_EQ(appfl::comm::crc32_bytewise({}), 0U);
}

TEST(Crc32, SlicedMatchesBytewiseOnRandomBuffers) {
  // Odd sizes exercise the slicing tail.
  for (std::size_t n : {std::size_t{1}, std::size_t{7}, std::size_t{8},
                        std::size_t{9}, std::size_t{63}, std::size_t{1024},
                        std::size_t{65537}}) {
    const auto buf = random_bytes(n, n);
    EXPECT_EQ(appfl::comm::crc32(buf), appfl::comm::crc32_bytewise(buf))
        << "n=" << n;
  }
}

/// Every length 0..2048 at every start offset 0..15 of one random buffer:
/// covers the fold's 64-byte entry, its 16-byte blocks, the sliced tail and
/// every load alignment.
void expect_matches_bytewise_on_all_windows(
    std::uint32_t (*crc)(std::span<const std::uint8_t>)) {
  const auto buf = random_bytes(2048, 2048 + 16);
  const std::span<const std::uint8_t> all{buf};
  int mismatches = 0;
  for (std::size_t offset = 0; offset < 16; ++offset) {
    for (std::size_t n = 0; n <= 2048; ++n) {
      const auto window = all.subspan(offset, n);
      if (crc(window) != appfl::comm::crc32_bytewise(window) &&
          ++mismatches <= 5) {
        ADD_FAILURE() << "offset=" << offset << " n=" << n;
      }
    }
  }
  EXPECT_EQ(mismatches, 0);
}

/// 3.26 MB buffers (one sync-iiadmm-dp frame) of random bytes, all 0x00 and
/// all 0xFF.
void expect_matches_bytewise_on_frames(
    std::uint32_t (*crc)(std::span<const std::uint8_t>)) {
  constexpr std::size_t kFrame = 3'256'717;
  const std::vector<std::vector<std::uint8_t>> frames = {
      random_bytes(326, kFrame), std::vector<std::uint8_t>(kFrame, 0x00),
      std::vector<std::uint8_t>(kFrame, 0xFF)};
  for (const auto& f : frames) {
    EXPECT_EQ(crc(f), appfl::comm::crc32_bytewise(f))
        << "first byte " << int{f[0]};
  }
}

TEST(Crc32, FoldMatchesBytewiseAtEveryLengthAndOffset) {
  if (!appfl::comm::crc32_uses_pclmul()) GTEST_SKIP() << "no PCLMULQDQ";
  expect_matches_bytewise_on_all_windows(appfl::comm::crc32);
}

TEST(Crc32, FoldMatchesBytewiseOnFrames) {
  if (!appfl::comm::crc32_uses_pclmul()) GTEST_SKIP() << "no PCLMULQDQ";
  expect_matches_bytewise_on_frames(appfl::comm::crc32);
}

TEST(Crc32, PortableMatchesBytewiseAtEveryLengthAndOffset) {
  expect_matches_bytewise_on_all_windows(appfl::comm::crc32_portable);
}

TEST(Crc32, PortableMatchesBytewiseOnFrames) {
  expect_matches_bytewise_on_frames(appfl::comm::crc32_portable);
}

TEST(Crc32, ParallelMatchesBytewiseAcrossThreadCounts) {
  // The kernel pool's size must never reach the checksum.
  const auto buf = random_bytes(99, (std::size_t{3} << 20) + 12345);
  const std::uint32_t expected = appfl::comm::crc32_bytewise(buf);
  for (std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    ScopedKernelConfig scoped(threads);
    EXPECT_EQ(appfl::comm::crc32(buf), expected) << "threads=" << threads;
  }
}

TEST(Envelope, SealInPlaceMatchesSeal) {
  const auto payload = random_bytes(3, 1000);
  const auto sealed = appfl::comm::seal_envelope(payload);

  std::vector<std::uint8_t> in_place(
      appfl::comm::kEnvelopeOverhead + payload.size(), 0);
  std::copy(payload.begin(), payload.end(),
            in_place.begin() + appfl::comm::kEnvelopeOverhead);
  appfl::comm::seal_envelope_in_place(in_place);
  EXPECT_EQ(in_place, sealed);

  const auto opened = appfl::comm::open_envelope(in_place);
  ASSERT_TRUE(opened.has_value());
  EXPECT_TRUE(std::equal(opened->begin(), opened->end(), payload.begin(),
                         payload.end()));
}

// -- fp16 codec --------------------------------------------------------------

TEST(Fp16, ExactValuesRoundTripExactly) {
  // Values representable in binary16 must survive the round trip bit-exactly.
  for (float v : {0.0F, -0.0F, 1.0F, -1.0F, 0.5F, 2.0F, 65504.0F, -65504.0F,
                  0.000060975551605224609375F /* smallest normal half */}) {
    const float back =
        appfl::comm::half_to_float(appfl::comm::float_to_half(v));
    EXPECT_TRUE(appfl::comm::same_bits(back, v)) << v;
  }
}

TEST(Fp16, SpecialValues) {
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  EXPECT_EQ(appfl::comm::half_to_float(appfl::comm::float_to_half(inf)), inf);
  EXPECT_EQ(appfl::comm::half_to_float(appfl::comm::float_to_half(-inf)),
            -inf);
  EXPECT_TRUE(std::isnan(
      appfl::comm::half_to_float(appfl::comm::float_to_half(nan))));
  // Overflow rounds to inf; deep underflow flushes to signed zero.
  EXPECT_EQ(appfl::comm::half_to_float(appfl::comm::float_to_half(1.0e6F)),
            inf);
  const float tiny = appfl::comm::half_to_float(
      appfl::comm::float_to_half(-1.0e-9F));
  EXPECT_TRUE(appfl::comm::same_bits(tiny, -0.0F));
}

TEST(Fp16, RelativeErrorWithinBound) {
  const auto v = gaussian_vec(11, 20000, 1.0);
  for (float x : v) {
    const float back =
        appfl::comm::half_to_float(appfl::comm::float_to_half(x));
    // Normal-range values keep 11 significand bits: |err| ≤ 2⁻¹¹·|x|.
    EXPECT_LE(std::abs(back - x),
              appfl::comm::kFp16RelativeErrorBound * std::abs(x) + 1e-24)
        << x;
  }
}

TEST(Fp16, WireRoundTripAndSize) {
  const auto v = gaussian_vec(12, 4097);
  const auto bytes = appfl::comm::encode_fp16(v);
  EXPECT_EQ(bytes.size(), 8 + 2 * v.size());
  const auto back = appfl::comm::decode_fp16(bytes);
  ASSERT_EQ(back.size(), v.size());
  for (std::size_t i = 0; i < v.size(); ++i) {
    EXPECT_TRUE(appfl::comm::same_bits(
        back[i],
        appfl::comm::half_to_float(appfl::comm::float_to_half(v[i]))))
        << i;
  }
}

TEST(Fp16, RejectsDamagedPayloads) {
  auto bytes = appfl::comm::encode_fp16(gaussian_vec(13, 16));
  bytes.pop_back();
  EXPECT_THROW((void)appfl::comm::decode_fp16(bytes), appfl::Error);
}

// -- Buffer pool -------------------------------------------------------------

TEST(BufferPool, RecyclesCapacity) {
  appfl::comm::BufferPool pool(2);
  auto a = pool.acquire();
  a.resize(4096);
  pool.release(std::move(a));
  auto b = pool.acquire();
  EXPECT_TRUE(b.empty());
  EXPECT_GE(b.capacity(), 4096U);
  const auto stats = pool.stats();
  EXPECT_EQ(stats.acquires, 2U);
  EXPECT_EQ(stats.reuses, 1U);
}

TEST(BufferPool, CapsFreeList) {
  appfl::comm::BufferPool pool(1);
  for (int i = 0; i < 3; ++i) {
    std::vector<std::uint8_t> buf(64);
    pool.release(std::move(buf));
  }
  EXPECT_EQ(pool.free_buffers(), 1U);
  EXPECT_EQ(pool.stats().dropped, 2U);
}

// -- Zero-copy message codecs ------------------------------------------------

appfl::comm::Message sample_message() {
  appfl::comm::Message m;
  m.kind = appfl::comm::MessageKind::kLocalUpdate;
  m.sender = 3;
  m.receiver = 0;
  m.round = 7;
  m.primal = gaussian_vec(21, 999);
  m.dual = gaussian_vec(22, 999);
  m.sample_count = 1234;
  m.loss = 0.625;
  m.rho = 2.5;
  return m;
}

TEST(MessageAppend, MatchesFreshEncodes) {
  const auto m = sample_message();
  std::vector<std::uint8_t> raw_prefixed(5, 0xAB);
  appfl::comm::encode_raw_append(m, raw_prefixed);
  const auto raw = appfl::comm::encode_raw(m);
  ASSERT_EQ(raw_prefixed.size(), raw.size() + 5);
  EXPECT_TRUE(std::equal(raw.begin(), raw.end(), raw_prefixed.begin() + 5));

  std::vector<std::uint8_t> proto_prefixed(5, 0xCD);
  appfl::comm::encode_proto_append(m, proto_prefixed);
  const auto proto = appfl::comm::encode_proto(m);
  ASSERT_EQ(proto_prefixed.size(), proto.size() + 5);
  EXPECT_TRUE(
      std::equal(proto.begin(), proto.end(), proto_prefixed.begin() + 5));
  EXPECT_EQ(proto.size(), appfl::comm::proto_encoded_size(m));
}

TEST(MessageView, DetachEqualsOwningDecode) {
  auto m = sample_message();
  m.codec = 1;
  m.packed = random_bytes(33, 77);
  m.primal.clear();  // codec messages carry packed, not primal

  const auto raw = appfl::comm::encode_raw(m);
  EXPECT_EQ(appfl::comm::decode_raw_view(raw).detach(),
            appfl::comm::decode_raw(raw));
  EXPECT_EQ(appfl::comm::decode_raw(raw), m);

  const auto proto = appfl::comm::encode_proto(m);
  EXPECT_EQ(appfl::comm::decode_proto_view(proto).detach(),
            appfl::comm::decode_proto(proto));
  EXPECT_EQ(appfl::comm::decode_proto(proto), m);
}

TEST(MessageView, DetachIntoReusesCapacity) {
  const auto m = sample_message();
  const auto bytes = appfl::comm::encode_raw(m);
  appfl::comm::Message reused;
  reused.primal.reserve(2000);
  const float* before = reused.primal.data();
  appfl::comm::decode_raw_view(bytes).detach_into(reused);
  EXPECT_EQ(reused, m);
  EXPECT_EQ(reused.primal.data(), before);  // capacity survived
}

TEST(MessageView, ViewRejectsSameMalformedInputs) {
  auto bytes = appfl::comm::encode_raw(sample_message());
  bytes.pop_back();
  EXPECT_THROW((void)appfl::comm::decode_raw_view(bytes), appfl::Error);
  bytes.clear();
  EXPECT_THROW((void)appfl::comm::decode_raw_view(bytes), appfl::Error);
}

// -- Deterministic parallel aggregation --------------------------------------

// Serial references: the exact pre-PR per-element expressions.
std::vector<float> serial_weighted_sum(
    const std::vector<std::vector<float>>& vecs,
    const std::vector<float>& weights, std::size_t n) {
  std::vector<float> w(n, 0.0F);
  for (std::size_t p = 0; p < vecs.size(); ++p) {
    for (std::size_t i = 0; i < n; ++i) w[i] += weights[p] * vecs[p][i];
  }
  return w;
}

TEST(Aggregate, WeightedSumBitIdenticalAcrossThreadCounts) {
  // Above kParallelAggregateThreshold so the parallel path actually runs.
  const std::size_t n = appfl::core::kParallelAggregateThreshold * 2 + 17;
  const std::size_t P = 7;
  std::vector<std::vector<float>> vecs;
  std::vector<float> weights;
  std::vector<appfl::core::WeightedVec> terms;
  for (std::size_t p = 0; p < P; ++p) {
    vecs.push_back(gaussian_vec(40 + p, n));
    weights.push_back(0.05F + 0.1F * static_cast<float>(p));
  }
  for (std::size_t p = 0; p < P; ++p) terms.push_back({vecs[p], weights[p]});
  const auto expected = serial_weighted_sum(vecs, weights, n);

  for (std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    ScopedKernelConfig scoped(threads);
    std::vector<float> w(n, -1.0F);  // must be overwritten, not accumulated
    appfl::core::weighted_sum(terms, w);
    ASSERT_EQ(w.size(), expected.size());
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_TRUE(appfl::comm::same_bits(w[i], expected[i]))
          << "threads=" << threads << " i=" << i;
    }
  }
}

TEST(Aggregate, ConsensusSumBitIdenticalAcrossThreadCounts) {
  const std::size_t n = appfl::core::kParallelAggregateThreshold * 2 + 5;
  const std::size_t P = 5;
  const float inv_p = 1.0F / static_cast<float>(P);
  const float inv_rho = 1.0F / 3.0F;
  std::vector<std::vector<float>> primal, dual;
  std::vector<appfl::core::ConsensusTerm> terms;
  for (std::size_t p = 0; p < P; ++p) {
    primal.push_back(gaussian_vec(60 + p, n));
    dual.push_back(gaussian_vec(80 + p, n));
  }
  for (std::size_t p = 0; p < P; ++p) terms.push_back({primal[p], dual[p]});

  std::vector<float> expected(n, 0.0F);
  for (std::size_t p = 0; p < P; ++p) {
    for (std::size_t i = 0; i < n; ++i) {
      expected[i] += inv_p * (primal[p][i] - inv_rho * dual[p][i]);
    }
  }

  for (std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    ScopedKernelConfig scoped(threads);
    std::vector<float> w(n);
    appfl::core::consensus_sum(terms, inv_p, inv_rho, w);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_TRUE(appfl::comm::same_bits(w[i], expected[i]))
          << "threads=" << threads << " i=" << i;
    }
  }
}

TEST(Aggregate, WeightedDeltaBitIdenticalAcrossThreadCounts) {
  const std::size_t n = appfl::core::kParallelAggregateThreshold * 2 + 3;
  const std::size_t P = 4;
  const auto base = gaussian_vec(99, n);
  std::vector<std::vector<float>> vecs;
  std::vector<appfl::core::DeltaTerm> terms;
  for (std::size_t p = 0; p < P; ++p) vecs.push_back(gaussian_vec(120 + p, n));
  for (std::size_t p = 0; p < P; ++p) {
    terms.push_back({vecs[p], 1.0 / static_cast<double>(P)});
  }

  std::vector<double> expected(n, 0.0);
  for (std::size_t p = 0; p < P; ++p) {
    for (std::size_t i = 0; i < n; ++i) {
      expected[i] += terms[p].weight *
                     (static_cast<double>(vecs[p][i]) - base[i]);
    }
  }

  for (std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    ScopedKernelConfig scoped(threads);
    std::vector<double> delta(n);
    appfl::core::weighted_delta(terms, base, delta);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_TRUE(appfl::comm::same_bits(delta[i], expected[i]))
          << "threads=" << threads << " i=" << i;
    }
  }
}

TEST(Aggregate, SmallInputsStaySerialAndCorrect) {
  const std::size_t n = 33;  // below threshold
  std::vector<std::vector<float>> vecs = {gaussian_vec(1, n),
                                          gaussian_vec(2, n)};
  std::vector<appfl::core::WeightedVec> terms = {{vecs[0], 0.25F},
                                                 {vecs[1], 0.75F}};
  std::vector<float> w(n);
  appfl::core::weighted_sum(terms, w);
  const auto expected = serial_weighted_sum(vecs, {0.25F, 0.75F}, n);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_TRUE(appfl::comm::same_bits(w[i], expected[i])) << i;
  }
}

}  // namespace
