// Dropout-resilient secure aggregation: quantization edge cases, transport
// packing, the double-masking protocol (exact cancellation, dropout
// recovery, graceful degradation, packet verification), and runner-level
// integration under the fault injector.
#include <gtest/gtest.h>

#include "util/check.hpp"

#include <bit>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>

#include "core/event_engine.hpp"
#include "core/fedavg.hpp"
#include "core/runner.hpp"
#include "core/secure_round.hpp"
#include "data/synth.hpp"
#include "dp/secure_agg.hpp"
#include "rng/distributions.hpp"

namespace {

constexpr double kScale = appfl::dp::kDefaultScale;

std::vector<float> random_update(std::uint64_t seed, std::size_t n) {
  appfl::rng::Rng r(seed);
  std::vector<float> v(n);
  for (auto& x : v) x = static_cast<float>(appfl::rng::normal(r, 0.0, 1.0));
  return v;
}

// --- Quantization ---------------------------------------------------------

TEST(Quantize, RoundTripsThroughSum) {
  const std::vector<float> v{0.0F, 1.5F, -2.25F, 1000.125F, -0.000123F};
  const auto q = appfl::dp::quantize(v, kScale);
  const auto back = appfl::dp::dequantize_sum(q, kScale);
  for (std::size_t i = 0; i < v.size(); ++i) {
    EXPECT_NEAR(back[i], v[i], 1.0 / kScale);
  }
}

TEST(Quantize, NegativeValuesUseTwosComplement) {
  const std::vector<float> v{-1.0F};
  const auto q = appfl::dp::quantize(v, kScale);
  EXPECT_EQ(static_cast<std::int64_t>(q[0]),
            -static_cast<std::int64_t>(kScale));
}

TEST(Quantize, FiniteOverflowRejected) {
  // A finite float whose scaled value leaves int64 is a misconfigured
  // scale, not data — it must throw, never wrap.
  const std::vector<float> v{1e19F};
  EXPECT_THROW(appfl::dp::quantize(v, kScale), appfl::Error);
}

TEST(Quantize, NanRejected) {
  const std::vector<float> v{std::numeric_limits<float>::quiet_NaN()};
  EXPECT_THROW(appfl::dp::quantize(v, kScale), appfl::Error);
}

TEST(Quantize, InfinitySaturatesDeterministically) {
  // Upstream float overflow (a diverged model) clamps to the fixed-point
  // range instead of hitting undefined float→int conversion.
  const std::vector<float> v{std::numeric_limits<float>::infinity(),
                             -std::numeric_limits<float>::infinity()};
  const auto q = appfl::dp::quantize(v, kScale);
  EXPECT_EQ(static_cast<std::int64_t>(q[0]),
            std::numeric_limits<std::int64_t>::max());
  EXPECT_EQ(static_cast<std::int64_t>(q[1]),
            std::numeric_limits<std::int64_t>::min());
}

TEST(Quantize, BoundaryNearTwoPow43) {
  // At the default 2^20 scale the fixed-point range ends at |v| = 2^43:
  // +2^43 scales to exactly 2^63 (out of range), −2^43 to exactly −2^63
  // (still representable), and one float step below the positive edge fits.
  const float edge = 8796093022208.0F;          // 2^43
  const float below = edge - 1048576.0F;        // 2^43 − 2^20 (1 float ulp)
  EXPECT_THROW(appfl::dp::quantize(std::vector<float>{edge}, kScale),
               appfl::Error);
  const auto neg = appfl::dp::quantize(std::vector<float>{-edge}, kScale);
  EXPECT_EQ(static_cast<std::int64_t>(neg[0]),
            std::numeric_limits<std::int64_t>::min());
  const auto ok = appfl::dp::quantize(std::vector<float>{below}, kScale);
  EXPECT_EQ(ok[0], (std::uint64_t{1} << 63) - (std::uint64_t{1} << 40));
}

// --- Transport packing ----------------------------------------------------

TEST(Transport, BytePackingRoundTrips) {
  for (std::size_t len = 0; len < 10; ++len) {
    std::vector<std::uint8_t> bytes(len);
    for (std::size_t i = 0; i < len; ++i) {
      bytes[i] = static_cast<std::uint8_t>(37 * i + 11);
    }
    const auto words = appfl::core::pack_bytes_as_floats(bytes);
    EXPECT_EQ(appfl::core::unpack_bytes_from_floats(words), bytes) << len;
  }
}

TEST(Transport, MalformedLengthPrefixRejected) {
  std::vector<float> words(2);
  const std::uint32_t huge = 0xFFFFFF;
  std::memcpy(words.data(), &huge, 4);
  EXPECT_THROW(appfl::core::unpack_bytes_from_floats(words), appfl::Error);
  EXPECT_THROW(appfl::core::unpack_bytes_from_floats(std::vector<float>{}),
               appfl::Error);
}

TEST(Transport, WordPackingRoundTrips) {
  const std::vector<std::uint64_t> words{0ULL, ~0ULL, 0x0123456789ABCDEFULL,
                                         std::uint64_t{1} << 63};
  const auto floats = appfl::core::pack_words_as_floats(words);
  EXPECT_EQ(floats.size(), words.size() * 2);
  EXPECT_EQ(appfl::core::unpack_words_from_floats(
                appfl::comm::WirePayload::f32(floats.data(), floats.size())),
            words);
  EXPECT_THROW(appfl::core::unpack_words_from_floats(
                   appfl::comm::WirePayload::f32(floats.data(), 3)),
               appfl::Error);
  EXPECT_THROW(appfl::core::unpack_words_from_floats(
                   appfl::comm::WirePayload::f16_bytes(nullptr, 2)),
               appfl::Error);
}

// --- Protocol -------------------------------------------------------------

struct Round {
  std::vector<std::uint32_t> ids;
  appfl::dp::SecureAggServer server;
  std::vector<appfl::dp::SecureAggClient> clients;

  Round(std::vector<std::uint32_t> cohort, std::uint64_t seed, std::size_t t)
      : ids(std::move(cohort)), server(ids, seed, t) {
    for (std::uint32_t id : ids) clients.emplace_back(id, ids, seed, t);
  }

  appfl::dp::SecureAggClient& client(std::uint32_t id) {
    for (auto& c : clients) {
      if (c.id() == id) return c;
    }
    throw appfl::Error("no such client");
  }
};

TEST(SecureAgg, MasksCancelWithFullCohort) {
  Round round({1, 2, 3, 4, 5}, /*seed=*/99, /*t=*/3);
  const std::size_t n = 257;

  std::vector<std::uint64_t> expected(n, 0);
  std::vector<std::vector<std::uint64_t>> masked;
  for (std::uint32_t id : round.ids) {
    ASSERT_TRUE(round.server.deposit_share_packet(
        id, round.client(id).share_packet()));
  }
  const auto u2 = round.server.share_survivors();
  ASSERT_EQ(u2, round.ids);
  for (std::uint32_t id : round.ids) {
    const auto v = random_update(id, n);
    const auto q = appfl::dp::quantize(v, kScale);
    for (std::size_t i = 0; i < n; ++i) expected[i] += q[i];
    masked.push_back(round.client(id).mask(v, u2, kScale, 1.0));
  }
  const auto rec = round.server.unmask(round.ids, masked);
  ASSERT_TRUE(rec.ok);
  EXPECT_EQ(rec.pair_keys_reconstructed, 0U);
  EXPECT_EQ(rec.self_masks_removed, 5U);
  // Masks cancel in integer arithmetic mod 2^64 — bit-exact, no tolerance.
  EXPECT_EQ(rec.sum, expected);
}

TEST(SecureAgg, DropoutAfterSharesRecoversExactly) {
  // The adversarially interesting window: a client delivers its shares
  // (entering U2) then dies before its masked upload lands. Survivors
  // masked against it; the server must reconstruct its pairwise key.
  Round round({1, 2, 3, 4, 5}, 7, 3);
  const std::size_t n = 64;
  for (std::uint32_t id : round.ids) {
    ASSERT_TRUE(round.server.deposit_share_packet(
        id, round.client(id).share_packet()));
  }
  const auto u2 = round.server.share_survivors();

  const std::uint32_t dropped = 3;
  std::vector<std::uint32_t> u3;
  std::vector<std::uint64_t> expected(n, 0);
  std::vector<std::vector<std::uint64_t>> masked;
  for (std::uint32_t id : round.ids) {
    if (id == dropped) continue;  // trained, shared, never uploaded
    u3.push_back(id);
    const auto v = random_update(id, n);
    const auto q = appfl::dp::quantize(v, kScale);
    for (std::size_t i = 0; i < n; ++i) expected[i] += q[i];
    masked.push_back(round.client(id).mask(v, u2, kScale, 1.0));
  }
  const auto rec = round.server.unmask(u3, masked);
  ASSERT_TRUE(rec.ok);
  EXPECT_EQ(rec.pair_keys_reconstructed, 1U);  // the dropped client
  EXPECT_EQ(rec.self_masks_removed, 4U);
  EXPECT_EQ(rec.sum, expected);  // survivor sum, bit-exact
}

TEST(SecureAgg, ExactAtThresholdDegradedBelow) {
  // n = 5, t = 3: two post-share drops still recover; three do not.
  Round round({1, 2, 3, 4, 5}, 13, 3);
  const std::size_t n = 32;
  for (std::uint32_t id : round.ids) {
    ASSERT_TRUE(round.server.deposit_share_packet(
        id, round.client(id).share_packet()));
  }
  const auto u2 = round.server.share_survivors();

  std::vector<std::uint32_t> u3{1, 4, 5};  // 2 and 3 dropped after sharing
  std::vector<std::uint64_t> expected(n, 0);
  std::vector<std::vector<std::uint64_t>> masked;
  for (std::uint32_t id : u3) {
    const auto v = random_update(id, n);
    const auto q = appfl::dp::quantize(v, kScale);
    for (std::size_t i = 0; i < n; ++i) expected[i] += q[i];
    masked.push_back(round.client(id).mask(v, u2, kScale, 1.0));
  }
  const auto rec = round.server.unmask(u3, masked);
  ASSERT_TRUE(rec.ok);
  EXPECT_EQ(rec.pair_keys_reconstructed, 2U);
  EXPECT_EQ(rec.sum, expected);

  // One survivor fewer and the round is unrecoverable by design.
  const auto degraded = round.server.unmask(
      std::vector<std::uint32_t>{u3.begin(), u3.begin() + 2},
      {masked[0], masked[1]});
  EXPECT_FALSE(degraded.ok);
  EXPECT_TRUE(degraded.sum.empty());
}

TEST(SecureAgg, ShareLossShrinksU2) {
  // A client whose share packet never arrives is outside U2: peers mask
  // only against the announced survivor set, so no reconstruction at all
  // is needed when every U2 member then uploads.
  Round round({1, 2, 3, 4, 5}, 21, 3);
  const std::size_t n = 48;
  for (std::uint32_t id : round.ids) {
    if (id == 4) continue;  // share packet lost in flight
    ASSERT_TRUE(round.server.deposit_share_packet(
        id, round.client(id).share_packet()));
  }
  const auto u2 = round.server.share_survivors();
  ASSERT_EQ(u2, (std::vector<std::uint32_t>{1, 2, 3, 5}));

  std::vector<std::uint64_t> expected(n, 0);
  std::vector<std::vector<std::uint64_t>> masked;
  for (std::uint32_t id : u2) {
    const auto v = random_update(id, n);
    const auto q = appfl::dp::quantize(v, kScale);
    for (std::size_t i = 0; i < n; ++i) expected[i] += q[i];
    masked.push_back(round.client(id).mask(v, u2, kScale, 1.0));
  }
  const auto rec = round.server.unmask(u2, masked);
  ASSERT_TRUE(rec.ok);
  EXPECT_EQ(rec.pair_keys_reconstructed, 0U);
  EXPECT_EQ(rec.sum, expected);
}

TEST(SecureAgg, WeightedSumMatchesPlain) {
  // Aggregation weights fold into the quantization scale, so the masked
  // sum IS the weighted sum and one division recovers the weighted mean.
  Round round({1, 2, 3, 4}, 17, 3);
  const std::size_t n = 96;
  const double weights[] = {12.0, 48.0, 7.0, 33.0};
  for (std::uint32_t id : round.ids) {
    ASSERT_TRUE(round.server.deposit_share_packet(
        id, round.client(id).share_packet()));
  }
  const auto u2 = round.server.share_survivors();

  std::vector<std::vector<float>> plain;
  std::vector<std::vector<std::uint64_t>> masked;
  double total = 0.0;
  for (std::size_t i = 0; i < round.ids.size(); ++i) {
    plain.push_back(random_update(round.ids[i], n));
    masked.push_back(
        round.client(round.ids[i]).mask(plain.back(), u2, kScale, weights[i]));
    total += weights[i];
  }
  const auto rec = round.server.unmask(round.ids, masked);
  ASSERT_TRUE(rec.ok);
  const auto mean = appfl::dp::dequantize_sum(rec.sum, kScale * total);
  for (std::size_t i = 0; i < n; ++i) {
    double expected = 0.0;
    for (std::size_t c = 0; c < plain.size(); ++c) {
      expected += weights[c] * plain[c][i];
    }
    expected /= total;
    EXPECT_NEAR(mean[i], expected, 4.0 / kScale) << i;
  }
}

TEST(SecureAgg, IndividualUploadLooksUniform) {
  Round round({1, 2, 3}, 7, 2);
  const std::size_t n = 4096;
  const std::vector<float> zeros(n, 0.0F);  // worst case: all-zero update
  const auto masked = round.client(1).mask(zeros, round.ids, kScale, 1.0);
  // The masked words should look uniform over 2^64: mean byte ≈ 127.5 and
  // roughly half the top bits set.
  double byte_sum = 0.0;
  std::size_t top_bits = 0;
  for (std::uint64_t w : masked) {
    for (int b = 0; b < 8; ++b) byte_sum += (w >> (8 * b)) & 0xFF;
    top_bits += w >> 63;
  }
  EXPECT_NEAR(byte_sum / (8.0 * n), 127.5, 4.0);
  EXPECT_NEAR(static_cast<double>(top_bits) / n, 0.5, 0.05);
}

TEST(SecureAgg, SameValueUploadsLookUnrelated) {
  Round round({1, 2, 3}, 7, 2);
  const auto v = random_update(42, 512);
  const auto m1 = round.client(1).mask(v, round.ids, kScale, 1.0);
  const auto m2 = round.client(2).mask(v, round.ids, kScale, 1.0);
  std::size_t equal = 0;
  for (std::size_t i = 0; i < m1.size(); ++i) {
    if (m1[i] == m2[i]) ++equal;
  }
  EXPECT_EQ(equal, 0U);  // identical inputs, entirely different ciphertexts
}

TEST(SecureAgg, DeterministicPerRoundSeed) {
  Round a({1, 2, 3}, 11, 2);
  Round b({1, 2, 3}, 11, 2);
  Round c({1, 2, 3}, 12, 2);
  EXPECT_EQ(a.client(1).share_packet(), b.client(1).share_packet());
  EXPECT_NE(a.client(1).share_packet(), c.client(1).share_packet());
  const auto v = random_update(5, 64);
  EXPECT_EQ(a.client(1).mask(v, a.ids, kScale, 1.0),
            b.client(1).mask(v, b.ids, kScale, 1.0));
  EXPECT_NE(a.client(1).mask(v, a.ids, kScale, 1.0),
            c.client(1).mask(v, c.ids, kScale, 1.0));
}

TEST(SecureAgg, BadSharePacketsRejected) {
  Round round({1, 2, 3, 4}, 23, 3);
  appfl::dp::SecureAggServer& server = round.server;

  // Unknown sender.
  EXPECT_FALSE(server.deposit_share_packet(9, round.client(1).share_packet()));
  // Sender / packet id mismatch.
  EXPECT_FALSE(server.deposit_share_packet(2, round.client(1).share_packet()));

  // A tampered share fails Feldman verification.
  std::vector<std::uint8_t> tampered(round.client(1).share_packet());
  tampered[30] ^= 0x40;  // inside the first b-share's y value
  EXPECT_FALSE(server.deposit_share_packet(1, tampered));

  // Truncation and trailing garbage are malformed.
  std::vector<std::uint8_t> truncated(round.client(2).share_packet());
  truncated.resize(truncated.size() - 1);
  EXPECT_FALSE(server.deposit_share_packet(2, truncated));
  std::vector<std::uint8_t> padded(round.client(2).share_packet());
  padded.push_back(0);
  EXPECT_FALSE(server.deposit_share_packet(2, padded));

  // A packet built for a different threshold does not match this round.
  Round other({1, 2, 3, 4}, 23, 2);
  EXPECT_FALSE(server.deposit_share_packet(3, other.client(3).share_packet()));

  // None of the rejects entered U2; an honest deposit still works, and a
  // duplicate of it is refused.
  EXPECT_TRUE(server.share_survivors().empty());
  EXPECT_TRUE(server.deposit_share_packet(1, round.client(1).share_packet()));
  EXPECT_FALSE(server.deposit_share_packet(1, round.client(1).share_packet()));
  EXPECT_EQ(server.share_survivors(), std::vector<std::uint32_t>{1});
}

TEST(SecureAgg, UploadFromOutsideU2Rejected) {
  // An upload whose sender never delivered shares cannot be unmasked —
  // admitting it would corrupt the sum silently.
  Round round({1, 2, 3}, 29, 2);
  ASSERT_TRUE(round.server.deposit_share_packet(
      1, round.client(1).share_packet()));
  ASSERT_TRUE(round.server.deposit_share_packet(
      2, round.client(2).share_packet()));
  const auto u2 = round.server.share_survivors();
  const auto v = random_update(1, 8);
  std::vector<std::vector<std::uint64_t>> uploads{
      round.client(1).mask(v, u2, kScale, 1.0),
      round.client(2).mask(v, u2, kScale, 1.0),
      std::vector<std::uint64_t>(8, 0)};
  EXPECT_THROW(
      round.server.unmask(std::vector<std::uint32_t>{1, 2, 3}, uploads),
      appfl::Error);
}

TEST(SecureAgg, InvalidConfigurationsRejected) {
  const std::vector<std::uint32_t> ids{1, 2, 3};
  // Threshold bounds, cohort membership, duplicate ids.
  EXPECT_THROW(appfl::dp::SecureAggClient(1, ids, 7, 1), appfl::Error);
  EXPECT_THROW(appfl::dp::SecureAggClient(1, ids, 7, 4), appfl::Error);
  EXPECT_THROW(appfl::dp::SecureAggClient(9, ids, 7, 2), appfl::Error);
  EXPECT_THROW(appfl::dp::SecureAggServer(std::vector<std::uint32_t>{1}, 7, 2),
               appfl::Error);
  EXPECT_THROW(
      appfl::dp::SecureAggServer(std::vector<std::uint32_t>{1, 1}, 7, 2),
      appfl::Error);
  // u2 must contain the masking client.
  appfl::dp::SecureAggClient c(1, ids, 7, 2);
  EXPECT_THROW(c.mask(random_update(1, 4), std::vector<std::uint32_t>{2, 3},
                      kScale, 1.0),
               appfl::Error);
}

// --- Exhaustive sweep through the round module ---------------------------

TEST(SecureRound, EverySurvivorPatternRecoversOrDegrades) {
  // Every cohort n = 2..6, threshold t = 2..n, share-survivor set U2 ⊆
  // cohort and upload-survivor set U3 ⊆ U2 (4,923 cells), run through the
  // round's own messages with unequal sample-count weights. Each cell
  // either recovers the weighted mean bit-equal to dequantize_sum of the
  // plain quantized sum, or degrades with the reason the sets imply.
  using appfl::core::SecaggDegradeReason;
  constexpr std::size_t kLen = 16;
  const std::uint64_t samples[] = {3, 7, 11, 19, 29, 41};
  std::size_t cells = 0;
  for (std::size_t n = 2; n <= 6; ++n) {
    std::vector<std::uint32_t> cohort;
    for (std::size_t s = 0; s < n; ++s) {
      cohort.push_back(static_cast<std::uint32_t>(3 * s + 2));
    }
    for (std::size_t t = 2; t <= n; ++t) {
      appfl::core::RunConfig cfg;
      cfg.seed = 100 * n + t;
      cfg.secure_agg_threshold = t;
      for (unsigned u2 = 0; u2 < (1U << n); ++u2) {
        appfl::core::SecureRound round(cfg, cohort, 5);
        ASSERT_EQ(round.threshold(), t);
        std::vector<std::vector<float>> values(n);
        std::vector<appfl::comm::Message> shares(n);
        for (std::size_t s = 0; s < n; ++s) {
          appfl::comm::Message update;
          update.kind = appfl::comm::MessageKind::kLocalUpdate;
          update.sender = cohort[s];
          update.sample_count = samples[s];
          update.primal = random_update(1000 * cfg.seed + u2 * 8 + s, kLen);
          values[s] = update.primal;
          shares[s] = round.share_message(s, std::move(update));
        }
        for (std::size_t s = 0; s < n; ++s) {
          if (u2 >> s & 1U) {
            ASSERT_TRUE(round.deposit_share(shares[s].sender, shares[s].primal));
          }
        }
        const std::size_t u2_size = std::popcount(u2);
        ASSERT_EQ(round.close_share_wave(), u2_size >= t);
        std::vector<appfl::comm::Message> masked(n);
        for (std::size_t s = 0; s < n; ++s) {
          ASSERT_EQ(round.uploads(s), u2_size >= t && (u2 >> s & 1U));
          if (round.uploads(s)) masked[s] = round.masked_upload(s);
        }
        for (unsigned u3 = u2;; u3 = (u3 - 1) & u2) {
          ++cells;
          std::vector<appfl::comm::GatherUpdate> arrived;
          std::vector<std::uint64_t> sum(kLen, 0);
          double total_weight = 0.0;
          for (std::size_t s = 0; s < n; ++s) {
            if (!(u3 >> s & 1U) || !round.uploads(s)) continue;
            appfl::comm::GatherUpdate& u = arrived.emplace_back();
            u.sender = masked[s].sender;
            u.sample_count = masked[s].sample_count;
            u.primal = appfl::comm::WirePayload::f32(masked[s].primal.data(),
                                                     masked[s].primal.size());
            const double weight = static_cast<double>(samples[s]);
            const auto q = appfl::dp::quantize(values[s], kScale * weight);
            for (std::size_t i = 0; i < kLen; ++i) sum[i] += q[i];
            total_weight += weight;
          }
          const appfl::core::SecureRound::Result result = round.unmask(arrived);
          const std::size_t u3_size = std::popcount(u3);
          if (u2_size < t) {
            EXPECT_EQ(result.degrade, SecaggDegradeReason::kShareWaveTimeout);
          } else if (u3_size < t) {
            EXPECT_EQ(result.degrade, SecaggDegradeReason::kBelowThreshold);
          } else {
            ASSERT_EQ(result.degrade, SecaggDegradeReason::kNone);
            EXPECT_EQ(result.reconstructions, u2_size - u3_size);
            const auto expected =
                appfl::dp::dequantize_sum(sum, kScale * total_weight);
            ASSERT_EQ(result.mean.size(), kLen);
            EXPECT_EQ(std::memcmp(result.mean.data(), expected.data(),
                                  kLen * sizeof(float)),
                      0)
                << "n=" << n << " t=" << t << " u2=" << u2 << " u3=" << u3;
          }
          if (result.degrade != SecaggDegradeReason::kNone) {
            EXPECT_TRUE(result.mean.empty());
          }
          if (u3 == 0) break;
        }
      }
    }
  }
  EXPECT_EQ(cells, 4923U);
}

TEST(SecureRound, CohortAndThresholdChecks) {
  appfl::core::RunConfig cfg;
  EXPECT_THROW(appfl::core::SecureRound(cfg, {4}, 1), appfl::Error);
  cfg.secure_agg_threshold = 4;
  EXPECT_THROW(appfl::core::SecureRound(cfg, {1, 2, 3}, 1), appfl::Error);
  cfg.secure_agg_threshold = 0;  // auto: the cohort's majority
  EXPECT_EQ(appfl::core::SecureRound(cfg, {1, 2, 3, 4}, 1).threshold(), 3U);
  EXPECT_EQ(appfl::core::SecureRound(cfg, {1, 2, 3, 4, 5}, 1).threshold(), 3U);
}

// --- Runner integration ---------------------------------------------------

/// Per-client health-ledger columns summed over clients, read from the
/// ledger CSV a run with obs metrics writes (and then deleted).
struct LedgerSums {
  std::uint64_t dropped_frames = 0;
  std::uint64_t share_discards = 0;
  std::uint64_t dropouts = 0;
};

LedgerSums read_ledger(const std::filesystem::path& csv) {
  std::ifstream in(csv);
  std::string line;
  EXPECT_TRUE(std::getline(in, line));
  EXPECT_EQ(line.rfind("client,updates,", 0), 0U) << line;
  LedgerSums sums;
  while (std::getline(in, line)) {
    std::stringstream row(line);
    std::vector<std::string> cells;
    for (std::string cell; std::getline(row, cell, ',');) {
      cells.push_back(cell);
    }
    EXPECT_GE(cells.size(), 11U) << line;
    if (cells.size() < 11) break;
    sums.dropped_frames += std::stoull(cells[8]);
    sums.share_discards += std::stoull(cells[9]);
    sums.dropouts += std::stoull(cells[10]);
  }
  in.close();
  std::filesystem::remove(csv);
  return sums;
}

/// Drops counted in the rounds whose share wave fell below the threshold.
/// No masked upload is sent in such a round, so its drops are broadcasts
/// and share packets.
std::uint64_t share_wave_timeout_drops(
    const std::vector<appfl::core::RoundMetrics>& rounds) {
  std::uint64_t drops = 0;
  for (const auto& r : rounds) {
    if (r.secagg_degrade_reason ==
        appfl::core::SecaggDegradeReason::kShareWaveTimeout) {
      drops += r.drops;
    }
  }
  return drops;
}

appfl::core::RunConfig small_cfg(std::size_t rounds) {
  appfl::core::RunConfig cfg;
  cfg.algorithm = appfl::core::Algorithm::kFedAvg;
  cfg.model = appfl::core::ModelKind::kLogistic;
  cfg.rounds = rounds;
  cfg.local_steps = 1;
  cfg.batch_size = 16;
  cfg.seed = 77;
  cfg.validate_every_round = false;
  return cfg;
}

appfl::data::FederatedSplit small_split(std::size_t num_clients) {
  appfl::data::SynthImageSpec spec;
  spec.height = 6;
  spec.width = 6;
  spec.num_classes = 3;
  spec.num_clients = num_clients;
  spec.train_per_client = 24;
  spec.test_size = 32;
  spec.seed = 77;
  return appfl::data::mnist_like(spec);
}

TEST(SecureAggRunner, FaultFreeSecureMatchesPlainWithinQuantization) {
  const auto split = small_split(4);
  appfl::core::RunConfig cfg = small_cfg(3);
  const auto plain = appfl::core::run_federated(cfg, split);

  cfg.secure_agg = true;  // auto-majority threshold
  const auto secure = appfl::core::run_federated(cfg, split);

  ASSERT_EQ(secure.final_parameters.size(), plain.final_parameters.size());
  for (std::size_t i = 0; i < plain.final_parameters.size(); ++i) {
    EXPECT_NEAR(secure.final_parameters[i], plain.final_parameters[i], 1e-3)
        << i;
  }
  EXPECT_EQ(secure.secagg_reconstructions, 0U);
  EXPECT_EQ(secure.secagg_rounds_degraded, 0U);
  for (const auto& r : secure.rounds) {
    EXPECT_EQ(r.responders, r.participants);  // U3 == cohort, fault-free
  }
}

/// FedAvg client that records what it actually shipped each round, so the
/// test can replay the aggregation arithmetic outside the runner.
class RecordingClient : public appfl::core::FedAvgClient {
 public:
  using appfl::core::FedAvgClient::FedAvgClient;

  appfl::comm::Message update(std::span<const float> global,
                              std::uint32_t round) override {
    appfl::comm::Message m = appfl::core::FedAvgClient::update(global, round);
    last_round = round;
    last_primal = m.primal;
    last_samples = m.sample_count;
    return m;
  }

  std::uint32_t last_round = 0;
  std::vector<float> last_primal;
  std::uint64_t last_samples = 0;
};

TEST(SecureAggRunner, SurvivorAggregateBitExactWithDeadClient) {
  // Client 3's link is permanently down: it never trains or shares, so
  // every round aggregates exactly the four survivors. The final model
  // must be bit-identical to replaying the last round's fixed-point
  // arithmetic over the survivors' recorded uploads — masking recovered
  // the survivor sum exactly, not approximately.
  const std::size_t n_clients = 5;
  const auto split = small_split(n_clients);
  appfl::core::RunConfig cfg = small_cfg(3);
  cfg.secure_agg = true;
  cfg.secure_agg_threshold = 3;
  cfg.faults.dead = {3};

  auto proto = appfl::core::build_model(cfg, split.test);
  auto server = appfl::core::build_server(
      cfg, appfl::core::build_model(cfg, split.test), split.test, n_clients);
  std::vector<std::unique_ptr<appfl::core::BaseClient>> clients;
  std::vector<RecordingClient*> recorders;
  for (std::size_t p = 0; p < n_clients; ++p) {
    auto c = std::make_unique<RecordingClient>(
        static_cast<std::uint32_t>(p + 1), cfg, *proto, split.clients[p]);
    recorders.push_back(c.get());
    clients.push_back(std::move(c));
  }
  const auto result = appfl::core::run_federated(cfg, *server, clients);

  EXPECT_EQ(result.secagg_rounds_degraded, 0U);
  EXPECT_EQ(result.secagg_reconstructions, 0U);  // dead ≠ in U2, no recovery
  EXPECT_EQ(recorders[2]->last_round, 0U);       // never trained

  // Replay the last round: sum of quantize(z_p, scale·I_p) over survivors,
  // divided once by scale·ΣI_p.
  std::vector<std::uint64_t> sum;
  double total_weight = 0.0;
  for (std::size_t p = 0; p < n_clients; ++p) {
    if (p == 2) continue;
    ASSERT_EQ(recorders[p]->last_round, cfg.rounds);
    const double weight = static_cast<double>(recorders[p]->last_samples);
    const auto q = appfl::dp::quantize(recorders[p]->last_primal,
                                       appfl::dp::kDefaultScale * weight);
    if (sum.empty()) sum.assign(q.size(), 0);
    for (std::size_t i = 0; i < q.size(); ++i) sum[i] += q[i];
    total_weight += weight;
  }
  const auto expected = appfl::dp::dequantize_sum(
      sum, appfl::dp::kDefaultScale * total_weight);
  ASSERT_EQ(result.final_parameters.size(), expected.size());
  EXPECT_EQ(std::memcmp(result.final_parameters.data(), expected.data(),
                        expected.size() * sizeof(float)),
            0);
}

TEST(SecureAggRunner, DropFaultsExerciseMaskRecovery) {
  // Random uplink drops with retransmission off create the post-share
  // pre-upload window: some clients enter U2 (shares landed) but their
  // masked upload is lost, forcing pairwise-key reconstruction. The run
  // must complete, count the recoveries, and degrade (not crash) any
  // round that falls below threshold.
  const auto split = small_split(8);
  appfl::core::RunConfig cfg = small_cfg(6);
  cfg.secure_agg = true;
  cfg.secure_agg_threshold = 3;
  cfg.faults.drop = 0.2;
  cfg.max_uplink_retries = 0;
  cfg.gather_timeout_s = 5.0;

  const auto result = appfl::core::run_federated(cfg, split);
  ASSERT_EQ(result.rounds.size(), cfg.rounds);
  // The fault schedule is a pure function of the seed, so this is a
  // deterministic assertion, not a flaky one: at least one round saw a
  // share survivor drop before upload and recovered its pairwise masks.
  EXPECT_GE(result.secagg_reconstructions, 1U);
  std::uint64_t reconstructions = 0;
  std::uint64_t degraded = 0;
  for (const auto& r : result.rounds) {
    reconstructions += r.secagg_reconstructions;
    degraded += r.secagg_degraded ? 1 : 0;
    if (!r.secagg_degraded) {
      EXPECT_GE(r.responders, cfg.secure_agg_threshold);
    }
    EXPECT_TRUE(std::isfinite(r.train_loss));
  }
  EXPECT_EQ(result.secagg_reconstructions, reconstructions);
  EXPECT_EQ(result.secagg_rounds_degraded, degraded);
  for (float v : result.final_parameters) {
    ASSERT_TRUE(std::isfinite(v));
  }
}

TEST(SecureAggRunner, LostSharePacketsCountInTheHealthLedger) {
  // One rule in both loops: a lost share packet is one dropped frame, and
  // a trained participant outside U2 is one share discard, whether or not
  // the round recovers. Drop-only faults without retransmits make every
  // loss one drop: a lost broadcast is a dropout, a lost uplink (share
  // packet or masked upload) a dropped frame. With the threshold at the
  // full cohort, share packets are lost only in rounds that time out on
  // the share wave, where nothing else is sent after the broadcast.
  const auto split = small_split(6);
  appfl::core::RunConfig cfg = small_cfg(6);
  cfg.secure_agg = true;
  cfg.secure_agg_threshold = 6;
  cfg.faults.drop = 0.15;
  cfg.max_uplink_retries = 0;
  cfg.gather_timeout_s = 5.0;
  cfg.obs_level = "metrics";
  const std::filesystem::path csv =
      std::filesystem::temp_directory_path() / "appfl_sync_share_health.csv";
  cfg.health_out = csv.string();
  const auto result = appfl::core::run_federated(cfg, split);
  const LedgerSums ledger = read_ledger(csv);
  const std::uint64_t timeout_drops = share_wave_timeout_drops(result.rounds);
  ASSERT_GT(timeout_drops, ledger.dropouts) << "no share packet was lost";
  EXPECT_EQ(ledger.dropped_frames + ledger.dropouts, result.traffic.drops);
  EXPECT_EQ(ledger.share_discards, timeout_drops - ledger.dropouts);
}

TEST(SecureAggRunner, BelowThresholdRoundsDegradeGracefully) {
  // Threshold = full cohort with two dead clients: no round can ever
  // recover. Every round is counted degraded, the model never moves, and
  // the run still completes normally.
  const auto split = small_split(5);
  appfl::core::RunConfig cfg = small_cfg(3);
  cfg.secure_agg = true;
  cfg.secure_agg_threshold = 5;
  cfg.faults.dead = {2, 3};
  cfg.gather_timeout_s = 5.0;

  const auto result = appfl::core::run_federated(cfg, split);
  ASSERT_EQ(result.rounds.size(), cfg.rounds);
  EXPECT_EQ(result.secagg_rounds_degraded, cfg.rounds);
  EXPECT_EQ(result.secagg_reconstructions, 0U);
  for (const auto& r : result.rounds) {
    EXPECT_TRUE(r.secagg_degraded);
    EXPECT_EQ(r.responders, 0U);  // no masked upload was ever released
  }
  // With every update skipped the global model stays at the initial point.
  const auto initial =
      appfl::core::build_model(cfg, split.test)->flat_parameters();
  ASSERT_EQ(result.final_parameters.size(), initial.size());
  for (std::size_t i = 0; i < initial.size(); ++i) {
    EXPECT_NEAR(result.final_parameters[i], initial[i], 1e-5) << i;
  }
}

// --- Population engine ----------------------------------------------------

appfl::data::FemnistSpec pop_spec(std::size_t writers) {
  appfl::data::FemnistSpec spec;
  spec.num_writers = writers;
  spec.num_classes = 5;
  spec.min_classes_per_writer = 2;
  spec.max_classes_per_writer = 5;
  spec.mean_samples_per_writer = 16;
  spec.test_size = 64;
  spec.seed = 11;
  return spec;
}

appfl::core::RunConfig pop_cfg(std::size_t population,
                               std::size_t participants) {
  appfl::core::RunConfig cfg;
  cfg.algorithm = appfl::core::Algorithm::kFedAvg;
  cfg.model = appfl::core::ModelKind::kLogistic;
  cfg.rounds = 3;
  cfg.local_steps = 1;
  cfg.batch_size = 8;
  cfg.population = population;
  cfg.participants_per_round = participants;
  cfg.seed = 11;
  cfg.validate_every_round = false;
  cfg.secure_agg = true;
  return cfg;
}

TEST(SecureAggPopulation, TreeRoutingDoesNotChangeTheRecoveredModel) {
  // Secure aggregation composes with the aggregation tree: masked words
  // route through leaf leaders, but the root's integer sum is taken in
  // slot order either way, so flat vs tree is bit-identical — the same
  // invariance the plain engine guarantees.
  const appfl::data::SyntheticPopulation pop(pop_spec(60));
  appfl::core::RunConfig flat = pop_cfg(60, 12);
  appfl::core::RunConfig tree = flat;
  tree.tree_fan_out = 3;
  const auto a = appfl::core::run_population(flat, pop);
  const auto b = appfl::core::run_population(tree, pop);
  ASSERT_EQ(a.run.final_parameters.size(), b.run.final_parameters.size());
  EXPECT_EQ(std::memcmp(a.run.final_parameters.data(),
                        b.run.final_parameters.data(),
                        a.run.final_parameters.size() * sizeof(float)),
            0);
  EXPECT_EQ(a.run.secagg_rounds_degraded, 0U);
  EXPECT_EQ(a.run.secagg_reconstructions, 0U);

  // And the masked path reproduces the plain engine within quantization.
  appfl::core::RunConfig plain = flat;
  plain.secure_agg = false;
  const auto c = appfl::core::run_population(plain, pop);
  for (std::size_t i = 0; i < c.run.final_parameters.size(); ++i) {
    EXPECT_NEAR(a.run.final_parameters[i], c.run.final_parameters[i], 1e-3)
        << i;
  }
}

TEST(SecureAggPopulation, DropFaultsRecoverOrDegrade) {
  // The engine has no retransmit plane, so a moderate drop rate creates
  // both windows: shares lost (slot outside U2) and uploads lost after
  // shares landed (pairwise-key reconstruction). Every round must either
  // recover the survivor sum or degrade gracefully.
  const appfl::data::SyntheticPopulation pop(pop_spec(60));
  appfl::core::RunConfig cfg = pop_cfg(60, 12);
  cfg.rounds = 4;
  cfg.tree_fan_out = 3;
  cfg.secure_agg_threshold = 5;
  cfg.faults.drop = 0.15;
  cfg.gather_timeout_s = 5.0;
  const auto result = appfl::core::run_population(cfg, pop);
  ASSERT_EQ(result.run.rounds.size(), cfg.rounds);
  // Deterministic under the fixed seed: at least one share survivor
  // dropped before upload and had its pairwise masks reconstructed.
  EXPECT_GE(result.run.secagg_reconstructions, 1U);
  for (const auto& r : result.run.rounds) {
    if (!r.secagg_degraded) {
      EXPECT_GE(r.responders, cfg.secure_agg_threshold);
      EXPECT_TRUE(std::isfinite(r.train_loss));
    } else {
      EXPECT_LT(r.responders, cfg.secure_agg_threshold);
    }
  }
  for (float v : result.run.final_parameters) ASSERT_TRUE(std::isfinite(v));
}

TEST(SecureAggPopulation, CorruptUplinksCountAsDroppedFrames) {
  // A corrupted uplink — share packet, plain update or masked upload —
  // reaches its receiver's mailbox and fails the CRC there. So with
  // corrupt-only faults the health ledger's dropped frames, summed over
  // clients, equal the run's crc_failures.
  const appfl::data::SyntheticPopulation pop(pop_spec(60));
  for (bool secure : {true, false}) {
    appfl::core::RunConfig cfg = pop_cfg(60, 12);
    cfg.rounds = 4;
    cfg.tree_fan_out = 3;
    cfg.secure_agg = secure;
    cfg.faults.corrupt = 0.15;
    cfg.obs_level = "metrics";
    const std::filesystem::path csv =
        std::filesystem::temp_directory_path() /
        (std::string("appfl_pop_health_") + (secure ? "secure" : "plain") +
         ".csv");
    cfg.health_out = csv.string();
    const auto result = appfl::core::run_population(cfg, pop);
    std::ifstream in(csv);
    std::string line;
    ASSERT_TRUE(std::getline(in, line));
    ASSERT_EQ(line.rfind("client,updates,", 0), 0U) << line;
    std::uint64_t dropped = 0;
    while (std::getline(in, line)) {
      std::stringstream row(line);
      std::string cell;
      for (int col = 0; col <= 8; ++col) std::getline(row, cell, ',');
      dropped += std::stoull(cell);  // column 8: dropped_frames
    }
    in.close();
    std::filesystem::remove(csv);
    EXPECT_GT(result.run.traffic.crc_failures, 0U) << secure;
    EXPECT_EQ(dropped, result.run.traffic.crc_failures) << secure;
  }
}

TEST(SecureAggPopulation, LostSharePacketsCountInTheHealthLedger) {
  // The sync runner's rule (see SecureAggRunner's test of the same name):
  // every lost uplink is a dropped frame, and every slot outside U2 a share
  // discard, in rounds that time out on the share wave too. Every slot
  // trains and the broadcast is not faulted, so all drops are uplinks.
  const appfl::data::SyntheticPopulation pop(pop_spec(60));
  appfl::core::RunConfig cfg = pop_cfg(60, 6);
  cfg.rounds = 4;
  cfg.secure_agg_threshold = 6;
  cfg.faults.drop = 0.15;
  cfg.gather_timeout_s = 5.0;
  cfg.obs_level = "metrics";
  const std::filesystem::path csv =
      std::filesystem::temp_directory_path() / "appfl_pop_share_health.csv";
  cfg.health_out = csv.string();
  const auto result = appfl::core::run_population(cfg, pop);
  const LedgerSums ledger = read_ledger(csv);
  const std::uint64_t timeout_drops =
      share_wave_timeout_drops(result.run.rounds);
  ASSERT_GT(timeout_drops, 0U) << "no share packet was lost";
  EXPECT_EQ(ledger.dropped_frames, result.run.traffic.drops);
  EXPECT_EQ(ledger.dropped_frames + ledger.dropouts, result.run.traffic.drops);
  EXPECT_EQ(ledger.share_discards, timeout_drops);
}

TEST(PopulationLedger, DropOnlyRunCountsEachLostUplinkOnce) {
  // A dropout is a sampled participant that never received the round's
  // model, as in the sync runner. The engine never faults its broadcast, so
  // with drop-only faults every drop is a lost uplink: one dropped frame
  // and no dropout.
  const appfl::data::SyntheticPopulation pop(pop_spec(60));
  appfl::core::RunConfig cfg = pop_cfg(60, 6);
  cfg.secure_agg = false;
  cfg.rounds = 4;
  cfg.faults.drop = 0.3;
  cfg.gather_timeout_s = 5.0;
  cfg.obs_level = "metrics";
  const std::filesystem::path csv =
      std::filesystem::temp_directory_path() / "appfl_pop_drop_health.csv";
  cfg.health_out = csv.string();
  const auto result = appfl::core::run_population(cfg, pop);
  const LedgerSums ledger = read_ledger(csv);
  ASSERT_GT(result.run.traffic.drops, 0U) << "no uplink was lost";
  EXPECT_EQ(ledger.dropped_frames + ledger.dropouts, result.run.traffic.drops);
  EXPECT_EQ(ledger.dropouts, 0U);
}

TEST(SecureAggPopulation, DeadSlotBelowFullThresholdDegradesEveryRound) {
  // Threshold = full cohort with one permanently dead slot endpoint: U2
  // can never reach t, every round degrades, and the model never moves.
  const appfl::data::SyntheticPopulation pop(pop_spec(40));
  appfl::core::RunConfig cfg = pop_cfg(40, 8);
  cfg.secure_agg_threshold = 8;
  cfg.faults.dead = {2};  // slot endpoint 2 — a different id each round
  cfg.gather_timeout_s = 5.0;
  const auto result = appfl::core::run_population(cfg, pop);
  ASSERT_EQ(result.run.rounds.size(), cfg.rounds);
  EXPECT_EQ(result.run.secagg_rounds_degraded, cfg.rounds);
  EXPECT_EQ(result.run.secagg_reconstructions, 0U);
  for (const auto& r : result.run.rounds) {
    EXPECT_TRUE(r.secagg_degraded);
    EXPECT_EQ(r.responders, 0U);
  }
  const auto initial = [&] {
    appfl::data::TensorDataset test = pop.test_set();
    return appfl::core::build_model(cfg, test)->flat_parameters();
  }();
  ASSERT_EQ(result.run.final_parameters.size(), initial.size());
  EXPECT_EQ(std::memcmp(result.run.final_parameters.data(), initial.data(),
                        initial.size() * sizeof(float)),
            0);
}

}  // namespace
