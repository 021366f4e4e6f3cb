// Robustness fuzzing: every decoder in the system must either parse random
// or mutated bytes successfully or throw appfl::Error — never crash,
// over-read, or silently return garbage state that later trips a different
// invariant. (ASan-style discipline enforced by construction: all parsing
// goes through bounds-checked readers.)
#include <gtest/gtest.h>

#include "util/check.hpp"

#include <cstring>

#include "comm/compression.hpp"
#include "comm/envelope.hpp"
#include "comm/message.hpp"
#include "comm/protolite.hpp"
#include "core/checkpoint.hpp"
#include "rng/rng.hpp"

namespace {

std::vector<std::uint8_t> random_bytes(appfl::rng::Rng& r, std::size_t n) {
  std::vector<std::uint8_t> out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(r.next() & 0xFF);
  return out;
}

template <typename Decoder>
void fuzz_random(Decoder decode, int trials, std::uint64_t seed) {
  appfl::rng::Rng r(seed);
  for (int i = 0; i < trials; ++i) {
    const auto bytes = random_bytes(r, r.uniform_below(512));
    try {
      decode(bytes);
    } catch (const appfl::Error&) {
      // Rejection is the expected outcome for garbage.
    }
  }
}

template <typename Decoder>
void fuzz_mutations(const std::vector<std::uint8_t>& valid, Decoder decode,
                    int trials, std::uint64_t seed) {
  appfl::rng::Rng r(seed);
  for (int i = 0; i < trials; ++i) {
    auto bytes = valid;
    // Flip a few random bytes and/or truncate.
    const std::size_t flips = 1 + r.uniform_below(4);
    for (std::size_t f = 0; f < flips && !bytes.empty(); ++f) {
      bytes[r.uniform_below(bytes.size())] ^=
          static_cast<std::uint8_t>(1U << r.uniform_below(8));
    }
    if (r.uniform_below(3) == 0 && !bytes.empty()) {
      bytes.resize(r.uniform_below(bytes.size()) + 1);
    }
    try {
      decode(bytes);
    } catch (const appfl::Error&) {
    }
  }
}

appfl::comm::Message sample_message() {
  appfl::comm::Message m;
  m.kind = appfl::comm::MessageKind::kLocalUpdate;
  m.sender = 3;
  m.round = 7;
  m.sample_count = 100;
  m.loss = 1.5;
  m.rho = 2.0;
  m.primal.assign(50, 0.25F);
  m.dual.assign(50, -0.5F);
  return m;
}

TEST(Fuzz, DecodeRawNeverCrashes) {
  auto decode = [](std::span<const std::uint8_t> b) {
    (void)appfl::comm::decode_raw(b);
  };
  fuzz_random(decode, 3000, 1);
  fuzz_mutations(appfl::comm::encode_raw(sample_message()), decode, 3000, 2);
}

TEST(Fuzz, DecodeProtoNeverCrashes) {
  auto decode = [](std::span<const std::uint8_t> b) {
    (void)appfl::comm::decode_proto(b);
  };
  fuzz_random(decode, 3000, 3);
  fuzz_mutations(appfl::comm::encode_proto(sample_message()), decode, 3000, 4);
}

TEST(Fuzz, ProtoReaderNeverCrashes) {
  auto decode = [](std::span<const std::uint8_t> b) {
    appfl::comm::ProtoReader reader(b);
    appfl::comm::ProtoField f;
    while (reader.next(f)) {
    }
  };
  fuzz_random(decode, 5000, 5);
}

using appfl::core::RunCheckpoint;
using appfl::core::RunFingerprint;

RunCheckpoint sample_sync_ckpt() {
  RunCheckpoint rc;
  rc.algorithm = "IIADMM";
  rc.fingerprint = {.seed = 9, .num_clients = 2, .param_count = 4, .total = 5};
  rc.completed = 2;
  rc.parameters = {1.0F, -2.0F, 3.0F, 0.5F};
  rc.server.kind = "iiadmm";
  rc.server.rho = 2.5;
  rc.server.primal = {{1.0F, 1.0F, 1.0F, 1.0F}, {2.0F, 2.0F, 2.0F, 2.0F}};
  rc.server.dual = {{0.1F, 0.1F, 0.1F, 0.1F}, {0.2F, 0.2F, 0.2F, 0.2F}};
  for (std::uint32_t id = 1; id <= 2; ++id) {
    appfl::core::ClientStateCkpt c;
    c.id = id;
    c.loader_epochs = 4;
    c.dual = {0.1F, 0.1F, 0.1F, 0.1F};
    c.dp_spent = 1.5;
    rc.clients.push_back(c);
  }
  rc.rng_state = {1, 2, 3, 4};
  rc.comm.sim_now = 1.25;
  rc.comm.stats.messages_up = 10;
  rc.comm.link_keys = {(std::uint64_t{1} << 32) | 0};
  rc.comm.link_seqs = {7};
  return rc;
}

RunCheckpoint sample_population_ckpt() {
  RunCheckpoint rc;
  rc.algorithm = "FedAvg";
  rc.fingerprint = {.seed = 9,
                    .num_clients = 100,
                    .participants_per_round = 10,
                    .param_count = 3,
                    .total = 4};
  rc.completed = 3;
  rc.parameters = {0.5F, 0.25F, -1.0F};
  rc.server.kind = "population";
  rc.participation = {{3, 1}, {40, 2}, {100, 3}};
  rc.rng_state = {11, 12, 13, 14};
  rc.comm.sim_now = 9.5;
  rc.comm.stats.drops = 3;
  rc.comm.link_keys = {(std::uint64_t{2} << 32) | 11, (std::uint64_t{3} << 32)};
  rc.comm.link_seqs = {4, 2};
  return rc;
}

RunCheckpoint sample_async_ckpt() {
  RunCheckpoint ac;
  ac.algorithm = "FedAvg";
  ac.fingerprint = {.flavor = RunFingerprint::Flavor::kAsync,
                    .seed = 9,
                    .num_clients = 2,
                    .param_count = 3,
                    .total = 12};
  ac.completed = 5;
  ac.version = 1;
  ac.dispatch_counter = 7;
  ac.staleness_sum = 2.0;
  ac.sim_seconds = 14.5;
  ac.parameters = {1.0F, 2.0F, 3.0F};
  ac.rng_state = {5, 6, 7, 8};
  ac.queue.push_back({15.0, 1, 0});
  ac.queue.push_back({15.5, 2, 1});
  ac.in_flight = {{1.0F, 1.0F, 1.0F}, {2.0F, 2.0F, 2.0F}};
  for (std::uint32_t id = 1; id <= 2; ++id) {
    appfl::core::ClientStateCkpt c;
    c.id = id;
    c.loader_epochs = 6;
    ac.clients.push_back(c);
  }
  ac.strategy = "fedbuff";
  ac.buffer = {{0.5F, -0.5F, 0.25F}};
  ac.buffer_weights = {0.3F};
  ac.dropped_updates = 2;
  ac.fault_rng = {21, 22, 23, 24};
  return ac;
}

/// One sample per flavor and writer: the sync runner, the population
/// engine and the async event loop.
std::vector<std::pair<std::string, RunCheckpoint>> samples() {
  return {{"sync", sample_sync_ckpt()},
          {"population", sample_population_ckpt()},
          {"async", sample_async_ckpt()}};
}

/// Decodes and drops the record: the Decoder the fuzz helpers take.
void try_decode(std::span<const std::uint8_t> b) {
  (void)appfl::core::decode_checkpoint(b);
}

TEST(Fuzz, CheckpointSamplesRoundTrip) {
  for (const auto& [name, ckpt] : samples()) {
    EXPECT_EQ(appfl::core::decode_checkpoint(
                  appfl::core::encode_checkpoint(ckpt)),
              ckpt)
        << name;
  }
}

TEST(Fuzz, CheckpointDecodeNeverCrashes) {
  fuzz_random(try_decode, 3000, 12);
  std::uint64_t seed = 13;
  for (const auto& [name, ckpt] : samples()) {
    fuzz_mutations(appfl::core::encode_checkpoint(ckpt), try_decode,
                   3000, seed++);
  }
}

TEST(Fuzz, ResealedCheckpointMutationsExerciseInnerParser) {
  // Byte flips on the sealed file are almost always caught by the CRC32
  // envelope before the parser runs. Re-sealing a MUTATED inner payload
  // with a fresh valid checksum drives the mutations into the protolite
  // parser and the semantic validators themselves.
  std::uint64_t seed = 16;
  for (const auto& [name, ckpt] : samples()) {
    const auto sealed = appfl::core::encode_checkpoint(ckpt);
    const auto inner = appfl::comm::open_envelope(sealed);
    ASSERT_TRUE(inner.has_value()) << name;
    appfl::rng::Rng r(seed++);
    for (int i = 0; i < 3000; ++i) {
      std::vector<std::uint8_t> payload(inner->begin(), inner->end());
      const std::size_t flips = 1 + r.uniform_below(4);
      for (std::size_t f = 0; f < flips; ++f) {
        payload[r.uniform_below(payload.size())] ^=
            static_cast<std::uint8_t>(1U << r.uniform_below(8));
      }
      if (r.uniform_below(3) == 0) {
        payload.resize(r.uniform_below(payload.size()) + 1);
      }
      // Some float-payload flips survive (data changed, structure intact)
      // — that is fine; the point is zero crashes either way.
      try {
        try_decode(appfl::comm::seal_envelope(std::move(payload)));
      } catch (const appfl::Error&) {
      }
    }
  }
}

TEST(Fuzz, CheckpointTruncationAtEveryLengthRejects) {
  for (const auto& [name, ckpt] : samples()) {
    const auto sealed = appfl::core::encode_checkpoint(ckpt);
    for (std::size_t n = 0; n < sealed.size(); ++n) {
      std::vector<std::uint8_t> cut(sealed.begin(), sealed.begin() + n);
      EXPECT_THROW(try_decode(cut), appfl::Error)
          << name << ": truncation to " << n << " bytes was accepted";
    }
  }
}

TEST(Fuzz, CheckpointOversizedLengthFieldRejects) {
  // A length-delimited field claiming more bytes than the buffer holds
  // must be rejected by the bounds-checked reader, not over-read.
  for (const auto& [name, ckpt] : samples()) {
    const auto sealed = appfl::core::encode_checkpoint(ckpt);
    const auto inner = appfl::comm::open_envelope(sealed);
    ASSERT_TRUE(inner.has_value()) << name;
    std::vector<std::uint8_t> payload(inner->begin(), inner->end());
    // Field 9 (parameters), wire type 2, length 0xFFFFFFFF (5-byte varint).
    payload.push_back(static_cast<std::uint8_t>((9U << 3) | 2U));
    for (int i = 0; i < 4; ++i) payload.push_back(0xFF);
    payload.push_back(0x0F);
    EXPECT_THROW(try_decode(appfl::comm::seal_envelope(std::move(payload))),
                 appfl::Error)
        << name;
  }
}

TEST(Fuzz, CheckpointWrongVersionAndFlavorReject) {
  // Both flavors decode through one decoder; which loop may resume a
  // checkpoint is the checkpoint plane's fingerprint check, not the
  // decoder's. The decoder rejects only versions and flavors it does not
  // know.
  for (const auto& [name, ckpt] : samples()) {
    auto bad_version = ckpt;
    bad_version.format_version = 99;
    EXPECT_THROW(try_decode(appfl::core::encode_checkpoint(bad_version)),
                 appfl::Error)
        << name;
    for (const std::uint8_t flavor : {0, 3}) {
      auto bad_flavor = ckpt;
      bad_flavor.fingerprint.flavor =
          static_cast<RunFingerprint::Flavor>(flavor);
      EXPECT_THROW(try_decode(appfl::core::encode_checkpoint(bad_flavor)),
                   appfl::Error)
          << name << " flavor " << int{flavor};
    }
  }
}

TEST(Fuzz, EarlierAsyncLayoutDecodesToTheSameRecord) {
  // Async checkpoints of earlier builds carry the update budget and count
  // under tags 14/15, no algorithm tag, and their own field order. The one
  // decoder reads them into the record the current encoder round-trips.
  RunCheckpoint expected = sample_async_ckpt();
  expected.algorithm.clear();
  appfl::comm::ProtoWriter w;
  w.add_varint(1, 2);  // format version
  w.add_varint(2, 2);  // async flavor
  w.add_varint(4, expected.fingerprint.seed);
  w.add_varint(5, expected.fingerprint.num_clients);
  w.add_varint(6, expected.fingerprint.param_count);
  w.add_varint(14, expected.fingerprint.total);
  w.add_varint(15, expected.completed);
  w.add_varint(16, expected.version);
  w.add_varint(17, expected.dispatch_counter);
  w.add_double(18, expected.staleness_sum);
  w.add_double(19, expected.sim_seconds);
  w.add_packed_floats(9, expected.parameters);
  for (std::uint64_t word : expected.rng_state) w.add_varint(12, word);
  for (const auto& p : expected.queue) {
    appfl::comm::ProtoWriter pw;
    pw.add_double(1, p.finish_time);
    pw.add_varint(2, p.client);
    pw.add_varint(3, p.version);
    w.add_bytes(20, pw.view());
  }
  for (const auto& z : expected.in_flight) w.add_packed_floats(21, z);
  for (const auto& c : expected.clients) {
    appfl::comm::ProtoWriter cw;
    cw.add_varint(1, c.id);
    cw.add_varint(2, c.loader_epochs);
    cw.add_double(5, c.dp_spent);
    w.add_bytes(11, cw.view());
  }
  w.add_string(22, expected.strategy);
  for (const auto& d : expected.buffer) w.add_packed_floats(23, d);
  w.add_packed_floats(24, expected.buffer_weights);
  w.add_varint(26, expected.dropped_updates);
  for (std::uint64_t word : expected.fault_rng) w.add_varint(27, word);
  const RunCheckpoint decoded =
      appfl::core::decode_checkpoint(appfl::comm::seal_envelope(w.take()));
  EXPECT_EQ(decoded, expected);
  EXPECT_EQ(appfl::core::decode_checkpoint(
                appfl::core::encode_checkpoint(decoded)),
            expected);
}

std::vector<float> sample_floats(std::size_t n, std::uint64_t seed) {
  appfl::rng::Rng r(seed);
  std::vector<float> v(n);
  for (auto& x : v) {
    x = static_cast<float>(r.uniform_below(2000)) / 1000.0F - 1.0F;
  }
  return v;
}

TEST(Fuzz, DecodeTopKNeverCrashes) {
  auto decode = [](std::span<const std::uint8_t> b) {
    (void)appfl::comm::decode_topk(b);
  };
  fuzz_random(decode, 3000, 21);
  const auto valid = appfl::comm::encode_topk(
      appfl::comm::sparsify_topk(sample_floats(300, 5), 40));
  fuzz_mutations(valid, decode, 3000, 22);
}

TEST(Fuzz, DecodeTopKTruncationAtEveryLengthRejects) {
  const auto valid = appfl::comm::encode_topk(
      appfl::comm::sparsify_topk(sample_floats(100, 6), 25));
  for (std::size_t n = 0; n < valid.size(); ++n) {
    std::vector<std::uint8_t> cut(valid.begin(), valid.begin() + n);
    EXPECT_THROW((void)appfl::comm::decode_topk(cut), appfl::Error)
        << "truncation to " << n << " bytes was accepted";
  }
}

TEST(Fuzz, DecodeTopKOversizedCountRejects) {
  // A header claiming far more kept entries than the buffer holds must be
  // rejected by arithmetic, not by over-reading.
  auto bytes = appfl::comm::encode_topk(
      appfl::comm::sparsify_topk(sample_floats(100, 7), 10));
  const std::uint64_t huge = ~std::uint64_t{0} / 8;
  std::memcpy(bytes.data() + 8, &huge, 8);  // k field
  EXPECT_THROW((void)appfl::comm::decode_topk(bytes), appfl::Error);
}

TEST(Fuzz, DecodeInt8NeverCrashes) {
  auto decode = [](std::span<const std::uint8_t> b) {
    (void)appfl::comm::decode_int8(b);
  };
  fuzz_random(decode, 3000, 31);
  const auto valid = appfl::comm::encode_int8(
      appfl::comm::quantize_int8(sample_floats(700, 8), 0.0F, 128));
  fuzz_mutations(valid, decode, 5000, 32);
}

TEST(Fuzz, DecodeInt8TruncationAtEveryLengthRejects) {
  const auto valid = appfl::comm::encode_int8(
      appfl::comm::quantize_int8(sample_floats(500, 9), 0.0F, 128));
  for (std::size_t n = 0; n < valid.size(); ++n) {
    std::vector<std::uint8_t> cut(valid.begin(), valid.begin() + n);
    EXPECT_THROW((void)appfl::comm::decode_int8(cut), appfl::Error)
        << "truncation to " << n << " bytes was accepted";
  }
}

TEST(Fuzz, DecodeInt8MutatedHeaderRejectsOrStaysInBounds) {
  // Every single-byte value in each of the three header fields (size,
  // block, num_blocks) either parses or throws — never crashes. Includes
  // block = 0 / 1, num_blocks inconsistent with size, and huge sizes.
  const auto valid = appfl::comm::encode_int8(
      appfl::comm::quantize_int8(sample_floats(300, 10), 0.0F, 64));
  for (std::size_t field = 0; field < 3; ++field) {
    for (std::uint64_t raw :
         {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{2},
          std::uint64_t{255}, std::uint64_t{1} << 20, ~std::uint64_t{0}}) {
      auto bytes = valid;
      std::memcpy(bytes.data() + 8 * field, &raw, 8);
      try {
        (void)appfl::comm::decode_int8(bytes);
      } catch (const appfl::Error&) {
      }
    }
  }
}

TEST(Fuzz, DecodeInt8OversizedCountRejects) {
  auto bytes = appfl::comm::encode_int8(
      appfl::comm::quantize_int8(sample_floats(300, 11), 0.0F, 64));
  // size far beyond what the payload bytes can hold.
  const std::uint64_t huge = ~std::uint64_t{0} / 2;
  std::memcpy(bytes.data(), &huge, 8);
  EXPECT_THROW((void)appfl::comm::decode_int8(bytes), appfl::Error);
  // num_blocks larger than the remaining bytes could ever describe.
  auto bytes2 = appfl::comm::encode_int8(
      appfl::comm::quantize_int8(sample_floats(300, 12), 0.0F, 64));
  std::memcpy(bytes2.data() + 16, &huge, 8);
  EXPECT_THROW((void)appfl::comm::decode_int8(bytes2), appfl::Error);
}

TEST(Fuzz, SurvivingInt8MutationsRoundTripConsistently) {
  // parse → print → parse fixpoint for every mutated buffer the int8
  // decoder accepts (mirrors the raw-message fixpoint test).
  appfl::rng::Rng r(33);
  const auto valid = appfl::comm::encode_int8(
      appfl::comm::quantize_int8(sample_floats(400, 13), 0.0F, 128));
  int accepted = 0;
  for (int i = 0; i < 4000; ++i) {
    auto bytes = valid;
    bytes[r.uniform_below(bytes.size())] ^=
        static_cast<std::uint8_t>(1U << r.uniform_below(8));
    try {
      const auto q1 = appfl::comm::decode_int8(bytes);
      const auto bytes1 = appfl::comm::encode_int8(q1);
      const auto bytes2 =
          appfl::comm::encode_int8(appfl::comm::decode_int8(bytes1));
      EXPECT_EQ(bytes1, bytes2);
      ++accepted;
    } catch (const appfl::Error&) {
    }
  }
  EXPECT_GT(accepted, 0);  // scale-byte flips are accepted (data changed)
}

TEST(Fuzz, SurvivingRawMutationsRoundTripConsistently) {
  // Any mutated buffer the raw decoder ACCEPTS must re-encode to a buffer
  // that decodes to the same message (parse → print → parse fixpoint).
  appfl::rng::Rng r(11);
  const auto valid = appfl::comm::encode_raw(sample_message());
  int accepted = 0;
  for (int i = 0; i < 4000; ++i) {
    auto bytes = valid;
    bytes[r.uniform_below(bytes.size())] ^=
        static_cast<std::uint8_t>(1U << r.uniform_below(8));
    try {
      const auto m1 = appfl::comm::decode_raw(bytes);
      // Compare re-encoded bytes: bitwise, so NaNs introduced by payload
      // flips (NaN != NaN under operator==) still count as a fixpoint.
      const auto bytes1 = appfl::comm::encode_raw(m1);
      const auto bytes2 =
          appfl::comm::encode_raw(appfl::comm::decode_raw(bytes1));
      EXPECT_EQ(bytes1, bytes2);
      ++accepted;
    } catch (const appfl::Error&) {
    }
  }
  EXPECT_GT(accepted, 0);  // payload-bit flips are accepted (data changed)
}

}  // namespace
