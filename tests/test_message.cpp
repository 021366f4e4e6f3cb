// FL message encodings: raw (MPI path) and proto (gRPC path).
#include <gtest/gtest.h>

#include "util/check.hpp"

#include "comm/message.hpp"
#include "rng/rng.hpp"

namespace {

using appfl::comm::Message;
using appfl::comm::MessageKind;

Message sample_message(std::size_t m, bool with_dual) {
  Message msg;
  msg.kind = MessageKind::kLocalUpdate;
  msg.sender = 7;
  msg.receiver = 0;
  msg.round = 12;
  msg.sample_count = 1234;
  msg.loss = 0.725;
  msg.rho = 2.5;  // adaptive-rho metadata rides along
  appfl::rng::Rng r(5);
  msg.primal.resize(m);
  for (auto& v : msg.primal) v = static_cast<float>(r.uniform01()) - 0.5F;
  if (with_dual) {
    msg.dual.resize(m);
    for (auto& v : msg.dual) v = static_cast<float>(r.uniform01());
  }
  return msg;
}

class MessageRoundTrip : public testing::TestWithParam<bool> {};

TEST_P(MessageRoundTrip, RawEncodingIsLossless) {
  const Message msg = sample_message(257, GetParam());
  const auto bytes = appfl::comm::encode_raw(msg);
  EXPECT_EQ(bytes.size(), appfl::comm::raw_encoded_size(msg));
  EXPECT_EQ(appfl::comm::decode_raw(bytes), msg);
}

TEST_P(MessageRoundTrip, ProtoEncodingIsLossless) {
  const Message msg = sample_message(257, GetParam());
  const auto bytes = appfl::comm::encode_proto(msg);
  EXPECT_EQ(bytes.size(), appfl::comm::proto_encoded_size(msg));
  EXPECT_EQ(appfl::comm::decode_proto(bytes), msg);
}

INSTANTIATE_TEST_SUITE_P(WithAndWithoutDual, MessageRoundTrip,
                         testing::Values(false, true),
                         [](const testing::TestParamInfo<bool>& i) {
                           return i.param ? "with_dual" : "primal_only";
                         });

TEST(Message, EmptyVectorsRoundTrip) {
  Message msg;
  msg.kind = MessageKind::kShutdown;
  EXPECT_EQ(appfl::comm::decode_raw(appfl::comm::encode_raw(msg)), msg);
  EXPECT_EQ(appfl::comm::decode_proto(appfl::comm::encode_proto(msg)), msg);
}

TEST(Message, DualDoublesTheRawPayload) {
  // The §III-A traffic claim at the wire level: ICEADMM-style messages
  // (primal + dual) carry ~2× the bytes of IIADMM-style (primal only).
  const std::size_t m = 100000;
  const Message primal_only = sample_message(m, false);
  const Message with_dual = sample_message(m, true);
  const double ratio =
      static_cast<double>(appfl::comm::raw_encoded_size(with_dual)) /
      static_cast<double>(appfl::comm::raw_encoded_size(primal_only));
  EXPECT_NEAR(ratio, 2.0, 0.01);
}

TEST(Message, ProtoOverheadIsSmallForLargePayloads) {
  const Message msg = sample_message(100000, false);
  const double raw = static_cast<double>(appfl::comm::raw_encoded_size(msg));
  const double proto =
      static_cast<double>(appfl::comm::proto_encoded_size(msg));
  // Same order: the float payload dominates both; proto adds tags/varints,
  // raw adds fixed headers.
  EXPECT_NEAR(proto / raw, 1.0, 0.01);
}

TEST(Message, RawDecodeRejectsCorruption) {
  const Message msg = sample_message(8, true);
  auto bytes = appfl::comm::encode_raw(msg);
  bytes[0] = 200;  // invalid kind
  EXPECT_THROW(appfl::comm::decode_raw(bytes), appfl::Error);
  auto truncated = appfl::comm::encode_raw(msg);
  truncated.resize(truncated.size() / 2);
  EXPECT_THROW(appfl::comm::decode_raw(truncated), appfl::Error);
}

TEST(Message, FloatPayloadBitExactThroughBothEncodings) {
  // Dual-consistency of IIADMM requires float vectors to survive the wire
  // bit-for-bit. Exercise denormals, infinities, and exact values.
  Message msg;
  msg.kind = MessageKind::kLocalUpdate;
  msg.sender = 1;
  msg.primal = {0.0F, -0.0F, 1e-45F, std::numeric_limits<float>::infinity(),
                -std::numeric_limits<float>::max(), 0.1F};
  const Message raw_back = appfl::comm::decode_raw(appfl::comm::encode_raw(msg));
  const Message proto_back =
      appfl::comm::decode_proto(appfl::comm::encode_proto(msg));
  for (std::size_t i = 0; i < msg.primal.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint32_t>(raw_back.primal[i]),
              std::bit_cast<std::uint32_t>(msg.primal[i]));
    EXPECT_EQ(std::bit_cast<std::uint32_t>(proto_back.primal[i]),
              std::bit_cast<std::uint32_t>(msg.primal[i]));
  }
}

TEST(Message, NanPayloadsCompareEqualAfterRoundTrip) {
  // operator== compares float fields bitwise: a NaN loss (divergent client)
  // or NaN parameters must round-trip as "equal", not poison every
  // comparison with NaN != NaN.
  Message msg = sample_message(6, true);
  msg.loss = std::numeric_limits<double>::quiet_NaN();
  msg.rho = std::numeric_limits<float>::quiet_NaN();
  msg.primal[2] = std::numeric_limits<float>::quiet_NaN();
  msg.dual[0] = -std::numeric_limits<float>::quiet_NaN();
  EXPECT_EQ(msg, msg);  // reflexive even with NaNs present
  EXPECT_EQ(appfl::comm::decode_raw(appfl::comm::encode_raw(msg)), msg);
  EXPECT_EQ(appfl::comm::decode_proto(appfl::comm::encode_proto(msg)), msg);
  // Bitwise means different payloads still differ.
  Message other = msg;
  other.primal[0] += 1.0F;
  EXPECT_FALSE(msg == other);
}

}  // namespace
