// protolite wire-format tests: varint edges, field roundtrips, packed floats,
// unknown-field skipping, malformed input.
#include <gtest/gtest.h>

#include "util/check.hpp"

#include <limits>

#include "comm/protolite.hpp"

namespace {

using appfl::comm::ProtoField;
using appfl::comm::ProtoReader;
using appfl::comm::ProtoWriter;

TEST(Protolite, VarintRoundTripEdgeValues) {
  for (std::uint64_t v :
       {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{127},
        std::uint64_t{128}, std::uint64_t{16383}, std::uint64_t{16384},
        std::uint64_t{1} << 32, std::numeric_limits<std::uint64_t>::max()}) {
    ProtoWriter w;
    w.add_varint(1, v);
    const auto buf = w.take();
    ProtoReader r(buf);
    ProtoField f;
    ASSERT_TRUE(r.next(f));
    EXPECT_EQ(f.field, 1U);
    EXPECT_EQ(f.wire_type, 0U);
    EXPECT_EQ(f.varint, v);
    EXPECT_FALSE(r.next(f));
  }
}

TEST(Protolite, VarintEncodingSizes) {
  auto size_of = [](std::uint64_t v) {
    ProtoWriter w;
    w.add_varint(1, v);
    return w.size() - 1;  // minus the 1-byte tag
  };
  EXPECT_EQ(size_of(0), 1U);
  EXPECT_EQ(size_of(127), 1U);
  EXPECT_EQ(size_of(128), 2U);
  EXPECT_EQ(size_of(16383), 2U);
  EXPECT_EQ(size_of(16384), 3U);
  EXPECT_EQ(size_of(std::numeric_limits<std::uint64_t>::max()), 10U);
}

TEST(Protolite, DoubleField) {
  ProtoWriter w;
  w.add_double(4, -2.25);
  const auto buf = w.take();
  ProtoReader r(buf);
  ProtoField f;
  ASSERT_TRUE(r.next(f));
  EXPECT_EQ(f.field, 4U);
  EXPECT_EQ(ProtoReader::as_double(f), -2.25);
}

TEST(Protolite, StringAndBytes) {
  ProtoWriter w;
  w.add_string(2, "hello proto");
  const auto buf = w.take();
  ProtoReader r(buf);
  ProtoField f;
  ASSERT_TRUE(r.next(f));
  EXPECT_EQ(ProtoReader::as_string(f), "hello proto");
}

TEST(Protolite, PackedFloatsRoundTrip) {
  std::vector<float> v{0.0F, -1.0F, 3.14F, 1e-20F, 1e20F};
  ProtoWriter w;
  w.add_packed_floats(7, v);
  const auto buf = w.take();
  ProtoReader r(buf);
  ProtoField f;
  ASSERT_TRUE(r.next(f));
  EXPECT_EQ(f.field, 7U);
  EXPECT_EQ(ProtoReader::as_packed_floats(f), v);
}

TEST(Protolite, EmptyPackedFloats) {
  ProtoWriter w;
  w.add_packed_floats(1, std::vector<float>{});
  const auto buf = w.take();
  ProtoReader r(buf);
  ProtoField f;
  ASSERT_TRUE(r.next(f));
  EXPECT_TRUE(ProtoReader::as_packed_floats(f).empty());
}

TEST(Protolite, MultipleFieldsPreserveOrder) {
  ProtoWriter w;
  w.add_varint(1, 10);
  w.add_varint(2, 20);
  w.add_varint(1, 30);  // repeated field
  const auto buf = w.take();
  ProtoReader r(buf);
  ProtoField f;
  ASSERT_TRUE(r.next(f));
  EXPECT_EQ(f.varint, 10U);
  ASSERT_TRUE(r.next(f));
  EXPECT_EQ(f.varint, 20U);
  ASSERT_TRUE(r.next(f));
  EXPECT_EQ(f.field, 1U);
  EXPECT_EQ(f.varint, 30U);
}

TEST(Protolite, LargeFieldNumbers) {
  ProtoWriter w;
  w.add_varint(536870911, 5);  // max field number
  const auto buf = w.take();
  ProtoReader r(buf);
  ProtoField f;
  ASSERT_TRUE(r.next(f));
  EXPECT_EQ(f.field, 536870911U);
  EXPECT_THROW(w.add_varint(0, 1), appfl::Error);
}

TEST(Protolite, TruncatedInputThrows) {
  ProtoWriter w;
  w.add_packed_floats(1, std::vector<float>{1.0F, 2.0F});
  auto buf = w.take();
  buf.resize(buf.size() - 3);
  ProtoReader r(buf);
  ProtoField f;
  EXPECT_THROW(r.next(f), appfl::Error);
}

TEST(Protolite, TruncatedVarintThrows) {
  const std::vector<std::uint8_t> buf{0x08, 0x80};  // tag + unterminated varint
  ProtoReader r(buf);
  ProtoField f;
  EXPECT_THROW(r.next(f), appfl::Error);
}

TEST(Protolite, WrongTypeAccessorsThrow) {
  ProtoWriter w;
  w.add_varint(1, 5);
  const auto buf = w.take();
  ProtoReader r(buf);
  ProtoField f;
  ASSERT_TRUE(r.next(f));
  EXPECT_THROW(ProtoReader::as_double(f), appfl::Error);
  EXPECT_THROW(ProtoReader::as_string(f), appfl::Error);
  EXPECT_THROW(ProtoReader::as_packed_floats(f), appfl::Error);
}

TEST(Protolite, EmptyBufferHasNoFields) {
  ProtoReader r(std::span<const std::uint8_t>{});
  ProtoField f;
  EXPECT_FALSE(r.next(f));
}

}  // namespace
