#include "comm/protolite.hpp"

#include <cstring>

#include "util/check.hpp"

namespace appfl::comm {

namespace {
constexpr std::uint32_t kVarint = 0;
constexpr std::uint32_t kFixed64 = 1;
constexpr std::uint32_t kLengthDelimited = 2;
constexpr std::uint32_t kFixed32 = 5;
constexpr std::uint32_t kMaxField = 536870911;  // 2^29 − 1
}  // namespace

void ProtoWriter::put_varint(std::uint64_t v) {
  while (v >= 0x80) {
    buf_.push_back(static_cast<std::uint8_t>(v) | 0x80);
    v >>= 7;
  }
  buf_.push_back(static_cast<std::uint8_t>(v));
}

void ProtoWriter::put_tag(std::uint32_t field, std::uint32_t wire_type) {
  APPFL_CHECK_MSG(field >= 1 && field <= kMaxField,
                  "invalid protobuf field number " << field);
  put_varint((std::uint64_t{field} << 3) | wire_type);
}

void ProtoWriter::add_varint(std::uint32_t field, std::uint64_t value) {
  put_tag(field, kVarint);
  put_varint(value);
}

void ProtoWriter::add_double(std::uint32_t field, double value) {
  put_tag(field, kFixed64);
  std::uint64_t bits;
  std::memcpy(&bits, &value, 8);
  for (int i = 0; i < 8; ++i) buf_.push_back(static_cast<std::uint8_t>(bits >> (8 * i)));
}

void ProtoWriter::add_bytes(std::uint32_t field,
                            std::span<const std::uint8_t> bytes) {
  put_tag(field, kLengthDelimited);
  put_varint(bytes.size());
  buf_.insert(buf_.end(), bytes.begin(), bytes.end());
}

void ProtoWriter::add_string(std::uint32_t field, const std::string& s) {
  add_bytes(field, {reinterpret_cast<const std::uint8_t*>(s.data()), s.size()});
}

void ProtoWriter::add_packed_floats(std::uint32_t field,
                                    std::span<const float> values) {
  put_tag(field, kLengthDelimited);
  put_varint(values.size() * 4);
  const std::size_t start = buf_.size();
  buf_.resize(start + values.size() * 4);
  if (!values.empty()) {  // memcpy with a null pointer is UB even for 0 bytes
    std::memcpy(buf_.data() + start, values.data(), values.size() * 4);
  }
}

std::uint64_t ProtoReader::read_varint() {
  std::uint64_t v = 0;
  int shift = 0;
  for (;;) {
    APPFL_CHECK_MSG(pos_ < buf_.size(), "truncated varint");
    APPFL_CHECK_MSG(shift < 64, "varint too long");
    const std::uint8_t b = buf_[pos_++];
    v |= std::uint64_t{b & 0x7FU} << shift;
    if ((b & 0x80U) == 0) return v;
    shift += 7;
  }
}

bool ProtoReader::next(ProtoField& out) {
  if (pos_ >= buf_.size()) return false;
  const std::uint64_t tag = read_varint();
  out.field = static_cast<std::uint32_t>(tag >> 3);
  out.wire_type = static_cast<std::uint32_t>(tag & 0x7U);
  APPFL_CHECK_MSG(out.field >= 1, "invalid field number 0");
  switch (out.wire_type) {
    case kVarint:
      out.varint = read_varint();
      out.bytes = {};
      break;
    case kFixed64: {
      APPFL_CHECK_MSG(pos_ + 8 <= buf_.size(), "truncated fixed64");
      std::uint64_t v = 0;
      for (int i = 0; i < 8; ++i) v |= std::uint64_t{buf_[pos_ + i]} << (8 * i);
      out.varint = v;
      pos_ += 8;
      out.bytes = {};
      break;
    }
    case kLengthDelimited: {
      const std::uint64_t len = read_varint();
      APPFL_CHECK_MSG(pos_ + len <= buf_.size(), "truncated length-delimited field");
      out.bytes = buf_.subspan(pos_, len);
      out.varint = len;
      pos_ += len;
      break;
    }
    case kFixed32: {
      APPFL_CHECK_MSG(pos_ + 4 <= buf_.size(), "truncated fixed32");
      std::uint32_t v = 0;
      for (int i = 0; i < 4; ++i) v |= std::uint32_t{buf_[pos_ + i]} << (8 * i);
      out.varint = v;
      pos_ += 4;
      out.bytes = {};
      break;
    }
    default:
      APPFL_CHECK_MSG(false, "unsupported wire type " << out.wire_type);
  }
  return true;
}

double ProtoReader::as_double(const ProtoField& f) {
  APPFL_CHECK_MSG(f.wire_type == kFixed64, "field is not fixed64");
  const std::uint64_t bits = f.varint;
  double v;
  std::memcpy(&v, &bits, 8);
  return v;
}

std::string ProtoReader::as_string(const ProtoField& f) {
  APPFL_CHECK_MSG(f.wire_type == kLengthDelimited, "field is not length-delimited");
  return std::string(reinterpret_cast<const char*>(f.bytes.data()),
                     f.bytes.size());
}

std::vector<float> ProtoReader::as_packed_floats(const ProtoField& f) {
  std::vector<float> out;
  as_packed_floats_into(f, out);
  return out;
}

void ProtoReader::as_packed_floats_into(const ProtoField& f,
                                        std::vector<float>& out) {
  APPFL_CHECK_MSG(f.wire_type == kLengthDelimited, "field is not length-delimited");
  APPFL_CHECK_MSG(f.bytes.size() % 4 == 0, "packed float payload not a multiple of 4");
  out.resize(f.bytes.size() / 4);
  if (!out.empty()) std::memcpy(out.data(), f.bytes.data(), f.bytes.size());
}

}  // namespace appfl::comm
