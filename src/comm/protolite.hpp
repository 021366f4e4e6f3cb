// protolite: a protocol-buffers-compatible wire encoding.
//
// The gRPC transport path pays a *real* serialization cost: every message is
// encoded into protobuf wire format (varint field tags, length-delimited
// payloads) and decoded on the other side, exactly the overhead the paper
// identifies for gRPC ("it performs serialization and deserialization of
// user-given data via protocol buffers", §IV-D). The MPI path skips this and
// memcpys raw buffers, matching RDMA semantics.
//
// Wire types implemented: 0 (varint), 1 (64-bit), 2 (length-delimited),
// 5 (32-bit). Field numbers 1..536870911.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace appfl::comm {

/// Streaming encoder. Append fields in any order; take() yields the buffer.
class ProtoWriter {
 public:
  ProtoWriter() = default;

  /// Adopts `buf` (keeping its contents and, more importantly, its
  /// capacity) and appends after the existing bytes — the pooled-buffer
  /// encode path, which also lets a frame header placeholder precede the
  /// payload without a later O(n) shift.
  explicit ProtoWriter(std::vector<std::uint8_t>&& buf) : buf_(std::move(buf)) {}

  /// Pre-sizes the buffer (see proto_encoded_size) so the varint-heavy
  /// append loop never reallocates mid-message.
  void reserve(std::size_t bytes) { buf_.reserve(buf_.size() + bytes); }

  /// Field of wire type 0: unsigned varint.
  void add_varint(std::uint32_t field, std::uint64_t value);

  /// Field of wire type 1: 64-bit double.
  void add_double(std::uint32_t field, double value);

  /// Field of wire type 2: raw bytes.
  void add_bytes(std::uint32_t field, std::span<const std::uint8_t> bytes);

  /// Field of wire type 2: UTF-8 string.
  void add_string(std::uint32_t field, const std::string& s);

  /// Field of wire type 2: packed repeated float (protobuf `repeated float`
  /// with [packed=true]) — the encoding gRPC would use for a weight vector.
  void add_packed_floats(std::uint32_t field, std::span<const float> values);

  std::size_t size() const { return buf_.size(); }
  std::vector<std::uint8_t> take() { return std::move(buf_); }
  std::span<const std::uint8_t> view() const { return buf_; }

 private:
  void put_varint(std::uint64_t v);
  void put_tag(std::uint32_t field, std::uint32_t wire_type);

  std::vector<std::uint8_t> buf_;
};

/// One decoded field. For wire type 2 `bytes` views into the reader's buffer.
struct ProtoField {
  std::uint32_t field = 0;
  std::uint32_t wire_type = 0;
  std::uint64_t varint = 0;                  // wire types 0, 1, 5
  std::span<const std::uint8_t> bytes{};     // wire type 2
};

/// Streaming decoder over an encoded buffer. Call next() until it returns
/// false; malformed input throws appfl::Error.
class ProtoReader {
 public:
  explicit ProtoReader(std::span<const std::uint8_t> buf) : buf_(buf) {}

  bool next(ProtoField& out);

  /// Helpers to reinterpret a decoded field.
  static double as_double(const ProtoField& f);
  static std::string as_string(const ProtoField& f);
  static std::vector<float> as_packed_floats(const ProtoField& f);

  /// Out-parameter flavor: decodes into `out`, reusing its capacity — no
  /// fresh vector per field on repeated decodes (the gather hot path).
  static void as_packed_floats_into(const ProtoField& f,
                                    std::vector<float>& out);

 private:
  std::uint64_t read_varint();

  std::span<const std::uint8_t> buf_;
  std::size_t pos_ = 0;
};

}  // namespace appfl::comm
