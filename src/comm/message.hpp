// FL wire messages and their two encodings.
//
// One message type covers the whole FL protocol: the server broadcasts the
// global model (kGlobalModel), clients reply with their local update
// (kLocalUpdate, primal only for FedAvg/IIADMM, primal+dual for ICEADMM —
// the traffic difference §III-A is about). Two encodings exist:
//   • raw   — header + memcpy'd floats, what MPI/RDMA moves (tensor/serialize
//             style, no per-field overhead);
//   • proto — protolite (protobuf wire format), what gRPC moves.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace appfl::comm {

enum class MessageKind : std::uint8_t {
  kInit = 0,         // one-time (z¹, λ¹) exchange at algorithm start
  kGlobalModel = 1,  // server → client: w^{t+1}
  kLocalUpdate = 2,  // client → server: z_p^{t+1} (+ λ_p^{t+1} if ICEADMM)
  kShutdown = 3,
  kSecAggShares = 4,  // client → server: Shamir share packet (secure agg)
};

struct Message {
  MessageKind kind = MessageKind::kGlobalModel;
  std::uint32_t sender = 0;    // 0 = server, clients are 1..P
  std::uint32_t receiver = 0;
  std::uint32_t round = 0;
  std::vector<float> primal;   // model parameters
  std::vector<float> dual;     // empty unless the algorithm ships duals
  std::uint64_t sample_count = 0;  // I_p, for weighted aggregation
  double loss = 0.0;               // training loss metadata
  // Penalty ρ^t in force this round (adaptive-ρ extension, paper future
  // work 2). 0 = unset: clients fall back to the configured constant ρ.
  double rho = 0.0;
  // Lossy-codec payload (uplink compression): when codec != 0, `primal` is
  // empty on the wire and `packed` holds the encoded vector. The
  // Communicator packs on send and unpacks on gather, so algorithms never
  // see this field populated.
  std::uint8_t codec = 0;
  std::vector<std::uint8_t> packed;
  // Trace context (observability plane): the sender's current span id, so
  // receiver-side spans can link back to the originating client span across
  // threads — in-proc today, socket-ready tomorrow. 0 = no context; the
  // field is only put on the wire when nonzero (which requires obs=trace),
  // so obs-off encodings are byte-identical to pre-trace-context builds.
  std::uint64_t trace_span = 0;

  /// Bitwise equality: float fields (loss, rho, primal, dual) compare by
  /// their bit patterns, not IEEE semantics, so a faithfully round-tripped
  /// NaN still compares equal and codec tests cannot silently pass or fail
  /// on NaN payloads.
  bool operator==(const Message& other) const;
};

/// Bit-pattern equality for floating-point values (NaN == NaN when the
/// payloads match; -0.0 != +0.0). The comparison Message::operator== uses.
bool same_bits(float a, float b);
bool same_bits(double a, double b);

/// Read-only view of packed little-endian float32s sitting inside a wire
/// buffer. A std::span<const float> cannot be used directly: neither
/// encoding 4-byte-aligns its float payloads (the raw header is 37 bytes;
/// proto offsets are varint-sized), so elements are read through memcpy —
/// the standards-clean unaligned load, which compiles to a plain mov.
class FloatView {
 public:
  FloatView() = default;
  FloatView(const std::uint8_t* data, std::size_t count)
      : data_(data), count_(count) {}

  std::size_t size() const { return count_; }
  bool empty() const { return count_ == 0; }
  /// The packed float32 bytes this view reads (unaligned, little-endian) —
  /// what the fused data path hands to the streaming aggregation kernels.
  const std::uint8_t* bytes() const { return data_; }

  /// Resizes `out` (reusing capacity) and copies — the detach primitive.
  void copy_into(std::vector<float>& out) const;
  std::vector<float> to_vector() const;

 private:
  const std::uint8_t* data_ = nullptr;
  std::size_t count_ = 0;
};

/// How a WirePayload's bytes encode its floats.
enum class WireEncoding : std::uint8_t {
  kF32,  // packed little-endian float32 (4 bytes per value)
  kF16,  // packed little-endian IEEE binary16 (2 bytes per value)
};

/// A borrowed wire payload for the fused decode→aggregate data path: the
/// raw bytes of a float vector as they sit in the wire (or codec-decoded)
/// buffer, tagged with their encoding. The streaming aggregation entry
/// points (core/aggregate.hpp) consume these directly, so the payload is
/// touched exactly once — no decode-then-reduce double pass. Like
/// FloatView, the pointer borrows from a buffer the producer keeps alive.
struct WirePayload {
  const std::uint8_t* data = nullptr;
  std::size_t count = 0;  // number of float values
  WireEncoding enc = WireEncoding::kF32;

  bool empty() const { return count == 0; }

  /// View over an already-decoded float vector (codec paths).
  static WirePayload f32(const float* values, std::size_t n) {
    return {reinterpret_cast<const std::uint8_t*>(values), n,
            WireEncoding::kF32};
  }
  /// View over packed float32 wire bytes (FloatView's backing storage).
  static WirePayload f32_bytes(const std::uint8_t* bytes, std::size_t n) {
    return {bytes, n, WireEncoding::kF32};
  }
  /// View over packed binary16 wire bytes (fp16 codec payloads).
  static WirePayload f16_bytes(const std::uint8_t* bytes, std::size_t n) {
    return {bytes, n, WireEncoding::kF16};
  }
};

/// A decoded message whose float payloads still live in the wire buffer —
/// the zero-copy decode result. Header fields are materialized (they are a
/// few dozen bytes); primal/dual/packed borrow from the buffer passed to
/// decode_raw_view / decode_proto_view, which must outlive the view.
/// Validation (kind, sender, round, duplicate checks) can therefore run
/// without ever copying a multi-MB payload; consumers that keep the data
/// call detach()/detach_into().
struct MessageView {
  MessageKind kind = MessageKind::kGlobalModel;
  std::uint32_t sender = 0;
  std::uint32_t receiver = 0;
  std::uint32_t round = 0;
  std::uint64_t sample_count = 0;
  double loss = 0.0;
  double rho = 0.0;
  std::uint8_t codec = 0;
  std::uint64_t trace_span = 0;
  FloatView primal;
  FloatView dual;
  std::span<const std::uint8_t> packed{};

  /// Materializes an owning Message (exactly one copy per payload).
  Message detach() const;
  /// Same, but reuses `out`'s vector capacities (pooled-Message decode).
  void detach_into(Message& out) const;
};

/// Raw encoding (MPI path): fixed header + contiguous float payloads.
std::vector<std::uint8_t> encode_raw(const Message& m);
Message decode_raw(std::span<const std::uint8_t> bytes);

/// Protobuf encoding (gRPC path) via protolite.
std::vector<std::uint8_t> encode_proto(const Message& m);
Message decode_proto(std::span<const std::uint8_t> bytes);

/// Append-encode into a caller-owned buffer (the pooled, zero-realloc
/// path): the encoded bytes — identical to encode_raw/encode_proto's — are
/// appended after `out`'s existing contents (e.g. an envelope header
/// placeholder), with the exact total reserved up front.
void encode_raw_append(const Message& m, std::vector<std::uint8_t>& out);
void encode_proto_append(const Message& m, std::vector<std::uint8_t>& out);

/// Zero-copy decodes. Same validation and errors as the owning decodes;
/// float payloads stay in `bytes` (see MessageView).
MessageView decode_raw_view(std::span<const std::uint8_t> bytes);
MessageView decode_proto_view(std::span<const std::uint8_t> bytes);

/// Size in bytes each encoding would produce (raw is exact and cheap;
/// proto is exact too — computed without building the buffer).
std::size_t raw_encoded_size(const Message& m);
std::size_t proto_encoded_size(const Message& m);

}  // namespace appfl::comm
