#include "comm/message.hpp"

#include <cstring>
#include <span>

#include "comm/protolite.hpp"
#include "util/check.hpp"

namespace appfl::comm {

bool same_bits(float a, float b) {
  std::uint32_t ba, bb;
  std::memcpy(&ba, &a, 4);
  std::memcpy(&bb, &b, 4);
  return ba == bb;
}

bool same_bits(double a, double b) {
  std::uint64_t ba, bb;
  std::memcpy(&ba, &a, 8);
  std::memcpy(&bb, &b, 8);
  return ba == bb;
}

namespace {

bool same_bits_vec(const std::vector<float>& a, const std::vector<float>& b) {
  if (a.size() != b.size()) return false;
  return a.empty() || std::memcmp(a.data(), b.data(), 4 * a.size()) == 0;
}

}  // namespace

bool Message::operator==(const Message& other) const {
  return kind == other.kind && sender == other.sender &&
         receiver == other.receiver && round == other.round &&
         sample_count == other.sample_count && same_bits(loss, other.loss) &&
         same_bits(rho, other.rho) && same_bits_vec(primal, other.primal) &&
         same_bits_vec(dual, other.dual) && codec == other.codec &&
         packed == other.packed && trace_span == other.trace_span;
}

namespace {

void append_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void append_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

std::uint32_t read_u32(std::span<const std::uint8_t> b, std::size_t& off) {
  APPFL_CHECK_MSG(off + 4 <= b.size(), "truncated raw message");
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= std::uint32_t{b[off + i]} << (8 * i);
  off += 4;
  return v;
}

std::uint64_t read_u64(std::span<const std::uint8_t> b, std::size_t& off) {
  APPFL_CHECK_MSG(off + 8 <= b.size(), "truncated raw message");
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= std::uint64_t{b[off + i]} << (8 * i);
  off += 8;
  return v;
}

void append_float_vec(std::vector<std::uint8_t>& out,
                      const std::vector<float>& v) {
  append_u64(out, v.size());
  const std::size_t start = out.size();
  out.resize(start + 4 * v.size());
  // An empty vector's data() may be null, and memcpy from null is UB even
  // for zero bytes.
  if (!v.empty()) std::memcpy(out.data() + start, v.data(), 4 * v.size());
}

FloatView read_float_view(std::span<const std::uint8_t> b, std::size_t& off) {
  const std::uint64_t n = read_u64(b, off);
  // Divide instead of multiplying: 4·n would wrap for hostile lengths and
  // an unchecked vector(n) could throw bad_alloc/length_error (fuzzer find).
  APPFL_CHECK_MSG(off <= b.size() && n <= (b.size() - off) / 4,
                  "truncated raw float vector");
  FloatView v(b.data() + off, n);
  off += 4 * n;
  return v;
}

}  // namespace

void FloatView::copy_into(std::vector<float>& out) const {
  out.resize(count_);
  if (count_ > 0) std::memcpy(out.data(), data_, 4 * count_);
}

std::vector<float> FloatView::to_vector() const {
  std::vector<float> out;
  copy_into(out);
  return out;
}

Message MessageView::detach() const {
  Message m;
  detach_into(m);
  return m;
}

void MessageView::detach_into(Message& out) const {
  out.kind = kind;
  out.sender = sender;
  out.receiver = receiver;
  out.round = round;
  out.sample_count = sample_count;
  out.loss = loss;
  out.rho = rho;
  out.codec = codec;
  out.trace_span = trace_span;
  primal.copy_into(out.primal);
  dual.copy_into(out.dual);
  out.packed.assign(packed.begin(), packed.end());
}

std::size_t raw_encoded_size(const Message& m) {
  // kind(1) + sender(4) + receiver(4) + round(4) + samples(8) + loss(8)
  // + rho(8) + 2 × (len(8) + floats) + codec(1) + packed(len(8) + bytes)
  // + optional trace-context trailer (8, only when trace_span != 0).
  return 1 + 4 + 4 + 4 + 8 + 8 + 8 + 8 + 4 * m.primal.size() + 8 +
         4 * m.dual.size() + 1 + 8 + m.packed.size() +
         (m.trace_span != 0 ? 8 : 0);
}

std::vector<std::uint8_t> encode_raw(const Message& m) {
  std::vector<std::uint8_t> out;
  encode_raw_append(m, out);
  return out;
}

void encode_raw_append(const Message& m, std::vector<std::uint8_t>& out) {
  out.reserve(out.size() + raw_encoded_size(m));
  out.push_back(static_cast<std::uint8_t>(m.kind));
  append_u32(out, m.sender);
  append_u32(out, m.receiver);
  append_u32(out, m.round);
  append_u64(out, m.sample_count);
  std::uint64_t loss_bits;
  std::memcpy(&loss_bits, &m.loss, 8);
  append_u64(out, loss_bits);
  std::uint64_t rho_bits;
  std::memcpy(&rho_bits, &m.rho, 8);
  append_u64(out, rho_bits);
  append_float_vec(out, m.primal);
  append_float_vec(out, m.dual);
  out.push_back(m.codec);
  append_u64(out, m.packed.size());
  out.insert(out.end(), m.packed.begin(), m.packed.end());
  // Optional trailer: old decoders never saw one (they require exact
  // consumption), new decoders read it iff bytes remain.
  if (m.trace_span != 0) append_u64(out, m.trace_span);
}

Message decode_raw(std::span<const std::uint8_t> bytes) {
  return decode_raw_view(bytes).detach();
}

MessageView decode_raw_view(std::span<const std::uint8_t> bytes) {
  APPFL_CHECK_MSG(!bytes.empty(), "empty raw message");
  MessageView m;
  std::size_t off = 0;
  const std::uint8_t kind = bytes[off++];
  APPFL_CHECK_MSG(kind <= 4, "invalid message kind " << int{kind});
  m.kind = static_cast<MessageKind>(kind);
  m.sender = read_u32(bytes, off);
  m.receiver = read_u32(bytes, off);
  m.round = read_u32(bytes, off);
  m.sample_count = read_u64(bytes, off);
  const std::uint64_t loss_bits = read_u64(bytes, off);
  std::memcpy(&m.loss, &loss_bits, 8);
  const std::uint64_t rho_bits = read_u64(bytes, off);
  std::memcpy(&m.rho, &rho_bits, 8);
  m.primal = read_float_view(bytes, off);
  m.dual = read_float_view(bytes, off);
  APPFL_CHECK_MSG(off < bytes.size(), "truncated raw message (codec)");
  m.codec = bytes[off++];
  const std::uint64_t packed_len = read_u64(bytes, off);
  APPFL_CHECK_MSG(packed_len <= bytes.size() - off,
                  "truncated raw packed payload");
  m.packed = bytes.subspan(off, packed_len);
  off += packed_len;
  if (off < bytes.size()) m.trace_span = read_u64(bytes, off);
  APPFL_CHECK_MSG(off == bytes.size(), "trailing bytes in raw message");
  return m;
}

namespace {
// protolite field numbers for Message.
constexpr std::uint32_t kFKind = 1;
constexpr std::uint32_t kFSender = 2;
constexpr std::uint32_t kFReceiver = 3;
constexpr std::uint32_t kFRound = 4;
constexpr std::uint32_t kFSamples = 5;
constexpr std::uint32_t kFLoss = 6;
constexpr std::uint32_t kFPrimal = 7;
constexpr std::uint32_t kFDual = 8;
constexpr std::uint32_t kFRho = 9;
constexpr std::uint32_t kFCodec = 10;
constexpr std::uint32_t kFPacked = 11;
constexpr std::uint32_t kFTraceSpan = 12;
}  // namespace

std::vector<std::uint8_t> encode_proto(const Message& m) {
  std::vector<std::uint8_t> out;
  encode_proto_append(m, out);
  return out;
}

void encode_proto_append(const Message& m, std::vector<std::uint8_t>& out) {
  ProtoWriter w(std::move(out));
  // Exact pre-size: the varint-heavy append loop must never reallocate (a
  // multi-MB packed-float field used to trigger repeated growth copies).
  w.reserve(proto_encoded_size(m));
  w.add_varint(kFKind, static_cast<std::uint64_t>(m.kind));
  w.add_varint(kFSender, m.sender);
  w.add_varint(kFReceiver, m.receiver);
  w.add_varint(kFRound, m.round);
  w.add_varint(kFSamples, m.sample_count);
  w.add_double(kFLoss, m.loss);
  w.add_packed_floats(kFPrimal, m.primal);
  if (!m.dual.empty()) w.add_packed_floats(kFDual, m.dual);
  if (m.rho != 0.0) w.add_double(kFRho, m.rho);
  if (m.codec != 0) {
    w.add_varint(kFCodec, m.codec);
    w.add_bytes(kFPacked, m.packed);
  }
  if (m.trace_span != 0) w.add_varint(kFTraceSpan, m.trace_span);
  out = w.take();
}

namespace {

/// View counterpart of ProtoReader::as_packed_floats — same checks and
/// error text, no copy.
FloatView as_packed_float_view(const ProtoField& f) {
  APPFL_CHECK_MSG(f.wire_type == 2, "field is not length-delimited");
  APPFL_CHECK_MSG(f.bytes.size() % 4 == 0,
                  "packed float payload not a multiple of 4");
  return {f.bytes.data(), f.bytes.size() / 4};
}

}  // namespace

Message decode_proto(std::span<const std::uint8_t> bytes) {
  return decode_proto_view(bytes).detach();
}

MessageView decode_proto_view(std::span<const std::uint8_t> bytes) {
  MessageView m;
  ProtoReader r(bytes);
  ProtoField f;
  while (r.next(f)) {
    switch (f.field) {
      case kFKind:
        APPFL_CHECK_MSG(f.varint <= 4, "invalid message kind " << f.varint);
        m.kind = static_cast<MessageKind>(f.varint);
        break;
      case kFSender: m.sender = static_cast<std::uint32_t>(f.varint); break;
      case kFReceiver: m.receiver = static_cast<std::uint32_t>(f.varint); break;
      case kFRound: m.round = static_cast<std::uint32_t>(f.varint); break;
      case kFSamples: m.sample_count = f.varint; break;
      case kFLoss: m.loss = ProtoReader::as_double(f); break;
      case kFPrimal: m.primal = as_packed_float_view(f); break;
      case kFDual: m.dual = as_packed_float_view(f); break;
      case kFRho: m.rho = ProtoReader::as_double(f); break;
      case kFCodec:
        APPFL_CHECK_MSG(f.varint <= 255, "invalid codec " << f.varint);
        m.codec = static_cast<std::uint8_t>(f.varint);
        break;
      case kFPacked:
        m.packed = f.bytes;
        break;
      case kFTraceSpan: m.trace_span = f.varint; break;
      default:
        break;  // unknown fields are skipped, like protobuf
    }
  }
  return m;
}

namespace {
std::size_t varint_size(std::uint64_t v) {
  std::size_t n = 1;
  while (v >= 0x80) {
    v >>= 7;
    ++n;
  }
  return n;
}
}  // namespace

std::size_t proto_encoded_size(const Message& m) {
  std::size_t n = 0;
  n += 1 + varint_size(static_cast<std::uint64_t>(m.kind));
  n += 1 + varint_size(m.sender);
  n += 1 + varint_size(m.receiver);
  n += 1 + varint_size(m.round);
  n += 1 + varint_size(m.sample_count);
  n += 1 + 8;  // double
  n += 1 + varint_size(m.primal.size() * 4) + 4 * m.primal.size();
  if (!m.dual.empty()) n += 1 + varint_size(m.dual.size() * 4) + 4 * m.dual.size();
  if (m.rho != 0.0) n += 1 + 8;
  if (m.codec != 0) {
    n += 1 + varint_size(m.codec);
    n += 1 + varint_size(m.packed.size()) + m.packed.size();
  }
  if (m.trace_span != 0) n += 1 + varint_size(m.trace_span);
  return n;
}

}  // namespace appfl::comm
