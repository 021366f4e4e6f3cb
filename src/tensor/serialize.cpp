#include "tensor/serialize.hpp"

#include <cstring>

#include "util/check.hpp"

namespace appfl::tensor {

namespace {

void append_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

std::uint64_t read_u64(std::span<const std::uint8_t> bytes, std::size_t& off) {
  APPFL_CHECK_MSG(off + 8 <= bytes.size(), "truncated tensor header");
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= std::uint64_t{bytes[off + i]} << (8 * i);
  off += 8;
  return v;
}

}  // namespace

std::size_t byte_size(const Tensor& t) {
  return 8 + 8 * t.rank() + 4 * t.size();
}

std::vector<std::uint8_t> to_bytes(const Tensor& t) {
  std::vector<std::uint8_t> out;
  out.reserve(byte_size(t));
  append_u64(out, t.rank());
  for (std::size_t d : t.shape()) append_u64(out, d);
  append_floats(out, t.data());
  return out;
}

Tensor from_bytes(std::span<const std::uint8_t> bytes) {
  std::size_t off = 0;
  const std::uint64_t rank = read_u64(bytes, off);
  APPFL_CHECK_MSG(rank <= 8, "implausible tensor rank " << rank);
  Shape shape(rank);
  for (auto& d : shape) d = read_u64(bytes, off);
  // Overflow-safe numel: the payload cannot exceed the buffer, so reject
  // any extent that would push the product past it (fuzzer find: a wire
  // shape like [2^40, 2^40] wrapped numel() to something tiny).
  const std::size_t max_count = bytes.size();
  std::size_t count = 1;
  for (std::size_t d : shape) {
    if (d == 0) {
      count = 0;
      break;
    }
    APPFL_CHECK_MSG(d <= max_count && count <= max_count / d,
                    "tensor shape " << to_string(shape)
                                    << " overflows the payload");
    count *= d;
  }
  std::vector<float> values = read_floats(bytes, off, count);
  APPFL_CHECK_MSG(off == bytes.size(),
                  "trailing bytes after tensor payload: " << bytes.size() - off);
  return Tensor(std::move(shape), std::move(values));
}

void append_floats(std::vector<std::uint8_t>& out, std::span<const float> v) {
  const std::size_t start = out.size();
  out.resize(start + 4 * v.size());
  // memcpy with a null pointer is UB even for 0 bytes (empty spans).
  if (!v.empty()) std::memcpy(out.data() + start, v.data(), 4 * v.size());
}

std::vector<float> read_floats(std::span<const std::uint8_t> bytes,
                               std::size_t& offset, std::size_t count) {
  // Divide, don't multiply: 4·count can wrap for hostile counts.
  APPFL_CHECK_MSG(offset <= bytes.size() &&
                      count <= (bytes.size() - offset) / 4,
                  "truncated float payload: need " << count << " floats at "
                                                   << offset << ", have "
                                                   << bytes.size() << " bytes");
  std::vector<float> out(count);
  if (count > 0) std::memcpy(out.data(), bytes.data() + offset, 4 * count);
  offset += 4 * count;
  return out;
}

}  // namespace appfl::tensor
