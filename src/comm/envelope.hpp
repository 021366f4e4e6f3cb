// Checksum-framed wire envelope for the fault plane.
//
// When fault injection is active, every datagram crossing the in-process
// network is framed as
//
//     [magic u32 | crc32(payload) u32 | payload...]
//
// so in-flight byte corruption is *detected* at the receiver (counted as a
// CRC failure and discarded) instead of being fed into decode_raw /
// decode_proto, where a flipped length byte could abort the process. With
// fault injection off the envelope is skipped entirely, keeping the wire
// bytes bit-identical to a fault-free build.
//
// CRC engine: crc32() folds 64 bytes per step with carry-less multiplies
// (PCLMULQDQ) when the CPU has them, picked once at runtime, and hands
// sub-16-byte tails to its portable twin, slicing-by-8 (eight table lookups
// per eight bytes), which is the whole engine on other hosts. Both compute
// the original bytewise loop's function (kept as crc32_bytewise for tests
// and benchmarks) on every input, so checksums never depend on the host.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

namespace appfl::comm {

/// IEEE CRC-32 (polynomial 0xEDB88320, reflected), as used by Ethernet/zip.
/// The carry-less-multiply fold where the CPU has PCLMULQDQ, otherwise
/// crc32_portable; bit-identical to crc32_bytewise on every input.
std::uint32_t crc32(std::span<const std::uint8_t> bytes);

/// The portable twin: slicing-by-8 alone, whatever the CPU.
std::uint32_t crc32_portable(std::span<const std::uint8_t> bytes);

/// The original one-table bytewise loop, kept as the correctness baseline
/// (known-answer tests) and the "before" side of bench/comm_path.
std::uint32_t crc32_bytewise(std::span<const std::uint8_t> bytes);

/// True when crc32() runs the carry-less-multiply fold.
bool crc32_uses_pclmul();

/// Bytes the envelope adds in front of the payload (magic + checksum).
constexpr std::size_t kEnvelopeOverhead = 8;

/// Wraps `payload` in a checksum frame (moves the buffer; no payload copy).
std::vector<std::uint8_t> seal_envelope(std::vector<std::uint8_t> payload);

/// In-place variant for pooled encode buffers: `buf` must hold
/// kEnvelopeOverhead placeholder bytes followed by the payload; the header
/// is written into the placeholder, avoiding seal_envelope's O(n) front
/// insertion. Wire bytes are identical to seal_envelope's.
void seal_envelope_in_place(std::vector<std::uint8_t>& buf);

/// Verifies the frame and returns a view of the payload, or nullopt when
/// the buffer is too short, the magic is wrong, or the checksum mismatches.
std::optional<std::span<const std::uint8_t>> open_envelope(
    std::span<const std::uint8_t> bytes);

}  // namespace appfl::comm
