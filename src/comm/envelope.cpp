#include "comm/envelope.hpp"

#include <array>
#include <cstring>

#include "util/check.hpp"

#if (defined(__x86_64__) || defined(__i386__)) && defined(__GNUC__)
#define APPFL_CRC_X86 1
#include <immintrin.h>
#else
#define APPFL_CRC_X86 0
#endif

namespace appfl::comm {

namespace {

constexpr std::uint32_t kMagic = 0x41504643;  // "APFC" (APpfl Frame + Crc)
constexpr std::uint32_t kPoly = 0xEDB88320U;  // reflected CRC-32

// Slicing-by-8 tables: table[0] is the classic bytewise table; table[k]
// advances a byte through k additional zero bytes, so eight lookups retire
// eight input bytes per iteration.
using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

CrcTables make_crc_tables() {
  CrcTables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1U) ? (kPoly ^ (c >> 1)) : (c >> 1);
    }
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < 8; ++k) {
    for (std::uint32_t i = 0; i < 256; ++i) {
      const std::uint32_t prev = t[k - 1][i];
      t[k][i] = t[0][prev & 0xFFU] ^ (prev >> 8);
    }
  }
  return t;
}

const CrcTables& crc_tables() {
  static const CrcTables tables = make_crc_tables();
  return tables;
}

/// Sliced kernel over one contiguous range, starting from (and returning) a
/// raw register value: pre/post-conditioning is the caller's job, so the
/// fold below can hand its remainder on.
std::uint32_t crc32_sliced_raw(std::uint32_t crc, const std::uint8_t* p,
                               std::size_t n) {
  const CrcTables& t = crc_tables();
  while (n >= 8) {
    std::uint32_t lo;
    std::uint32_t hi;
    std::memcpy(&lo, p, 4);
    std::memcpy(&hi, p + 4, 4);
    lo ^= crc;
    crc = t[7][lo & 0xFFU] ^ t[6][(lo >> 8) & 0xFFU] ^
          t[5][(lo >> 16) & 0xFFU] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFU] ^
          t[2][(hi >> 8) & 0xFFU] ^ t[1][(hi >> 16) & 0xFFU] ^ t[0][hi >> 24];
    p += 8;
    n -= 8;
  }
  while (n-- > 0) {
    crc = t[0][(crc ^ *p++) & 0xFFU] ^ (crc >> 8);
  }
  return crc;
}

// -- Carry-less-multiply fold (Gopal et al., Intel 2009) --------------------
//
// Four 128-bit lanes each fold 64 bytes ahead per step: a lane x becomes
// x.lo * k1 ^ x.hi * k2 ^ (the next 16 bytes of its stride). The lanes then
// fold into one at a 16-byte stride (k3, k4), that lane absorbs the
// remaining 16-byte blocks, and a 128 → 64 → 32-bit reduction (k4, k5) ends
// in a Barrett step (µ, P). All of it runs in the bit-reflected domain:
// k_n = reflect32(x^n mod P) << 1 for n = 544, 480, 160, 96, 64, µ =
// reflect33(x^64 div P) and P = reflect33(0x104C11DB7), so the result is
// the register the sliced loop computes.

#if APPFL_CRC_X86

#define APPFL_CLMUL __attribute__((target("pclmul,sse4.1")))

APPFL_CLMUL inline __m128i load16(const std::uint8_t* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

/// x.lo * k.lo ^ x.hi * k.hi ^ next: one lane advanced past `next`'s stride.
APPFL_CLMUL inline __m128i fold(__m128i x, __m128i k, __m128i next) {
  return _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(x, k, 0x00),
                                     _mm_clmulepi64_si128(x, k, 0x11)),
                       next);
}

/// Raw-register CRC over n bytes: the fold covers the 16-byte multiple of
/// inputs of 64 bytes or more, and the sliced loop takes what is left.
APPFL_CLMUL std::uint32_t crc32_fold_raw(std::uint32_t crc,
                                         const std::uint8_t* p,
                                         std::size_t n) {
  if (n < 64) return crc32_sliced_raw(crc, p, n);
  const __m128i k1k2 = _mm_set_epi64x(0x1C6E41596, 0x154442BD4);
  const __m128i k3k4 = _mm_set_epi64x(0x0CCAA009E, 0x1751997D0);
  const __m128i k5 = _mm_set_epi64x(0, 0x163CD6124);
  const __m128i mu_p = _mm_set_epi64x(0x1F7011641, 0x1DB710641);
  const __m128i low32 = _mm_set_epi32(0, 0, 0, -1);

  __m128i x1 =
      _mm_xor_si128(load16(p), _mm_cvtsi32_si128(static_cast<int>(crc)));
  __m128i x2 = load16(p + 16);
  __m128i x3 = load16(p + 32);
  __m128i x4 = load16(p + 48);
  p += 64;
  n -= 64;
  for (; n >= 64; p += 64, n -= 64) {
    x1 = fold(x1, k1k2, load16(p));
    x2 = fold(x2, k1k2, load16(p + 16));
    x3 = fold(x3, k1k2, load16(p + 32));
    x4 = fold(x4, k1k2, load16(p + 48));
  }
  x1 = fold(x1, k3k4, x2);
  x1 = fold(x1, k3k4, x3);
  x1 = fold(x1, k3k4, x4);
  for (; n >= 16; p += 16, n -= 16) x1 = fold(x1, k3k4, load16(p));

  // 128 → 64 bits (appending 32 zero bits), 64 → 32, then Barrett.
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 8),
                     _mm_clmulepi64_si128(x1, k3k4, 0x10));
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 4),
                     _mm_clmulepi64_si128(_mm_and_si128(x1, low32), k5, 0x00));
  __m128i q = _mm_clmulepi64_si128(_mm_and_si128(x1, low32), mu_p, 0x10);
  q = _mm_clmulepi64_si128(_mm_and_si128(q, low32), mu_p, 0x00);
  const int folded = _mm_extract_epi32(_mm_xor_si128(x1, q), 1);
  return crc32_sliced_raw(static_cast<std::uint32_t>(folded), p, n);
}

#undef APPFL_CLMUL

bool detect_pclmul() {
  return __builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse4.1");
}

#endif  // APPFL_CRC_X86

void put_u32(std::uint8_t* out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

std::uint32_t get_u32(const std::uint8_t* in) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= std::uint32_t{in[i]} << (8 * i);
  return v;
}

}  // namespace

std::uint32_t crc32_bytewise(std::span<const std::uint8_t> bytes) {
  const CrcTables& t = crc_tables();
  std::uint32_t crc = 0xFFFFFFFFU;
  for (std::uint8_t b : bytes) {
    crc = t[0][(crc ^ b) & 0xFFU] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFU;
}

std::uint32_t crc32_portable(std::span<const std::uint8_t> bytes) {
  return crc32_sliced_raw(0xFFFFFFFFU, bytes.data(), bytes.size()) ^
         0xFFFFFFFFU;
}

std::uint32_t crc32(std::span<const std::uint8_t> bytes) {
#if APPFL_CRC_X86
  static const auto fn = detect_pclmul() ? crc32_fold_raw : crc32_sliced_raw;
#else
  static const auto fn = crc32_sliced_raw;
#endif
  return fn(0xFFFFFFFFU, bytes.data(), bytes.size()) ^ 0xFFFFFFFFU;
}

bool crc32_uses_pclmul() {
#if APPFL_CRC_X86
  return detect_pclmul();
#else
  return false;
#endif
}

std::vector<std::uint8_t> seal_envelope(std::vector<std::uint8_t> payload) {
  const std::uint32_t checksum = crc32(payload);
  // Grow in place and shift the payload up so callers keep move semantics.
  payload.insert(payload.begin(), kEnvelopeOverhead, 0);
  put_u32(payload.data(), kMagic);
  put_u32(payload.data() + 4, checksum);
  return payload;
}

void seal_envelope_in_place(std::vector<std::uint8_t>& buf) {
  APPFL_CHECK_MSG(buf.size() >= kEnvelopeOverhead,
                  "seal_envelope_in_place needs the header placeholder");
  const std::uint32_t checksum = crc32(
      std::span<const std::uint8_t>(buf).subspan(kEnvelopeOverhead));
  put_u32(buf.data(), kMagic);
  put_u32(buf.data() + 4, checksum);
}

std::optional<std::span<const std::uint8_t>> open_envelope(
    std::span<const std::uint8_t> bytes) {
  if (bytes.size() < kEnvelopeOverhead) return std::nullopt;
  if (get_u32(bytes.data()) != kMagic) return std::nullopt;
  const std::uint32_t stated = get_u32(bytes.data() + 4);
  const auto payload = bytes.subspan(kEnvelopeOverhead);
  if (crc32(payload) != stated) return std::nullopt;
  return payload;
}

}  // namespace appfl::comm
