// Deterministic, splittable pseudo-random number generation.
//
// Every random draw in the framework — weight init, data synthesis, batch
// shuffling, DP noise, network jitter — comes from an Rng seeded through
// derive_seed(base, ids...), so a run is a pure function of its config seed.
// The engine is xoshiro256** (Blackman & Vigna), seeded via SplitMix64.
#pragma once

#include <array>
#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <span>

namespace appfl::rng {

/// SplitMix64 step: maps any 64-bit value to a well-mixed 64-bit value.
/// Used both for seeding and for deriving independent stream seeds.
std::uint64_t splitmix64(std::uint64_t& state);

/// Derives a seed for an independent stream from a base seed and a list of
/// stream identifiers (e.g. {client_id, round, purpose}). Deterministic, and
/// distinct id tuples give (statistically) independent streams.
std::uint64_t derive_seed(std::uint64_t base,
                          std::initializer_list<std::uint64_t> ids);

/// Reserved first-position stream tags for derive_seed tuples. Subsystems
/// that mint many per-entity streams lead their tuple with a named tag so
/// independent stream families cannot collide on ad-hoc literals.
namespace stream {
/// Comm fault plane: one stream per (tag, from, to, link-sequence) message,
/// so the drop/delay/corrupt schedule is a pure function of the seed and
/// each link's send order — independent of thread interleaving.
constexpr std::uint64_t kCommFault = 0xFA;
/// Secure aggregation: per-round mask/key/share streams. Tuples are
/// {kSecureAgg, sub-stream, ...} — see dp/secure_agg.cpp for sub-streams.
constexpr std::uint64_t kSecureAgg = 0x5A;
}  // namespace stream

/// The one word → uniform mapping behind uniform01_open() and every batched
/// sampler: ((w >> 12) + 0.5)·2⁻⁵², a 52-bit grid strictly inside (0, 1) —
/// the smallest value is 2⁻⁵³ and the largest 1 − 2⁻⁵³. Computed as
/// (1 + m·2⁻⁵²) − (1 − 2⁻⁵³) with m = w >> 12: the OR builds the first term
/// exactly and the subtraction is exact, so a vector twin (one OR, one SUB)
/// gives the same bits.
inline double open01_from_word(std::uint64_t w) {
  const std::uint64_t bits = (w >> 12) | 0x3FF0000000000000ULL;
  double one_plus;
  std::memcpy(&one_plus, &bits, sizeof one_plus);
  return one_plus - (1.0 - 0x1.0p-53);
}

/// xoshiro256** engine. Satisfies UniformRandomBitGenerator.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ULL);

  std::uint64_t next();

  /// Writes exactly the words out.size() next() calls would return, with
  /// the state held in registers across the loop.
  void fill_words(std::span<std::uint64_t> out);

  // UniformRandomBitGenerator interface.
  result_type operator()() { return next(); }
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  /// Uniform double in [0, 1) with 53 bits of entropy.
  double uniform01();

  /// Uniform double strictly inside (0, 1): open01_from_word(next()), so
  /// neither log(u) nor log(1 − u) is ever infinite.
  double uniform01_open();

  /// Uniform integer in [0, n). Requires n > 0. Uses rejection sampling so
  /// the distribution is exactly uniform.
  std::uint64_t uniform_below(std::uint64_t n);

  /// The full engine state (4 xoshiro256** words). Together with set_state
  /// this freezes and resumes a sequential stream exactly — the crash
  ///-recovery path checkpoints every stream that advances across rounds.
  std::array<std::uint64_t, 4> state() const;

  /// Restores a state captured by state(). All-zero states are rejected
  /// (xoshiro256** has a single invalid fixed point at zero).
  void set_state(const std::array<std::uint64_t, 4>& s);

 private:
  std::uint64_t s_[4];
};

}  // namespace appfl::rng
