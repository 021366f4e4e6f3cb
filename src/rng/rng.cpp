#include "rng/rng.hpp"

#include "util/check.hpp"

namespace appfl::rng {

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

std::uint64_t derive_seed(std::uint64_t base,
                          std::initializer_list<std::uint64_t> ids) {
  // Sponge-style: absorb each id, run the full SplitMix64 permutation after
  // every absorption so nearby id tuples land in unrelated states.
  std::uint64_t state = base;
  std::uint64_t out = splitmix64(state);
  for (std::uint64_t id : ids) {
    std::uint64_t id_state = id;
    state = out ^ splitmix64(id_state);
    out = splitmix64(state);
  }
  return out;
}

Rng::Rng(std::uint64_t seed) {
  std::uint64_t state = seed;
  for (auto& s : s_) s = splitmix64(state);
}

namespace {

inline std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

/// One xoshiro256** step over the state words s[0..3].
inline std::uint64_t step(std::uint64_t* s) {
  const std::uint64_t result = rotl(s[1] * 5, 7) * 9;
  const std::uint64_t t = s[1] << 17;
  s[2] ^= s[0];
  s[3] ^= s[1];
  s[1] ^= s[2];
  s[0] ^= s[3];
  s[2] ^= t;
  s[3] = rotl(s[3], 45);
  return result;
}

}  // namespace

std::uint64_t Rng::next() { return step(s_); }

void Rng::fill_words(std::span<std::uint64_t> out) {
  // A local copy of the state: stores to `out` cannot alias it, so it stays
  // in registers across the loop.
  std::uint64_t s[4] = {s_[0], s_[1], s_[2], s_[3]};
  for (auto& w : out) w = step(s);
  for (std::size_t i = 0; i < 4; ++i) s_[i] = s[i];
}

double Rng::uniform01() {
  // Top 53 bits → double in [0,1).
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

double Rng::uniform01_open() { return open01_from_word(next()); }

std::array<std::uint64_t, 4> Rng::state() const {
  return {s_[0], s_[1], s_[2], s_[3]};
}

void Rng::set_state(const std::array<std::uint64_t, 4>& s) {
  APPFL_CHECK_MSG(s[0] != 0 || s[1] != 0 || s[2] != 0 || s[3] != 0,
                  "all-zero xoshiro256** state is invalid");
  for (std::size_t i = 0; i < 4; ++i) s_[i] = s[i];
}

std::uint64_t Rng::uniform_below(std::uint64_t n) {
  APPFL_CHECK(n > 0);
  // Rejection sampling over the largest multiple of n that fits in 64 bits.
  const std::uint64_t limit = ~std::uint64_t{0} - (~std::uint64_t{0} % n);
  std::uint64_t x;
  do {
    x = next();
  } while (x >= limit);
  return x % n;
}

}  // namespace appfl::rng
