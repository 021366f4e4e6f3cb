#include "dp/secure_agg.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "rng/rng.hpp"
#include "util/check.hpp"

namespace appfl::dp {

namespace {

// Sub-stream discriminators under rng::stream::kSecureAgg.
constexpr std::uint64_t kKeyStream = 1;   // per-client round secrets
constexpr std::uint64_t kSelfMask = 2;    // self-mask PRG from b_i
constexpr std::uint64_t kPairMask = 3;    // pairwise PRG from g^{k_i k_j}

constexpr std::uint32_t kPacketMagic = 0x53414731;  // "SAG1"

/// Per-client per-round secrets. Drawing both from one derived stream keeps
/// the whole round a pure function of (round_seed, id).
struct RoundSecrets {
  std::uint64_t self_seed;  // b_i
  std::uint64_t pair_key;   // k_i in [1, p)
  rng::Rng rng;             // continues as the Shamir coefficient stream
};

RoundSecrets round_secrets(std::uint64_t round_seed, std::uint32_t id) {
  rng::Rng r(rng::derive_seed(round_seed,
                              {rng::stream::kSecureAgg, kKeyStream, id}));
  RoundSecrets s{0, 0, r};
  s.self_seed = s.rng.next();
  s.pair_key = s.rng.uniform_below(shamir::kPrime - 1) + 1;
  return s;
}

std::uint64_t pair_seed_for(std::uint64_t round_seed, std::uint64_t dh,
                            std::uint32_t a, std::uint32_t b) {
  const std::uint32_t lo = std::min(a, b);
  const std::uint32_t hi = std::max(a, b);
  // Folding round_seed in keeps streams distinct across rounds even if the
  // same DH value recurs.
  return rng::derive_seed(dh, {rng::stream::kSecureAgg, kPairMask,
                               round_seed, lo, hi});
}

std::uint64_t self_seed_for(std::uint64_t self_seed, std::uint32_t id) {
  return rng::derive_seed(self_seed,
                          {rng::stream::kSecureAgg, kSelfMask, id});
}

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

class Reader {
 public:
  explicit Reader(std::span<const std::uint8_t> bytes) : bytes_(bytes) {}
  bool u32(std::uint32_t& v) {
    if (bytes_.size() - pos_ < 4) return false;
    v = 0;
    for (int i = 0; i < 4; ++i) v |= std::uint32_t{bytes_[pos_ + i]} << (8 * i);
    pos_ += 4;
    return true;
  }
  bool u64(std::uint64_t& v) {
    if (bytes_.size() - pos_ < 8) return false;
    v = 0;
    for (int i = 0; i < 8; ++i) v |= std::uint64_t{bytes_[pos_ + i]} << (8 * i);
    pos_ += 8;
    return true;
  }
  bool done() const { return pos_ == bytes_.size(); }

 private:
  std::span<const std::uint8_t> bytes_;
  std::size_t pos_ = 0;
};

std::vector<std::uint32_t> sorted_dedup_cohort(
    std::span<const std::uint32_t> cohort) {
  std::vector<std::uint32_t> c(cohort.begin(), cohort.end());
  std::sort(c.begin(), c.end());
  APPFL_CHECK_MSG(c.size() >= 2,
                  "secure aggregation needs at least two participants");
  for (std::size_t i = 1; i < c.size(); ++i) {
    APPFL_CHECK_MSG(c[i] != c[i - 1], "duplicate participant " << c[i]);
  }
  return c;
}

}  // namespace

std::vector<std::uint64_t> quantize(std::span<const float> values,
                                    double scale) {
  APPFL_CHECK(scale > 0.0);
  constexpr double kInt64Lo = -9223372036854775808.0;  // -2^63, exact
  constexpr double kInt64Hi = 9223372036854775808.0;   // 2^63, exact
  std::vector<std::uint64_t> out(values.size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    const float v = values[i];
    APPFL_CHECK_MSG(!std::isnan(v),
                    "NaN at index " << i << " cannot be quantized");
    if (std::isinf(v)) {
      // Upstream float overflow (divergence): saturate deterministically.
      out[i] = static_cast<std::uint64_t>(
          v > 0.0F ? std::numeric_limits<std::int64_t>::max()
                   : std::numeric_limits<std::int64_t>::min());
      continue;
    }
    const double scaled = std::round(static_cast<double>(v) * scale);
    APPFL_CHECK_MSG(scaled >= kInt64Lo && scaled < kInt64Hi,
                    "value " << v << " overflows the fixed-point range at "
                             "scale " << scale);
    out[i] = static_cast<std::uint64_t>(static_cast<std::int64_t>(scaled));
  }
  return out;
}

std::vector<float> dequantize_sum(std::span<const std::uint64_t> sum,
                                  double scale) {
  APPFL_CHECK(scale > 0.0);
  std::vector<float> out(sum.size());
  for (std::size_t i = 0; i < sum.size(); ++i) {
    out[i] = static_cast<float>(static_cast<double>(
                                    static_cast<std::int64_t>(sum[i])) /
                                scale);
  }
  return out;
}

SecureAggClient::SecureAggClient(std::uint32_t id,
                                 std::span<const std::uint32_t> cohort,
                                 std::uint64_t round_seed,
                                 std::size_t threshold)
    : id_(id),
      cohort_(sorted_dedup_cohort(cohort)),
      round_seed_(round_seed),
      threshold_(threshold) {
  APPFL_CHECK_MSG(std::binary_search(cohort_.begin(), cohort_.end(), id_),
                  "client " << id_ << " is not in the cohort");
  APPFL_CHECK_MSG(threshold_ >= 2 && threshold_ <= cohort_.size(),
                  "threshold " << threshold_ << " invalid for cohort of "
                               << cohort_.size());
  RoundSecrets s = round_secrets(round_seed_, id_);
  self_seed_ = s.self_seed;
  pair_key_ = s.pair_key;

  const std::size_t n = cohort_.size();
  const auto b = shamir::share_secret(self_seed_, n, threshold_, s.rng);
  const auto k = shamir::share_secret(pair_key_, n, threshold_, s.rng);

  packet_.reserve(24 + 40 * n + 32 * threshold_);
  put_u32(packet_, kPacketMagic);
  put_u32(packet_, id_);
  put_u32(packet_, static_cast<std::uint32_t>(n));
  put_u32(packet_, static_cast<std::uint32_t>(threshold_));
  put_u64(packet_, shamir::commit_pow(shamir::kCommitGen, pair_key_));
  for (const auto& sh : b.shares) {
    put_u32(packet_, sh.x);
    put_u64(packet_, sh.y_lo);
    put_u64(packet_, sh.y_hi);
  }
  for (const auto& sh : k.shares) {
    put_u32(packet_, sh.x);
    put_u64(packet_, sh.y_lo);
    put_u64(packet_, sh.y_hi);
  }
  for (auto c : b.commit_lo) put_u64(packet_, c);
  for (auto c : b.commit_hi) put_u64(packet_, c);
  for (auto c : k.commit_lo) put_u64(packet_, c);
  for (auto c : k.commit_hi) put_u64(packet_, c);
}

namespace {

/// The DH public key g^{k_id} client `id` advertises. Deterministic per
/// (round_seed, id) — the in-process stand-in for the signed key
/// advertisement round.
std::uint64_t public_key(std::uint64_t round_seed, std::uint32_t id) {
  return shamir::commit_pow(shamir::kCommitGen,
                            round_secrets(round_seed, id).pair_key);
}

}  // namespace

std::uint64_t SecureAggClient::pair_prg_seed(std::uint32_t other) const {
  // DH agreement: g^{k_other * k_self} — the peer derives the same value
  // from this client's public key.
  const std::uint64_t dh =
      shamir::commit_pow(public_key(round_seed_, other), pair_key_);
  return pair_seed_for(round_seed_, dh, id_, other);
}

std::vector<std::uint64_t> SecureAggClient::mask(
    std::span<const float> values, std::span<const std::uint32_t> u2,
    double scale, double weight) const {
  APPFL_CHECK(weight > 0.0);
  std::vector<std::uint64_t> out = quantize(values, scale * weight);

  bool self_in_u2 = false;
  for (std::uint32_t other : u2) {
    APPFL_CHECK_MSG(
        std::binary_search(cohort_.begin(), cohort_.end(), other),
        "u2 member " << other << " is not in the cohort");
    if (other == id_) self_in_u2 = true;
  }
  APPFL_CHECK_MSG(self_in_u2, "client " << id_ << " missing from u2");

  // Self-mask, streamed straight into the buffer.
  rng::Rng self_prg(self_seed_for(self_seed_, id_));
  for (auto& w : out) w += self_prg.next();

  // Pairwise masks: one PRG per surviving peer, words streamed in place —
  // no per-pair temporaries (the old implementation allocated an O(len)
  // vector per pair).
  for (std::uint32_t other : u2) {
    if (other == id_) continue;
    rng::Rng prg(pair_prg_seed(other));
    if (id_ < other) {
      for (auto& w : out) w += prg.next();
    } else {
      for (auto& w : out) w -= prg.next();
    }
  }
  return out;
}

SecureAggServer::SecureAggServer(std::span<const std::uint32_t> cohort,
                                 std::uint64_t round_seed,
                                 std::size_t threshold)
    : cohort_(sorted_dedup_cohort(cohort)),
      round_seed_(round_seed),
      threshold_(threshold),
      packets_(cohort_.size()) {
  APPFL_CHECK_MSG(threshold_ >= 2 && threshold_ <= cohort_.size(),
                  "threshold " << threshold_ << " invalid for cohort of "
                               << cohort_.size());
}

std::size_t SecureAggServer::index_of(std::uint32_t id) const {
  const auto it = std::lower_bound(cohort_.begin(), cohort_.end(), id);
  APPFL_CHECK_MSG(it != cohort_.end() && *it == id,
                  "client " << id << " is not in the cohort");
  return static_cast<std::size_t>(it - cohort_.begin());
}

bool SecureAggServer::deposit_share_packet(
    std::uint32_t sender, std::span<const std::uint8_t> bytes) {
  const auto it = std::lower_bound(cohort_.begin(), cohort_.end(), sender);
  if (it == cohort_.end() || *it != sender) return false;
  const auto pos = static_cast<std::size_t>(it - cohort_.begin());
  if (packets_[pos].present) return false;  // duplicate packet

  Reader r(bytes);
  std::uint32_t magic = 0, id = 0, n = 0, t = 0;
  if (!r.u32(magic) || magic != kPacketMagic) return false;
  if (!r.u32(id) || id != sender) return false;
  if (!r.u32(n) || n != cohort_.size()) return false;
  if (!r.u32(t) || t != threshold_) return false;

  Packet p;
  if (!r.u64(p.pk)) return false;
  p.b_shares.resize(n);
  p.k_shares.resize(n);
  for (auto& sh : p.b_shares) {
    if (!r.u32(sh.x) || !r.u64(sh.y_lo) || !r.u64(sh.y_hi)) return false;
  }
  for (auto& sh : p.k_shares) {
    if (!r.u32(sh.x) || !r.u64(sh.y_lo) || !r.u64(sh.y_hi)) return false;
  }
  std::vector<std::uint64_t> b_lo(t), b_hi(t), k_lo(t), k_hi(t);
  for (auto& c : b_lo) if (!r.u64(c)) return false;
  for (auto& c : b_hi) if (!r.u64(c)) return false;
  for (auto& c : k_lo) if (!r.u64(c)) return false;
  for (auto& c : k_hi) if (!r.u64(c)) return false;
  if (!r.done()) return false;  // trailing bytes: malformed

  // Feldman verification of every share, and of the public key against the
  // constant-term commitments: pk = g^k = C0_lo * C0_hi^(2^32).
  for (std::size_t j = 0; j < n; ++j) {
    if (p.b_shares[j].x != static_cast<std::uint32_t>(j + 1)) return false;
    if (p.k_shares[j].x != static_cast<std::uint32_t>(j + 1)) return false;
    if (!shamir::verify_share(p.b_shares[j], b_lo, b_hi)) return false;
    if (!shamir::verify_share(p.k_shares[j], k_lo, k_hi)) return false;
  }
  if (p.pk != shamir::commit_mul(
                  k_lo[0], shamir::commit_pow(k_hi[0], 1ULL << 32))) {
    return false;
  }

  p.present = true;
  packets_[pos] = std::move(p);
  return true;
}

std::vector<std::uint32_t> SecureAggServer::share_survivors() const {
  std::vector<std::uint32_t> u2;
  for (std::size_t i = 0; i < cohort_.size(); ++i) {
    if (packets_[i].present) u2.push_back(cohort_[i]);
  }
  return u2;
}

SecureAggServer::Recovery SecureAggServer::unmask(
    std::span<const std::uint32_t> u3,
    const std::vector<std::vector<std::uint64_t>>& uploads) const {
  APPFL_CHECK(u3.size() == uploads.size());
  Recovery rec;
  if (u3.size() < threshold_) return rec;  // ok stays false: degrade

  // Cohort positions of U3 members; their shares are the admissible set.
  std::vector<std::size_t> u3_pos(u3.size());
  for (std::size_t i = 0; i < u3.size(); ++i) {
    u3_pos[i] = index_of(u3[i]);
    APPFL_CHECK_MSG(packets_[u3_pos[i]].present,
                    "upload survivor " << u3[i] << " is not in U2");
  }

  const std::size_t len = uploads.empty() ? 0 : uploads.front().size();
  rec.sum.assign(len, 0);
  for (const auto& up : uploads) {
    APPFL_CHECK(up.size() == len);
    for (std::size_t i = 0; i < len; ++i) rec.sum[i] += up[i];
  }

  // Shares of client-at-position c held by U3 members (first t suffice).
  const auto held_shares = [&](const std::vector<shamir::Share>& all) {
    std::vector<shamir::Share> held;
    held.reserve(threshold_);
    for (std::size_t pos : u3_pos) {
      held.push_back(all[pos]);
      if (held.size() == threshold_) break;
    }
    return held;
  };

  // Remove the self-mask of every upload survivor.
  for (std::size_t i = 0; i < u3.size(); ++i) {
    const Packet& p = packets_[u3_pos[i]];
    const std::uint64_t b =
        shamir::reconstruct(held_shares(p.b_shares), threshold_);
    rng::Rng prg(self_seed_for(b, u3[i]));
    for (auto& w : rec.sum) w -= prg.next();
    ++rec.self_masks_removed;
  }

  // Remove the residual pairwise masks of share survivors that dropped
  // before upload (U2 \ U3): reconstruct their DH key, re-derive each pair
  // stream against the survivors' public keys.
  for (std::size_t pos = 0; pos < cohort_.size(); ++pos) {
    if (!packets_[pos].present) continue;  // not in U2
    const std::uint32_t j = cohort_[pos];
    if (std::find(u3.begin(), u3.end(), j) != u3.end()) continue;  // in U3
    const std::uint64_t k =
        shamir::reconstruct(held_shares(packets_[pos].k_shares), threshold_);
    for (std::size_t i = 0; i < u3.size(); ++i) {
      const std::uint64_t dh =
          shamir::commit_pow(packets_[u3_pos[i]].pk, k);
      rng::Rng prg(pair_seed_for(round_seed_, dh, u3[i], j));
      // Survivor u3[i] applied +stream if u3[i] < j, else -stream; undo it.
      if (u3[i] < j) {
        for (auto& w : rec.sum) w -= prg.next();
      } else {
        for (auto& w : rec.sum) w += prg.next();
      }
    }
    ++rec.pair_keys_reconstructed;
  }

  rec.ok = true;
  return rec;
}

}  // namespace appfl::dp
