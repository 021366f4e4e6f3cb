// Dropout-resilient secure aggregation (Bonawitz et al. 2017 double-masking,
// simulated in-process).
//
// Each client quantizes its update to fixed point and adds two kinds of
// masks mod 2^64: a PRG self-mask from a private seed b_i, and one pairwise
// PRG mask per cohort peer derived from a Diffie-Hellman shared value
// g^{k_i k_j} (client i adds the pair stream when i < j, subtracts it
// otherwise). Both secrets — b_i and the pairwise key k_i — are
// Shamir-shared t-of-n across the cohort (dp/shamir.hpp), so the server can
// survive dropout:
//
//   U2 = clients whose share packets arrived (share-distribution survivors)
//   U3 = U2 members whose masked uploads arrived (upload survivors)
//
// With |U3| >= t the server reconstructs the SELF-mask seed b_i for every
// i in U3 (its upload is in the sum, its self-mask must come out) and the
// PAIRWISE key k_j for every j in U2 \ U3 (its peers masked against it, but
// its own upload — which would have cancelled those masks — never arrived).
// It never reconstructs both secrets of one client, which is exactly the
// double-masking privacy argument. The recovered sum over U3 is bit-exact:
// all masking is integer arithmetic mod 2^64. Below t upload survivors the
// round is unrecoverable by design and the caller degrades gracefully
// (skips the model update and counts the round) rather than unmasking.
//
// Simulation scope: honest-but-curious server, in-process transport. The
// key-advertisement round is simulated by `SecureAggClient::public_key`
// (deterministic per round seed), and a client's share packet delivered to
// the server stands in for the n encrypted share fan-outs; at unmask time
// only shares held by U3 members are admissible, preserving the t-of-n
// threshold semantics.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "dp/shamir.hpp"

namespace appfl::dp {

/// Fixed-point quantization: v → round(v · scale) as a two's-complement
/// 64-bit word. `scale` trades range for precision (default 2²⁰ keeps
/// |v| < 2⁴³ exact to ~1e-6; beyond that the round trip saturates into the
/// overflow check). NaN is rejected; ±Inf clamps to the fixed-point range
/// (upstream float overflow saturates deterministically instead of hitting
/// undefined float→int conversion); finite values whose scaled magnitude
/// leaves the int64 range throw — that is a misconfigured scale, not data.
std::vector<std::uint64_t> quantize(std::span<const float> values,
                                    double scale);

/// Inverse of quantize for an aggregated (summed) vector.
std::vector<float> dequantize_sum(std::span<const std::uint64_t> sum,
                                  double scale);

/// Default quantization scale (2^20).
inline constexpr double kDefaultScale = 1048576.0;

/// Client-side state for one secure-aggregation round.
class SecureAggClient {
 public:
  /// `cohort`: the ids sampled for this round (sorted or not, deduped);
  /// `id` must be one of them. `round_seed` pins every per-round secret
  /// stream; `threshold` is the Shamir t (2 <= t <= cohort size).
  SecureAggClient(std::uint32_t id, std::span<const std::uint32_t> cohort,
                  std::uint64_t round_seed, std::size_t threshold);

  /// Serialized Shamir shares of (b_i, k_i) plus Feldman commitments and
  /// this client's DH public key — the round's kSecAggShares payload.
  const std::vector<std::uint8_t>& share_packet() const { return packet_; }

  /// Quantizes `values` at `scale * weight` (the aggregation weight is
  /// folded into the fixed-point scale so the server's sum is a weighted
  /// sum) and streams the self-mask plus one pairwise mask per peer in
  /// `u2` directly into the buffer — no per-pair temporaries.
  /// `u2` is the share-survivor set announced by the server; it must
  /// contain this client and only cohort members.
  std::vector<std::uint64_t> mask(std::span<const float> values,
                                  std::span<const std::uint32_t> u2,
                                  double scale, double weight) const;

  std::uint32_t id() const { return id_; }

 private:
  std::uint64_t pair_prg_seed(std::uint32_t other) const;

  std::uint32_t id_ = 0;
  std::vector<std::uint32_t> cohort_;
  std::uint64_t round_seed_ = 0;
  std::size_t threshold_ = 0;
  std::uint64_t self_seed_ = 0;  ///< b_i: seeds the self-mask PRG
  std::uint64_t pair_key_ = 0;   ///< k_i: DH exponent for pairwise masks
  std::vector<std::uint8_t> packet_;
};

/// Server-side state for one secure-aggregation round: collects share
/// packets (defining U2), then unmasks the sum over upload survivors (U3).
class SecureAggServer {
 public:
  SecureAggServer(std::span<const std::uint32_t> cohort,
                  std::uint64_t round_seed, std::size_t threshold);

  /// Parses and Feldman-verifies one client's share packet. Returns false
  /// (and keeps the client out of U2) on malformed bytes, a cohort/threshold
  /// mismatch, or any share failing verification.
  bool deposit_share_packet(std::uint32_t sender,
                            std::span<const std::uint8_t> bytes);

  /// U2: sorted ids whose share packets were accepted.
  std::vector<std::uint32_t> share_survivors() const;

  std::size_t threshold() const { return threshold_; }

  struct Recovery {
    bool ok = false;  ///< false: |U3| < t, round must degrade
    /// Exact survivor sum of the quantized weighted updates, mod 2^64.
    std::vector<std::uint64_t> sum;
    std::size_t pair_keys_reconstructed = 0;  ///< dropped clients recovered
    std::size_t self_masks_removed = 0;       ///< one per upload survivor
  };

  /// Removes all masks from the uploads of `u3` (ids, each in U2;
  /// `uploads[i]` is u3[i]'s masked vector). Reconstructs b_i for i in U3
  /// and k_j for j in U2 \ U3 from the shares held by U3 members.
  Recovery unmask(std::span<const std::uint32_t> u3,
                  const std::vector<std::vector<std::uint64_t>>& uploads) const;

 private:
  struct Packet {
    bool present = false;
    std::uint64_t pk = 0;
    std::vector<shamir::Share> b_shares;  ///< indexed by cohort position
    std::vector<shamir::Share> k_shares;
  };

  std::size_t index_of(std::uint32_t id) const;

  std::vector<std::uint32_t> cohort_;
  std::uint64_t round_seed_ = 0;
  std::size_t threshold_ = 0;
  std::vector<Packet> packets_;
};

}  // namespace appfl::dp
