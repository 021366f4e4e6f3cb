#include "core/config.hpp"

#include <cmath>

#include "core/options.hpp"
#include "dp/sensitivity.hpp"
#include "util/check.hpp"
#include "util/env.hpp"

namespace appfl::core {

std::string to_string(Algorithm a) {
  switch (a) {
    case Algorithm::kFedAvg: return "FedAvg";
    case Algorithm::kIceAdmm: return "ICEADMM";
    case Algorithm::kIIAdmm: return "IIADMM";
    case Algorithm::kFedProx: return "FedProx";
  }
  return "?";
}

double RunConfig::sensitivity() const {
  APPFL_CHECK_MSG(clip > 0.0F,
                  "DP sensitivity requires gradient clipping (clip > 0)");
  if (algorithm == Algorithm::kFedAvg || algorithm == Algorithm::kFedProx) {
    // FedProx's proximal pull only shrinks the iterate displacement, so
    // FedAvg's 2Cη bound remains valid (and conservative) for it.
    return dp::fedavg_sensitivity(clip, lr);
  }
  return dp::iadmm_sensitivity(clip, rho, zeta);
}

namespace {
bool is_admm_family(Algorithm a) {
  return a == Algorithm::kIceAdmm || a == Algorithm::kIIAdmm;
}
}  // namespace

void RunConfig::validate() const {
  APPFL_CHECK(rounds >= 1);
  APPFL_CHECK(local_steps >= 1);
  APPFL_CHECK(batch_size >= 1);
  APPFL_CHECK(lr > 0.0F);
  APPFL_CHECK(momentum >= 0.0F && momentum < 1.0F);
  if (is_admm_family(algorithm)) {
    APPFL_CHECK_MSG(rho > 0.0F, "ADMM penalty rho must be positive");
    APPFL_CHECK_MSG(zeta >= 0.0F, "ADMM proximity zeta must be non-negative");
  }
  if (algorithm == Algorithm::kFedProx) {
    APPFL_CHECK_MSG(fedprox_mu >= 0.0F, "FedProx mu must be non-negative");
  }
  if (adaptive_rho) {
    APPFL_CHECK_MSG(is_admm_family(algorithm),
                    "adaptive rho applies to the IADMM family only");
    APPFL_CHECK(adapt_tau > 1.0F);
    APPFL_CHECK(adapt_mu > 1.0F);
    APPFL_CHECK(rho_min > 0.0F && rho_max >= rho_min);
    APPFL_CHECK(rho >= rho_min && rho <= rho_max);
    APPFL_CHECK_MSG(!std::isfinite(epsilon),
                    "adaptive rho with finite epsilon is unsupported: the DP "
                    "sensitivity 2C/(rho+zeta) would drift with rho");
  }
  APPFL_CHECK(clip >= 0.0F);
  APPFL_CHECK_MSG(epsilon > 0.0, "privacy budget must be positive");
  if (std::isfinite(epsilon)) {
    APPFL_CHECK_MSG(clip > 0.0F,
                    "finite epsilon requires clipping to bound sensitivity");
  }
  APPFL_CHECK_MSG(client_fraction > 0.0 && client_fraction <= 1.0,
                  "client_fraction must be in (0, 1]");
  if (uplink_codec != comm::UplinkCodec::kNone) {
    APPFL_CHECK_MSG(!is_admm_family(algorithm),
                    "lossy uplink codecs would desynchronize the IADMM "
                    "dual replicas — use FedAvg or FedProx");
    APPFL_CHECK(topk_fraction > 0.0 && topk_fraction <= 1.0);
  }
  APPFL_CHECK_MSG(tree_fan_out == 0 || tree_fan_out >= 2,
                  "tree_fan_out must be 0 (flat) or >= 2");
  if (population > 0) {
    APPFL_CHECK_MSG(algorithm == Algorithm::kFedAvg ||
                        algorithm == Algorithm::kFedProx,
                    "the population engine supports FedAvg/FedProx only: "
                    "transient participants leave the IADMM server-side "
                    "(z_p, lambda_p) replicas with no owner");
    APPFL_CHECK_MSG(uplink_codec == comm::UplinkCodec::kNone,
                    "the population engine requires uplink_codec=none: "
                    "per-client codec residuals cannot ride transient "
                    "participants");
    APPFL_CHECK_MSG(!adaptive_rho,
                    "adaptive rho has no population-engine path");
    APPFL_CHECK_MSG(participants_per_round >= 1 &&
                        participants_per_round <= population,
                    "participants_per_round must be in [1, population], got "
                        << participants_per_round << " of " << population);
    if (mailbox_capacity > 0) {
      // Bounded mailboxes under the engine's concurrent uplinks would let
      // timing decide WHICH datagrams land; requiring the cap to clear the
      // worst-case fan-in keeps the run deterministic while still bounding
      // a misconfigured network.
      const std::size_t max_fan_in =
          tree_fan_out == 0 ? participants_per_round : tree_fan_out;
      APPFL_CHECK_MSG(mailbox_capacity >= max_fan_in,
                      "mailbox_capacity " << mailbox_capacity
                          << " is below the aggregation fan-in " << max_fan_in
                          << " — overflow would drop participant updates "
                             "nondeterministically");
    }
  }
  if (secure_agg) {
    APPFL_CHECK_MSG(algorithm == Algorithm::kFedAvg ||
                        algorithm == Algorithm::kFedProx,
                    "secure aggregation supports FedAvg/FedProx only: the "
                    "server sees a masked SUM, never the per-client updates "
                    "the IADMM dual replicas need");
    APPFL_CHECK_MSG(uplink_codec == comm::UplinkCodec::kNone,
                    "secure aggregation requires uplink_codec=none: masked "
                    "words are opaque bit patterns a lossy codec would "
                    "destroy");
    APPFL_CHECK_MSG(secure_agg_threshold != 1,
                    "secure_agg_threshold 1 would let a single survivor "
                    "reconstruct every secret — use 0 (auto majority) or "
                    ">= 2");
    // The cohort the threshold must fit in: population mode samples
    // participants_per_round, the sync runner ceil(client_fraction * P).
    // P is unknown here for the sync runner, so the static check covers
    // population mode; run_federated re-checks against the real cohort.
    if (population > 0) {
      APPFL_CHECK_MSG(secure_agg_threshold <= participants_per_round,
                      "secure_agg_threshold " << secure_agg_threshold
                          << " exceeds participants_per_round "
                          << participants_per_round);
      APPFL_CHECK_MSG(participants_per_round >= 2,
                      "secure aggregation needs a cohort of at least 2");
    }
  }
  faults.validate();
  APPFL_CHECK_MSG(gather_timeout_s > 0.0, "gather_timeout_s must be positive");
  APPFL_CHECK_MSG(ack_timeout_s > 0.0, "ack_timeout_s must be positive");
  APPFL_CHECK(validate_batch >= 1);
  APPFL_CHECK_MSG(checkpoint_every_n_rounds >= 1,
                  "checkpoint_every_n_rounds must be >= 1");
  APPFL_CHECK_MSG(obs::parse_level(obs_level).has_value(),
                  "obs_level must be " << util::join_names(obs::kLevelNames)
                                       << ", got '" << obs_level << "'");
  check_obs_outputs(*this);
}

}  // namespace appfl::core
