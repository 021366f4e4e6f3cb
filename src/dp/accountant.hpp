// Privacy accountant: tracks the ε spent by each client across rounds.
//
// The paper applies the Laplace mechanism once per communication round with
// budget ε̄, so under basic (sequential) composition the total leakage after
// T rounds is T·ε̄. The accountant records each spend and can enforce a cap.
#pragma once

#include <cstddef>
#include <limits>
#include <vector>

namespace appfl::dp {

class PrivacyAccountant {
 public:
  /// total_budget: maximum cumulative ε per client (∞ = unlimited).
  explicit PrivacyAccountant(
      std::size_t num_clients,
      double total_budget = std::numeric_limits<double>::infinity());

  /// Records a spend of `epsilon` for `client`. Returns false (and records
  /// nothing) if the spend would exceed the budget; a spend of 0 (no-op
  /// mechanism / ε = ∞ round counts as zero leakage under this accounting
  /// only if the caller passes 0) is always allowed.
  bool spend(std::size_t client, double epsilon);

  /// Cumulative ε spent by `client` (basic composition).
  double spent(std::size_t client) const;

  /// Crash-recovery restore: overwrites `client`'s cumulative spend with a
  /// value from a checkpoint. The restored value must respect the budget.
  void restore_spent(std::size_t client, double epsilon);

  /// Largest cumulative spend across clients.
  double max_spent() const;

  std::size_t num_clients() const { return spent_.size(); }

 private:
  std::vector<double> spent_;
  double budget_;
};

}  // namespace appfl::dp
