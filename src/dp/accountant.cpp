#include "dp/accountant.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace appfl::dp {

PrivacyAccountant::PrivacyAccountant(std::size_t num_clients,
                                     double total_budget)
    : spent_(num_clients, 0.0), budget_(total_budget) {
  APPFL_CHECK(num_clients > 0);
  APPFL_CHECK(total_budget > 0.0);
}

bool PrivacyAccountant::spend(std::size_t client, double epsilon) {
  APPFL_CHECK(client < spent_.size());
  APPFL_CHECK(epsilon >= 0.0);
  if (spent_[client] + epsilon > budget_) return false;
  spent_[client] += epsilon;
  return true;
}

double PrivacyAccountant::spent(std::size_t client) const {
  APPFL_CHECK(client < spent_.size());
  return spent_[client];
}

void PrivacyAccountant::restore_spent(std::size_t client, double epsilon) {
  APPFL_CHECK(client < spent_.size());
  APPFL_CHECK(epsilon >= 0.0 && epsilon <= budget_);
  spent_[client] = epsilon;
}

double PrivacyAccountant::max_spent() const {
  return *std::max_element(spent_.begin(), spent_.end());
}

}  // namespace appfl::dp
