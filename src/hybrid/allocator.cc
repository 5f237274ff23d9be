#include "hybrid/allocator.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "common/check.h"

namespace dcqcn::hybrid {

// Saturation tolerance relative to the link's own capacity: rates are
// doubles, so "remaining == 0" needs slack after repeated subtraction.
constexpr double kRelTol = 1e-9;

MaxMinSolver::MaxMinSolver(std::vector<Rate> link_capacity)
    : link_capacity_(std::move(link_capacity)),
      local_of_(link_capacity_.size(), -1) {}

void MaxMinSolver::Clear() {
  for (int32_t g : global_of_) local_of_[static_cast<size_t>(g)] = -1;
  global_of_.clear();
  cap_.clear();
  begin_.resize(1);
  demand_links_.clear();
}

void MaxMinSolver::Add(Rate cap, std::span<const int32_t> links) {
  DCQCN_CHECK(cap > 0);
  cap_.push_back(cap);
  for (int32_t l : links) {
    DCQCN_CHECK(l >= 0 && static_cast<size_t>(l) < local_of_.size());
    int32_t& local = local_of_[static_cast<size_t>(l)];
    if (local < 0) {
      local = static_cast<int32_t>(global_of_.size());
      global_of_.push_back(l);
    }
    demand_links_.push_back(local);
  }
  begin_.push_back(static_cast<uint32_t>(demand_links_.size()));
}

const std::vector<Rate>& MaxMinSolver::Solve() {
  const size_t nf = cap_.size();
  const size_t nl = global_of_.size();
  rate_.assign(nf, 0.0);
  frozen_.assign(nf, 0);
  remaining_.resize(nl);
  tol_.resize(nl);
  active_.assign(nl, 0);
  for (size_t l = 0; l < nl; ++l) {
    remaining_[l] = link_capacity_[static_cast<size_t>(global_of_[l])];
    tol_[l] = kRelTol * remaining_[l];
  }
  for (int32_t l : demand_links_) ++active_[static_cast<size_t>(l)];
  auto links_of = [this](size_t f) {
    return std::span<const int32_t>(demand_links_.data() + begin_[f],
                                    demand_links_.data() + begin_[f + 1]);
  };

  rounds_ = 0;
  size_t unfrozen = nf;
  while (unfrozen > 0) {
    ++rounds_;
    // Uniform increment: the smallest headroom-per-active-flow over all
    // loaded links, clamped by the closest per-flow cap.
    double inc = std::numeric_limits<double>::infinity();
    for (size_t l = 0; l < nl; ++l) {
      if (active_[l] > 0) inc = std::min(inc, remaining_[l] / active_[l]);
    }
    for (size_t f = 0; f < nf; ++f) {
      if (!frozen_[f]) inc = std::min(inc, cap_[f] - rate_[f]);
    }
    if (inc < 0) inc = 0;

    for (size_t f = 0; f < nf; ++f) {
      if (!frozen_[f]) rate_[f] += inc;
    }
    for (size_t l = 0; l < nl; ++l) {
      if (active_[l] > 0) remaining_[l] -= inc * active_[l];
    }

    // Freeze flows at cap and flows on saturated links. At least one flow
    // freezes per round (the arg-min of the increment), so the loop runs at
    // most nf rounds.
    size_t froze = 0;
    for (size_t f = 0; f < nf; ++f) {
      if (frozen_[f]) continue;
      bool stop = rate_[f] >= cap_[f] * (1.0 - kRelTol);
      if (!stop) {
        for (int32_t l : links_of(f)) {
          if (remaining_[static_cast<size_t>(l)] <=
              tol_[static_cast<size_t>(l)]) {
            stop = true;
            break;
          }
        }
      }
      if (stop) {
        frozen_[f] = 1;
        ++froze;
        --unfrozen;
        for (int32_t l : links_of(f)) --active_[static_cast<size_t>(l)];
      }
    }
    // Numerical backstop: if the tolerance let a round pass with no freeze,
    // freeze everything at the current level rather than loop forever.
    if (froze == 0) break;
  }
  return rate_;
}

}  // namespace dcqcn::hybrid
