// Max-min fair rate allocator for the hybrid fast-forward engine.
//
// Classic progressive filling (water-filling): every unfrozen flow's rate
// rises at the same pace; a flow freezes when it reaches its policy rate cap
// or when one of its links saturates (all flows still active on a saturated
// link freeze at that bottleneck's equal share). The fixed point is the
// unique max-min fair allocation subject to the per-flow caps.
//
// The epoch controller uses the allocation two ways:
//   * as the quiescence gate — an epoch is only fast-forwardable when every
//     flow's allocation is within eps of its policy cap, i.e. the fabric
//     imposes no sharing and each flow behaves as if alone on its path;
//   * as the reseed rate handed back to CC policies on epoch exit.
//
// Cost is O(rounds x (demands + links the demands cross)), independent of
// the fabric size: Solve() maps the loaded links to compact local indices
// and fills over those only, in scratch buffers that persist across calls.
// Unloaded links never enter the increment's min nor the subtraction, so
// the result is bitwise equal to a fill that scans every link.
//
// Deterministic by construction: no RNG, no pointer-keyed iteration — the
// caller supplies dense link indices and demand order, and the result is a
// pure function of them.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/units.h"

namespace dcqcn::hybrid {

// Reusable solver over a fixed set of link capacities. Add() the demands of
// one problem, Solve(), then Clear() before the next.
class MaxMinSolver {
 public:
  explicit MaxMinSolver(std::vector<Rate> link_capacity);

  // Drops every demand; the scratch buffers keep their capacity.
  void Clear();
  // One flow: its policy/path rate cap (bits/s, > 0) and the dense indices
  // of the links it crosses.
  void Add(Rate cap, std::span<const int32_t> links);
  // Max-min allocation per demand, in Add order; rate[i] <= cap. Valid
  // until the next Add/Clear/Solve.
  const std::vector<Rate>& Solve();
  // Filling rounds the last Solve needed to reach the fixed point.
  int rounds() const { return rounds_; }

 private:
  std::vector<Rate> link_capacity_;  // by dense link index
  std::vector<int32_t> local_of_;    // dense index -> local (-1 = unloaded)

  // The current problem: demand caps, and each demand's local link ids
  // flattened (demand f owns demand_links_[begin_[f] .. begin_[f + 1])).
  std::vector<Rate> cap_;
  std::vector<uint32_t> begin_{0};
  std::vector<int32_t> demand_links_;
  std::vector<int32_t> global_of_;  // local -> dense index

  // Filling state, per demand and per local link.
  std::vector<Rate> rate_;
  std::vector<char> frozen_;
  std::vector<Rate> remaining_;
  std::vector<Rate> tol_;          // saturation slack, per local link
  std::vector<int32_t> active_;    // unfrozen demands crossing the link
  int rounds_ = 0;
};

}  // namespace dcqcn::hybrid
