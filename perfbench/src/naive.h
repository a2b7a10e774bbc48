// A deliberately naive evaluator of Flock's §3.2 model, written apart from
// the program's likelihood engine. It works from the generator's own record
// of each flow and the generator's router, never from decoded program
// state:
//
//   LL(H)   = Σ_flows log((b·e^s + (w−b)) / w)
//   s       = r·log(p_b/p_g) + (t−r)·log((1−p_b)/(1−p_g))
//   post(H) = LL(H) + Σ_{c∈H} log(ρ/(1−ρ))·(device ? device_prior_scale : 1)
//
// with w the flow's candidate paths (one when the path is known), b the
// candidates crossing a component of H, r the bad and t the sent packets.
// A path crosses its switch components plus both hosts' access links.
#pragma once

#include <vector>

#include "core/params.h"
#include "inputs.h"

namespace perfbench {

struct NaiveVerdict {
  double posterior = 0.0;
  // Largest posterior gain of adding one component outside H (the greedy
  // search stops only when this is not positive), and which component.
  double best_addition_gain = 0.0;
  flock::ComponentId best_addition = flock::kInvalidComponent;
};

NaiveVerdict naive_evaluate(const Inputs& in, const flock::FlockParams& params,
                            const std::vector<const GenFlow*>& flows,
                            const std::vector<flock::ComponentId>& hypothesis);

}  // namespace perfbench
