#include "naive.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace perfbench {

using namespace flock;

namespace {

// log((b·e^s + (w−b)) / w) without overflowing e^s.
double flow_term(std::int32_t b, std::int32_t w, double s) {
  if (b == 0) return 0.0;
  if (b == w) return s;
  const double a = std::log(static_cast<double>(b)) + s;
  const double c = std::log(static_cast<double>(w - b));
  const double hi = std::max(a, c);
  return hi + std::log(std::exp(a - hi) + std::exp(c - hi)) - std::log(static_cast<double>(w));
}

// Every candidate path of a flow as its full component list.
std::vector<std::vector<ComponentId>> candidate_paths(const Inputs& in, const GenFlow& f) {
  const Topology& topo = in.topo;
  const EcmpRouter& router = *in.router;
  const ComponentId src_link = topo.link_component(topo.host_access_link(f.src_host));
  const bool dst_is_host = topo.is_host(f.dst);
  const PathSet& set = router.path_set(f.path_set);
  std::vector<std::vector<ComponentId>> out;
  for (std::size_t i = 0; i < set.paths.size(); ++i) {
    if (f.taken_path >= 0 && static_cast<std::int32_t>(i) != f.taken_path) continue;
    std::vector<ComponentId> comps{src_link};
    const Path& p = router.path(set.paths[i]);
    comps.insert(comps.end(), p.comps.begin(), p.comps.end());
    if (dst_is_host) comps.push_back(topo.link_component(topo.host_access_link(f.dst)));
    out.push_back(std::move(comps));
  }
  return out;
}

}  // namespace

NaiveVerdict naive_evaluate(const Inputs& in, const FlockParams& params,
                            const std::vector<const GenFlow*>& flows,
                            const std::vector<ComponentId>& hypothesis) {
  const Topology& topo = in.topo;
  const auto n = static_cast<std::size_t>(topo.num_components());
  std::vector<char> in_h(n, 0);
  for (ComponentId c : hypothesis) in_h[static_cast<std::size_t>(c)] = 1;

  const double logit_rho = std::log(params.rho / (1.0 - params.rho));
  auto prior = [&](ComponentId c) {
    return topo.is_device_component(c) ? logit_rho * params.device_prior_scale : logit_rho;
  };
  const double bad_weight = std::log(params.p_b / params.p_g);
  const double good_weight = std::log((1.0 - params.p_b) / (1.0 - params.p_g));

  NaiveVerdict v;
  for (ComponentId c : hypothesis) v.posterior += prior(c);

  // Likelihood change of adding each component, accumulated flow by flow:
  // adding c fails every not-yet-failed candidate path through c.
  std::vector<double> add_delta(n, 0.0);
  std::vector<std::pair<ComponentId, std::int32_t>> newly_failed;
  for (const GenFlow* f : flows) {
    const double s = static_cast<double>(f->bad) * bad_weight +
                     static_cast<double>(f->packets - f->bad) * good_weight;
    const auto paths = candidate_paths(in, *f);
    const auto w = static_cast<std::int32_t>(paths.size());
    std::int32_t b = 0;
    newly_failed.clear();
    for (const auto& path : paths) {
      const bool failed = std::any_of(path.begin(), path.end(), [&](ComponentId c) {
        return in_h[static_cast<std::size_t>(c)] != 0;
      });
      if (failed) {
        ++b;
        continue;
      }
      std::vector<ComponentId> distinct = path;
      std::sort(distinct.begin(), distinct.end());
      distinct.erase(std::unique(distinct.begin(), distinct.end()), distinct.end());
      for (ComponentId c : distinct) newly_failed.emplace_back(c, 1);
    }
    const double base = flow_term(b, w, s);
    v.posterior += base;
    std::sort(newly_failed.begin(), newly_failed.end());
    for (std::size_t i = 0; i < newly_failed.size();) {
      std::size_t j = i;
      std::int32_t extra = 0;
      while (j < newly_failed.size() && newly_failed[j].first == newly_failed[i].first) {
        extra += newly_failed[j].second;
        ++j;
      }
      add_delta[static_cast<std::size_t>(newly_failed[i].first)] +=
          flow_term(b + extra, w, s) - base;
      i = j;
    }
  }

  v.best_addition_gain = -std::numeric_limits<double>::infinity();
  for (std::size_t c = 0; c < n; ++c) {
    if (in_h[c] != 0) continue;
    const double gain = add_delta[c] + prior(static_cast<ComponentId>(c));
    if (gain > v.best_addition_gain) {
      v.best_addition_gain = gain;
      v.best_addition = static_cast<ComponentId>(c);
    }
  }
  return v;
}

}  // namespace perfbench
