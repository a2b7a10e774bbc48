#include "inputs.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <stdexcept>

#include "common/rng.h"
#include "flowsim/scenario.h"
#include "flowsim/simulate.h"
#include "telemetry/flow_record.h"
#include "telemetry/ipfix.h"

namespace perfbench {

using namespace flock;

namespace {

// Encode `flows` as per-host IPFIX exports (hosts in id order, each host's
// records in flow order) and append them to `in`. Passive flows are
// exported without path knowledge; probes carry their generator-router path.
// Returns the new datagrams' indices in send order.
std::vector<std::uint32_t> encode_interval(Inputs& in, const std::vector<SimFlow>& flows,
                                           std::uint32_t export_time) {
  std::map<NodeId, std::vector<const SimFlow*>> by_host;
  for (const SimFlow& f : flows) by_host[f.src_host].push_back(&f);

  std::vector<std::uint32_t> sent;
  for (const auto& [host, host_flows] : by_host) {
    const auto first_flow = static_cast<std::uint32_t>(in.flows.size());
    std::vector<FlowRecord> records;
    records.reserve(host_flows.size());
    std::uint16_t port = 40000;
    for (const SimFlow* f : host_flows) {
      const bool probe = f->kind == SimFlowKind::kProbe;
      GenFlow g;
      g.src_host = f->src_host;
      g.dst = f->dst_host;
      g.path_set = f->path_set;
      g.taken_path = probe ? f->taken_path : -1;
      g.packets = f->packets_sent;
      g.bad = f->dropped;
      in.flows.push_back(g);

      FlowRecord r;
      r.src_addr = node_to_addr(f->src_host);
      r.dst_addr = node_to_addr(f->dst_host);
      r.src_port = port++;
      r.dst_port = 443;
      r.packets = f->packets_sent;
      r.retransmissions = f->dropped;
      r.path_set = probe ? f->path_set : -1;
      r.taken_path = probe ? f->taken_path : -1;
      records.push_back(r);
    }
    IpfixEncoderOptions options;
    options.observation_domain = static_cast<std::uint32_t>(host);
    IpfixEncoder encoder(options);
    std::uint32_t next = first_flow;
    for (auto& msg : encoder.encode(records, export_time)) {
      GenDatagram d;
      d.source_addr = node_to_addr(host);
      d.records = peek_record_count(msg).value_or(0);
      d.flow_begin = next;
      d.flow_end = next + d.records;
      next = d.flow_end;
      d.bytes = std::move(msg);
      sent.push_back(static_cast<std::uint32_t>(in.datagrams.size()));
      in.datagrams.push_back(std::move(d));
    }
    if (next != in.flows.size()) throw std::logic_error("encoder split lost records");
  }
  return sent;
}

// Cut a datagram sequence into record-count epochs exactly as the
// pipeline's EpochScheduler does (the datagram that brings the count to the
// limit closes the epoch). A trailing partial epoch is dropped, so cycling
// the blocks reproduces the same cuts every pass.
void cut_by_records(Inputs& in, const std::vector<std::uint32_t>& sequence) {
  Block block;
  for (std::uint32_t d : sequence) {
    block.datagrams.push_back(d);
    block.records += in.datagrams[d].records;
    if (block.records >= in.record_limit) {
      in.blocks.push_back(std::move(block));
      block = Block{};
    }
  }
  if (in.blocks.empty()) throw std::logic_error("record limit above the datagram set");
}

// Passive-only telemetry on the default Clos: uniform host pairs, Pareto
// flow sizes, two silent link drops so diagnoses are not trivially empty.
// With `zipf`, each rack's datagrams are repeated k^-1.2-proportionally
// (rank k by ToR id), as in bench/pipeline_skew. The sequence is shuffled so
// every epoch cut from it holds the same mix of racks.
std::vector<std::uint32_t> passive_sequence(Inputs& in, Rng& rng, std::int64_t flows, bool zipf) {
  DropRateConfig rates;
  rates.bad_min = 5e-3;
  rates.bad_max = 1e-2;
  GroundTruth truth = make_silent_link_drops(in.topo, 2, rates, rng);
  TrafficConfig traffic;
  traffic.num_app_flows = flows;
  ProbeConfig probes;
  probes.enabled = false;
  const Trace trace = simulate(in.topo, *in.router, std::move(truth), traffic, probes, rng);
  std::vector<std::uint32_t> sequence = encode_interval(in, trace.flows, in.export_time_base);
  if (zipf) {
    std::map<NodeId, std::size_t> rack_rank;
    for (NodeId h : in.topo.hosts()) rack_rank.emplace(in.topo.tor_of(h), 0);
    std::size_t rank = 0;
    for (auto& [tor, r] : rack_rank) r = rank++;
    std::vector<std::uint32_t> skewed;
    for (std::uint32_t d : sequence) {
      const NodeId host = addr_to_node(in.datagrams[d].source_addr);
      const double weight =
          std::pow(static_cast<double>(rack_rank.at(in.topo.tor_of(host)) + 1), -1.2);
      const auto copies = std::max<std::int64_t>(1, std::llround(25.0 * weight));
      for (std::int64_t c = 0; c < copies; ++c) skewed.push_back(d);
    }
    sequence = std::move(skewed);
  }
  for (std::size_t i = sequence.size(); i > 1; --i) {
    std::swap(sequence[i - 1], sequence[rng.next_below(i)]);
  }
  return sequence;
}

Inputs make_base(const std::string& workload, std::function<Topology()> make_topology) {
  Inputs in;
  in.workload = workload;
  in.make_topology = std::move(make_topology);
  in.topo = in.make_topology();
  in.router = std::make_unique<EcmpRouter>(in.topo);
  in.router->build_all_tor_pairs();
  in.warm_path_sets = in.router->num_path_sets();
  return in;
}

// Switch link between pod `pod`'s aggregation switch `agg` and the `nth`
// core it connects to (cores ordered by index).
ComponentId agg_core_link(const Topology& topo, std::int32_t pod, std::int32_t agg,
                          std::size_t nth) {
  std::vector<std::pair<std::int32_t, LinkId>> uplinks;
  for (NodeId sw : topo.switches()) {
    const Node& n = topo.node(sw);
    if (n.kind != NodeKind::kAgg || n.pod != pod || n.index != agg) continue;
    for (const auto& [peer, link] : topo.adjacency(sw)) {
      if (topo.node(peer).kind == NodeKind::kCore) {
        uplinks.emplace_back(topo.node(peer).index, link);
      }
    }
  }
  std::sort(uplinks.begin(), uplinks.end());
  if (nth >= uplinks.size()) throw std::logic_error("no such aggregation uplink");
  return topo.link_component(uplinks[nth].second);
}

}  // namespace

flock::Topology default_clos() {
  ThreeTierClosConfig cfg;
  cfg.pods = 6;
  cfg.tors_per_pod = 3;
  cfg.aggs_per_pod = 3;
  cfg.cores = 9;
  cfg.hosts_per_tor = 3;
  return make_three_tier_clos(cfg);
}

Inputs make_passive_ingest(std::uint64_t seed) {
  Inputs in = make_base("passive_ingest", [] { return default_clos(); });
  Rng rng(seed * 0x9E3779B97F4A7C15ULL + 1);
  in.record_limit = 100000;
  cut_by_records(in, passive_sequence(in, rng, 100000, /*zipf=*/true));
  return in;
}

Inputs make_wire_ingest(std::uint64_t seed, double seconds) {
  Inputs in = make_base("wire_ingest", [] { return default_clos(); });
  Rng rng(seed * 0x9E3779B97F4A7C15ULL + 3);
  in.record_limit = 100000;
  cut_by_records(in, passive_sequence(in, rng, 200000, /*zipf=*/false));
  // A fixed offered rate well below the loss point of one receiver thread
  // feeding a 2-shard pipeline; the run covers whole epochs only.
  in.datagrams_per_s = 32000.0;
  std::size_t datagrams = 0;
  for (std::uint32_t e = 0;; ++e) {
    const Block& b = in.blocks[e % in.blocks.size()];
    if (static_cast<double>(datagrams + b.datagrams.size()) > in.datagrams_per_s * seconds &&
        e > 0) {
      break;
    }
    datagrams += b.datagrams.size();
    in.timeline.push_back(e % static_cast<std::uint32_t>(in.blocks.size()));
  }
  return in;
}

Inputs make_fleet_incident(std::uint64_t seed, double seconds) {
  constexpr std::int32_t kFatTreeK = 12;
  Inputs in = make_base("fleet_incident", [] { return make_fat_tree(kFatTreeK); });
  Rng rng(seed * 0x9E3779B97F4A7C15ULL + 2);
  in.virtual_seconds = 10;

  // Fixed fault placement: two aggregation->core uplinks in different pods,
  // at a fixed 1% drop rate. Only the traffic draws depend on the seed.
  in.injected = {agg_core_link(in.topo, 0, 1, 2), agg_core_link(in.topo, 3, 2, 1)};

  // Background loss on healthy links an order of magnitude below the
  // model's p_g, so a healthy epoch has no right answer but "nothing". At the
  // paper's 1e-4 upper bound, some seeds give a healthy host link with a
  // heavy flow enough real drops to be blamed, which the checks would then
  // call a wrong diagnosis although the model was evaluated correctly.
  DropRateConfig rates;
  rates.good_max = 2e-5;
  // Timeline: passive-only lead-in, then the probe mesh deploys (its path
  // sets are interned mid-run), then the faults start and persist.
  constexpr std::uint32_t kPassiveEpochs = 10;
  constexpr std::uint32_t kHealthyEpochs = 30;
  // About twelve intervals per wall second, and never fewer than 120 epochs
  // so the p90 verdict latency has at least twelve samples beyond it.
  const auto epochs = std::max<std::uint32_t>(120, static_cast<std::uint32_t>(12 * seconds));
  constexpr std::uint32_t kDistinct = 4;  // distinct intervals per phase
  in.probe_start_epoch = kPassiveEpochs;

  TrafficConfig traffic;
  traffic.num_app_flows = 6000;
  std::vector<std::uint32_t> phase_first;  // first block of each phase
  for (int phase = 0; phase < 3; ++phase) {
    phase_first.push_back(static_cast<std::uint32_t>(in.blocks.size()));
    for (std::uint32_t i = 0; i < kDistinct; ++i) {
      GroundTruth truth = make_healthy(in.topo, rates, rng);
      if (phase == 2) {
        for (ComponentId c : in.injected) {
          truth.link_drop_rate[static_cast<std::size_t>(c)] = 1e-2;
          truth.failed.push_back(c);
        }
      }
      ProbeConfig probes;
      probes.enabled = phase > 0;
      const Trace trace = simulate(in.topo, *in.router, std::move(truth), traffic, probes, rng);
      Block block;
      block.faulty = phase == 2;
      block.datagrams = encode_interval(in, trace.flows, in.export_time_base);
      for (std::uint32_t d : block.datagrams) block.records += in.datagrams[d].records;
      in.blocks.push_back(std::move(block));
    }
  }
  for (PathSetId ps = in.warm_path_sets; ps < in.router->num_path_sets(); ++ps) {
    const PathSet& set = in.router->path_set(ps);
    in.probe_pairs.emplace_back(set.src_sw, set.dst_sw);
  }
  for (std::uint32_t e = 0; e < epochs; ++e) {
    const int phase = e < kPassiveEpochs ? 0 : e < kHealthyEpochs ? 1 : 2;
    in.timeline.push_back(phase_first[static_cast<std::size_t>(phase)] + e % kDistinct);
  }
  in.epoch_wall_s = seconds / epochs;
  return in;
}

}  // namespace perfbench
