// Workload generator. Everything the program will see is built here, from
// the seed, before the timed region: encoded IPFIX datagrams grouped into
// epochs, the open-loop timeline, and the generator's own record of what it
// encoded (the ground truth the checks compare against).
//
// The generator keeps its own Topology and EcmpRouter. The program under
// test builds its own from the same topology recipe; path-set ids agree
// because both routers intern the same pairs in the same order (all ToR
// pairs at warm-up, then the probe pairs, which the run registers before the
// first probe datagram and checks id by id).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/ids.h"
#include "topology/ecmp.h"
#include "topology/topology.h"

namespace perfbench {

// One flow record as the generator encoded it.
struct GenFlow {
  flock::NodeId src_host = flock::kInvalidNode;
  flock::NodeId dst = flock::kInvalidNode;  // a host, or the probed core switch
  flock::PathSetId path_set = flock::kInvalidPathSet;  // generator-router id
  std::int32_t taken_path = -1;                        // -1: passive, path unknown
  std::uint32_t packets = 0;
  std::uint32_t bad = 0;
};

struct GenDatagram {
  std::uint32_t source_addr = 0;
  std::vector<std::uint8_t> bytes;
  std::uint32_t records = 0;
  std::uint32_t flow_begin = 0;  // [flow_begin, flow_end) into Inputs::flows
  std::uint32_t flow_end = 0;
};

// One distinct epoch's content, in send order. Epochs of a run cycle
// through blocks; identical blocks must yield identical diagnoses.
struct Block {
  std::vector<std::uint32_t> datagrams;  // indices into Inputs::datagrams
  std::uint64_t records = 0;
  bool faulty = false;  // the injected links drop packets in this block
};

struct Inputs {
  std::string workload;
  std::function<flock::Topology()> make_topology;
  flock::Topology topo;                        // generator's copy
  std::unique_ptr<flock::EcmpRouter> router;  // generator's router
  std::vector<GenFlow> flows;
  std::vector<GenDatagram> datagrams;
  std::vector<Block> blocks;

  // Closed loop (passive_ingest) cycles `blocks` until time is up. Open
  // loops follow `timeline` (epoch -> block), once.
  std::vector<std::uint32_t> timeline;
  double epoch_wall_s = 0.0;      // fleet_incident: wall time of one interval
  double datagrams_per_s = 0.0;   // wire_ingest: sender rate

  // Epoch policy the pipeline runs with (the generator cut blocks to it).
  std::uint64_t record_limit = 0;
  std::uint32_t virtual_seconds = 0;
  std::uint32_t export_time_base = 1700000000;

  // fleet_incident: probe path sets, in generator id order from
  // `warm_path_sets`, registered before epoch `probe_start_epoch`.
  std::int32_t warm_path_sets = 0;
  std::vector<std::pair<flock::NodeId, flock::NodeId>> probe_pairs;
  std::uint32_t probe_start_epoch = 0;
  std::vector<flock::ComponentId> injected;
};

flock::Topology default_clos();

// `seconds` sets the open-loop timelines' length.
Inputs make_passive_ingest(std::uint64_t seed);
Inputs make_fleet_incident(std::uint64_t seed, double seconds);
Inputs make_wire_ingest(std::uint64_t seed, double seconds);

}  // namespace perfbench
