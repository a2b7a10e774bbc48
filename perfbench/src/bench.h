// The benchmark's two runs of one workload: the measured run, which drives
// StreamingPipeline (and, for wire_ingest, UdpIngestServer) through their
// public API with tracing off, and the traced run, which drives the same
// layers synchronously from one thread with a span around every call.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "inputs.h"
#include "net/ingest_server.h"
#include "pipeline/pipeline.h"
#include "util.h"

namespace perfbench {

flock::PipelineConfig pipeline_config(const Inputs& in);

// Deterministic shard of an exporter, as the pipeline's dispatcher routes it
// (ToR of the exporting host, modulo the shard count).
std::int32_t shard_of(const flock::Topology& topo, std::uint32_t source_addr,
                      std::int32_t num_shards);

struct MeasuredRun {
  // Set-up, timed over repeated constructions (seconds each).
  std::vector<double> setup_seconds;

  // Timed region: first datagram to the last epoch visible through results().
  double wall_s = 0.0;
  std::uint64_t records = 0;
  std::uint64_t datagrams = 0;
  std::vector<std::uint32_t> epoch_block;  // block of each epoch sent
  std::vector<double> verdict_latency_s;   // per merged-epoch count
  std::vector<double> visible_s;           // when k+1 epochs were visible, from go
  double process_cpu_s = 0.0;              // whole process, timed region
  double generator_cpu_s = 0.0;            // generator thread's own work
  double program_cpu_on_generator_s = 0.0; // router writes made on its thread
  double generator_lag_max_s = 0.0;
  double rss_baseline_mb = 0.0;
  double rss_peak_mb = 0.0;
  std::size_t ingest_depth_max = 0;
  std::int64_t involuntary_ctx_switches = 0;
  std::int32_t path_sets_at_start = 0;
  std::int32_t path_sets_at_end = 0;
  bool probe_ids_matched = true;

  // wire_ingest: receiver-thread CPU per datagram and send->offer latency.
  double receive_cpu_ns_per_datagram = 0.0;
  std::vector<double> send_to_offer_s;
  std::uint64_t order_mismatches = 0;

  flock::PipelineStats stats;
  flock::NetIngestStats net;
  std::vector<flock::EpochResult> epochs;
  std::vector<flock::ComponentVerdict> verdicts;
  // Post-run class partition (every path set interned) and the partition
  // the pipeline was built with (ToR pairs only).
  std::vector<std::vector<flock::ComponentId>> classes_after;
  std::vector<std::vector<flock::ComponentId>> classes_at_setup;
};

// Runs the workload for `seconds`. Throws std::runtime_error when the
// program cannot be driven at all (socket unavailable, pipeline stalled).
MeasuredRun measure(const Inputs& in, double seconds);

struct TracedRun {
  std::size_t epochs = 0;  // traced epochs (a prefix of the measured run)
  std::vector<flock::EpochResult> results;
  std::vector<flock::ComponentVerdict> verdicts;
  std::uint64_t records = 0;
  Tracer tracer;
};

// Replays the first epochs of `measured` through the layers one call at a
// time, recording spans.
TracedRun trace_run(const Inputs& in, const MeasuredRun& measured, std::size_t max_epochs);

}  // namespace perfbench
