// The measured run: tracing off, every layer driven through the public
// API of StreamingPipeline / UdpIngestServer, inputs sent by one generator
// thread whose own CPU time is measured and kept out of the program's.
#include <atomic>
#include <cstdlib>
#include <future>
#include <iostream>
#include <stdexcept>
#include <thread>

#include "bench.h"
#include "net/udp_socket.h"

namespace perfbench {

using namespace flock;

namespace {

// Flow control for the wire workload: the sender never has more than this
// many datagrams between its send and the server's offer callback, so the
// socket buffer cannot overflow even when the receiver is descheduled. A
// wait here shows up as generator lag.
constexpr std::uint64_t kWireWindow = 256;
// passive_ingest is a closed loop: the producer offers the next epoch only
// while fewer than this many of its epochs await their merged diagnosis.
constexpr std::size_t kEpochsInFlight = 2;
constexpr auto kRssSamplePeriod = std::chrono::milliseconds(10);
// A merged epoch must appear at least this often, or the run is abandoned.
constexpr auto kStallTimeout = std::chrono::seconds(60);

// What the wire workload's offer callback observes on the receiver thread.
struct WireTap {
  std::atomic<std::uint64_t> received{0};
  std::atomic<std::uint64_t> order_mismatches{0};
  std::atomic<double> cpu_s{0.0};  // receiver thread CPU at cpu_count
  std::atomic<std::uint64_t> cpu_count{0};
  std::vector<std::uint32_t> expected_source;           // per datagram, send order
  std::unique_ptr<std::atomic<std::int64_t>[]> sent_ns;  // per datagram
  std::vector<std::int64_t> offer_ns;                    // receiver thread only
  Clock::time_point origin;
};

std::int64_t ns_since(Clock::time_point origin) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - origin).count();
}

struct Program {
  std::unique_ptr<EcmpRouter> router;
  std::unique_ptr<StreamingPipeline> pipeline;
  std::unique_ptr<UdpIngestServer> server;  // declared last: stops first
};

// The program's set-up before its first datagram: router warm-up, the ECMP
// classes (inside the pipeline constructor when class merging is on),
// pipeline construction, and the server start for wire_ingest.
std::unique_ptr<Program> set_up(const Topology& topo, const PipelineConfig& config,
                                WireTap* tap) {
  auto p = std::make_unique<Program>();
  p->router = std::make_unique<EcmpRouter>(topo);
  p->router->build_all_tor_pairs();
  p->pipeline = std::make_unique<StreamingPipeline>(topo, *p->router, config);
  if (tap != nullptr) {
    UdpIngestServerConfig server_config;
    server_config.receiver_threads = 1;
    StreamingPipeline* pipeline = p->pipeline.get();
    p->server = std::make_unique<UdpIngestServer>(
        server_config, [pipeline, tap](IngestDatagram d) {
          const std::uint64_t i = tap->received.load(std::memory_order_relaxed);
          if (i < tap->expected_source.size()) {
            if (d.source_addr != tap->expected_source[i]) {
              tap->order_mismatches.fetch_add(1, std::memory_order_relaxed);
            }
            if (i % 16 == 0) {
              tap->offer_ns.push_back(ns_since(tap->origin) -
                                      tap->sent_ns[i].load(std::memory_order_relaxed));
            }
          }
          const bool ok = pipeline->offer_wait(std::move(d));
          tap->received.store(i + 1, std::memory_order_release);
          if ((i + 1) % 16 == 0) {
            tap->cpu_s.store(thread_cpu_s(), std::memory_order_relaxed);
            tap->cpu_count.store(i + 1, std::memory_order_relaxed);
          }
          return ok;
        });
    std::string error;
    if (!p->server->start(&error)) throw std::runtime_error("cannot start UDP server: " + error);
  }
  return p;
}

void write_export_time(std::vector<std::uint8_t>& bytes, std::uint32_t t) {
  bytes[4] = static_cast<std::uint8_t>(t >> 24);
  bytes[5] = static_cast<std::uint8_t>(t >> 16);
  bytes[6] = static_cast<std::uint8_t>(t >> 8);
  bytes[7] = static_cast<std::uint8_t>(t);
}

}  // namespace

PipelineConfig pipeline_config(const Inputs& in) {
  PipelineConfig c;
  c.num_shards = 2;
  c.localizer_threads = 1;
  c.localize_threads = 1;
  c.localizer.params.p_g = 3e-4;
  c.localizer.params.p_b = 1e-2;
  c.localizer.params.rho = 1e-3;
  if (in.workload == "fleet_incident") {
    c.epoch.virtual_seconds = in.virtual_seconds;
    c.merge_equivalence_classes = true;
  } else {
    c.epoch.record_limit = in.record_limit;
  }
  return c;
}

std::int32_t shard_of(const Topology& topo, std::uint32_t source_addr, std::int32_t num_shards) {
  const NodeId node = addr_to_node(source_addr);
  if (node >= 0 && node < topo.num_nodes() && topo.is_host(node)) {
    return topo.tor_of(node) % num_shards;
  }
  return static_cast<std::int32_t>(source_addr % static_cast<std::uint32_t>(num_shards));
}

MeasuredRun measure(const Inputs& in, double seconds) {
  MeasuredRun run;
  const bool wire = in.workload == "wire_ingest";
  const bool closed_loop = in.timeline.empty();
  const Topology topo = in.make_topology();
  const PipelineConfig config = pipeline_config(in);

  std::unique_ptr<WireTap> tap;
  std::size_t wire_datagrams = 0;
  if (wire) {
    tap = std::make_unique<WireTap>();
    for (std::uint32_t b : in.timeline) {
      for (std::uint32_t d : in.blocks[b].datagrams) {
        tap->expected_source.push_back(in.datagrams[d].source_addr);
      }
    }
    wire_datagrams = tap->expected_source.size();
    tap->sent_ns = std::make_unique<std::atomic<std::int64_t>[]>(wire_datagrams);
    tap->offer_ns.reserve(wire_datagrams / 16 + 1);
  }

  // Set-up is timed over repeated constructions, half of them before the
  // run and half after it, so their median spans the machine's state over
  // the whole run. The construction made just before the run is kept for
  // it. Memory is measured from just before that one, so neither the
  // generator's inputs nor what discarded constructions left in the
  // allocator count as the program's.
  auto timed_set_up = [&] {
    if (tap) tap->received.store(0);
    const auto t0 = Clock::now();
    auto p = set_up(topo, config, tap.get());
    run.setup_seconds.push_back(seconds_between(t0, Clock::now()));
    return p;
  };
  const std::size_t min_reps = in.workload == "fleet_incident" ? 3 : 8;
  double setup_total = 0.0;
  while (run.setup_seconds.size() < min_reps ||
         (setup_total < 0.25 && run.setup_seconds.size() < 200)) {
    timed_set_up();
    setup_total += run.setup_seconds.back();
  }
  const std::size_t reps_after = run.setup_seconds.size();
  release_free_memory();
  run.rss_baseline_mb = rss_mb();
  std::unique_ptr<Program> program = timed_set_up();
  StreamingPipeline& pipeline = *program->pipeline;
  EcmpRouter& router = *program->router;
  run.path_sets_at_start = router.num_path_sets();
  if (config.merge_equivalence_classes) {
    // The partition the pipeline was built with: ToR pairs only.
    EcmpRouter warm(topo);
    run.classes_at_setup = ecmp_equivalence_classes(warm);
  }

  // --- timed region -------------------------------------------------------
  std::atomic<std::size_t> epochs_total{closed_loop ? SIZE_MAX : in.timeline.size()};
  std::vector<Clock::time_point> epoch_ref;  // last datagram handed (closed) or due (open)
  std::promise<void> go_promise;
  std::shared_future<void> go = go_promise.get_future().share();
  Clock::time_point t_go;
  std::exception_ptr generator_error;

  std::thread generator([&] {
    try {
      go.wait();
      const double cpu0 = thread_cpu_s();
      if (closed_loop) {
        // passive_ingest: one producer, offer_wait, cycling the blocks, with
        // at most kEpochsInFlight epochs offered but not yet merged.
        for (std::size_t e = 0;; ++e) {
          if (e >= kEpochsInFlight) pipeline.results().wait_for_epochs(e + 1 - kEpochsInFlight);
          const auto b = static_cast<std::uint32_t>(e % in.blocks.size());
          const Block& block = in.blocks[b];
          for (std::size_t i = 0; i < block.datagrams.size(); ++i) {
            const GenDatagram& g = in.datagrams[block.datagrams[i]];
            IngestDatagram d{g.source_addr, g.bytes};
            if (i + 1 == block.datagrams.size()) epoch_ref.push_back(Clock::now());
            pipeline.offer_wait(std::move(d));
          }
          run.epoch_block.push_back(b);
          run.records += block.records;
          run.datagrams += block.datagrams.size();
          if (seconds_between(t_go, Clock::now()) >= seconds) break;
        }
        epochs_total.store(run.epoch_block.size());
      } else if (!wire) {
        // fleet_incident: every interval's datagrams spread evenly over its
        // wall slot; export time advances one virtual interval per epoch.
        const auto slot = std::chrono::duration<double>(in.epoch_wall_s);
        for (std::size_t e = 0; e < in.timeline.size(); ++e) {
          if (e == in.probe_start_epoch) {
            // The probe mesh deploys: its paths are registered with the
            // shared router while shards keep joining earlier epochs.
            const double c0 = thread_cpu_s();
            for (std::size_t i = 0; i < in.probe_pairs.size(); ++i) {
              const PathSetId id =
                  router.path_set_between(in.probe_pairs[i].first, in.probe_pairs[i].second);
              if (id != in.warm_path_sets + static_cast<PathSetId>(i)) run.probe_ids_matched = false;
            }
            run.program_cpu_on_generator_s += thread_cpu_s() - c0;
          }
          const Block& block = in.blocks[in.timeline[e]];
          const double n = static_cast<double>(block.datagrams.size());
          const auto export_time =
              in.export_time_base + static_cast<std::uint32_t>(e) * in.virtual_seconds;
          Clock::time_point due;
          for (std::size_t i = 0; i < block.datagrams.size(); ++i) {
            due = t_go + std::chrono::duration_cast<Clock::duration>(
                             slot * (static_cast<double>(e) + static_cast<double>(i) / n));
            if (Clock::now() < due) std::this_thread::sleep_until(due);
            run.generator_lag_max_s =
                std::max(run.generator_lag_max_s, seconds_between(due, Clock::now()));
            const GenDatagram& g = in.datagrams[block.datagrams[i]];
            IngestDatagram d{g.source_addr, g.bytes};
            write_export_time(d.bytes, export_time);
            pipeline.offer_wait(std::move(d));
          }
          epoch_ref.push_back(due);
          run.epoch_block.push_back(in.timeline[e]);
          run.records += block.records;
          run.datagrams += block.datagrams.size();
        }
        // The final interval ends: close its epoch as the next interval's
        // first export would have.
        const auto end = t_go + std::chrono::duration_cast<Clock::duration>(
                                    slot * static_cast<double>(in.timeline.size()));
        if (Clock::now() < end) std::this_thread::sleep_until(end);
        pipeline.close_epoch();
      } else {
        // wire_ingest: one UDP socket paced at a fixed datagram rate.
        UdpSocket socket;
        std::string error;
        if (!socket.open_unbound(&error)) throw std::runtime_error("UDP sender: " + error);
        const UdpEndpoint to = program->server->endpoint();
        const auto gap = std::chrono::duration<double>(1.0 / in.datagrams_per_s);
        std::uint64_t sent = 0;
        for (std::uint32_t b : in.timeline) {
          const Block& block = in.blocks[b];
          Clock::time_point due;
          for (std::uint32_t di : block.datagrams) {
            due = t_go +
                  std::chrono::duration_cast<Clock::duration>(gap * static_cast<double>(sent));
            while (sent - tap->received.load(std::memory_order_acquire) >= kWireWindow) {
              std::this_thread::sleep_for(std::chrono::microseconds(50));
            }
            if (Clock::now() < due) std::this_thread::sleep_until(due);
            run.generator_lag_max_s =
                std::max(run.generator_lag_max_s, seconds_between(due, Clock::now()));
            const GenDatagram& g = in.datagrams[di];
            tap->sent_ns[sent].store(ns_since(tap->origin), std::memory_order_relaxed);
            if (!socket.send_to(to, g.bytes.data(), g.bytes.size())) {
              throw std::runtime_error("UDP send failed");
            }
            ++sent;
          }
          epoch_ref.push_back(due);
          run.epoch_block.push_back(b);
          run.records += block.records;
          run.datagrams += block.datagrams.size();
        }
      }
      run.generator_cpu_s = thread_cpu_s() - cpu0 - run.program_cpu_on_generator_s;
    } catch (...) {
      generator_error = std::current_exception();
      epochs_total.store(0);
    }
  });

  // The main thread watches results by count (never copying the history)
  // and samples memory and the ingest backlog while it waits.
  std::vector<Clock::time_point> visible;
  const std::int64_t csw0 = involuntary_ctx_switches();
  const double cpu0 = process_cpu_s();
  t_go = Clock::now();
  if (tap) tap->origin = t_go;
  go_promise.set_value();
  auto last_progress = Clock::now();
  std::vector<double> rss_samples;
  auto last_rss_sample = last_progress;
  while (visible.size() < epochs_total.load()) {
    if (pipeline.results().wait_for_epochs_for(visible.size() + 1,
                                               std::chrono::milliseconds(5))) {
      const auto now = Clock::now();
      while (pipeline.results().completed_epochs() > visible.size() &&
             visible.size() < epochs_total.load()) {
        visible.push_back(now);
      }
      last_progress = now;
    } else if (Clock::now() - last_progress > kStallTimeout) {
      // The generator may be blocked inside the stalled pipeline, so it
      // cannot be joined: end the process without a result.
      std::cerr << "error: pipeline stalled: no merged epoch for 60 s\n";
      std::_Exit(1);
    }
    // Memory is sampled every 10 ms over the second half of the run, past
    // the start-up transients whose timing varies from run to run.
    const auto now = Clock::now();
    if (seconds_between(t_go, now) >= seconds / 2 && now - last_rss_sample >= kRssSamplePeriod) {
      rss_samples.push_back(rss_mb());
      last_rss_sample = now;
    }
    run.ingest_depth_max = std::max(run.ingest_depth_max, pipeline.ingest_depth());
  }
  const auto t_end = visible.empty() ? Clock::now() : visible.back();
  run.process_cpu_s = process_cpu_s() - cpu0;
  run.involuntary_ctx_switches = involuntary_ctx_switches() - csw0;
  rss_samples.push_back(rss_mb());
  run.rss_peak_mb = quantile(rss_samples, 0.9);
  generator.join();
  if (generator_error) std::rethrow_exception(generator_error);
  run.wall_s = seconds_between(t_go, t_end);
  // --- end of timed region ------------------------------------------------

  for (std::size_t k = 0; k < visible.size() && k < epoch_ref.size(); ++k) {
    run.verdict_latency_s.push_back(seconds_between(epoch_ref[k], visible[k]));
    run.visible_s.push_back(seconds_between(t_go, visible[k]));
  }
  if (program->server) program->server->stop();
  pipeline.stop();
  run.stats = pipeline.stats();
  if (program->server) {
    run.net = program->server->stats();
    program->server->fold_into(run.stats);
    const auto count = tap->cpu_count.load();
    if (count > 0) run.receive_cpu_ns_per_datagram = tap->cpu_s.load() * 1e9 / count;
    for (std::int64_t ns : tap->offer_ns) run.send_to_offer_s.push_back(ns * 1e-9);
    run.order_mismatches = tap->order_mismatches.load();
  }
  run.epochs = pipeline.results().completed();
  run.verdicts = pipeline.tracker().verdicts();
  run.path_sets_at_end = router.num_path_sets();
  if (config.merge_equivalence_classes) run.classes_after = ecmp_equivalence_classes(router);
  program.reset();
  for (std::size_t i = 0; i < reps_after; ++i) timed_set_up();
  return run;
}

}  // namespace perfbench
