// End-to-end benchmark of the streaming Flock service.
//
//   flock_perfbench --workload <passive_ingest|fleet_incident|wire_ingest>
//                   --seed <n> --seconds <s> --trace <0|1> [--spans-dir DIR]
//
// Builds the workload's inputs from the seed, runs the measured run, checks
// the program's outputs against the generator's counts, the injected ground
// truth and a naive evaluator of the model, and prints one JSON object as
// the last line: the end-to-end metrics with --trace 0, the per-layer
// metrics (measured-run counters plus a traced run) with --trace 1.
#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <limits>
#include <malloc.h>
#include <map>
#include <set>
#include <string>

#include "bench.h"
#include "naive.h"

namespace {

using namespace flock;
using namespace perfbench;

// An open-loop run whose generator fell further behind its schedule than
// this did not offer the load it claims; it is reported as invalid.
constexpr double kLagBoundS = 1.0;
// The traced run replays at most this many epochs of the measured run;
// fleet_incident's are all replayed, so its temporal verdicts compare too.
constexpr std::size_t kMaxTracedEpochs = 128;
// Glibc's mmap threshold, fixed: by default it adapts to the first large
// frees, which leaves the resident set of identical runs up to 40% apart.
constexpr int kMmapThresholdBytes = 1 << 20;
// Latency quantiles are taken per window of at least this many epochs, and
// the median of the windows' values is reported.
constexpr std::size_t kLatencyWindow = 100;
// Agreement between the program's reported score and the naive evaluator,
// relative to the summed magnitude of the terms.
constexpr double kScoreTolerance = 1e-6;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string spans_dir = ".bench_build/spans";
};

bool parse(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    try {
      if (key == "--workload") {
        a.workload = value;
      } else if (key == "--seed") {
        a.seed = std::stoull(value);
      } else if (key == "--seconds") {
        a.seconds = std::stod(value);
      } else if (key == "--trace") {
        if (value != "0" && value != "1") return false;
        a.trace = value == "1";
      } else if (key == "--spans-dir") {
        a.spans_dir = value;
      } else {
        return false;
      }
    } catch (const std::exception&) {
      return false;
    }
  }
  return argc % 2 == 1 && a.seconds > 0.0 &&
         (a.workload == "passive_ingest" || a.workload == "fleet_incident" ||
          a.workload == "wire_ingest");
}

struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  double naive_max_rel_error = 0.0;
  double naive_max_gain = -std::numeric_limits<double>::infinity();
  void problem(const std::string& what) {
    correct = false;
    std::cerr << "CHECK FAILED: " << what << "\n";
  }
};

bool same_diagnosis(const EpochResult& a, const EpochResult& b) {
  return a.predicted == b.predicted && a.per_shard_predicted == b.per_shard_predicted &&
         a.shard_score_sum == b.shard_score_sum && a.flows == b.flows && a.rows == b.rows &&
         a.unresolved == b.unresolved;
}

const std::vector<ComponentId>* class_of(const std::vector<std::vector<ComponentId>>& classes,
                                         ComponentId c) {
  for (const auto& cls : classes) {
    if (std::find(cls.begin(), cls.end(), c) != cls.end()) return &cls;
  }
  return nullptr;
}

bool contains(const std::vector<ComponentId>* cls, ComponentId c) {
  return cls != nullptr && std::find(cls->begin(), cls->end(), c) != cls->end();
}

bool intersects(const std::vector<ComponentId>& predicted, const std::vector<ComponentId>* cls,
                ComponentId fallback) {
  for (ComponentId c : predicted) {
    if (c == fallback || contains(cls, c)) return true;
  }
  return false;
}

// Every check of the measured run. Each merged epoch is one operation; in
// fleet_incident so is the temporal verdict on each injected link.
Outcome check(const Inputs& in, const MeasuredRun& run) {
  Outcome out;
  const PipelineStats& s = run.stats;
  const std::size_t n_epochs = run.epoch_block.size();
  out.attempted = n_epochs;

  // Conservation against the generator's own counts.
  if (run.epochs.size() != n_epochs || s.epochs_closed != n_epochs) {
    out.problem("merged " + std::to_string(run.epochs.size()) + " / closed " +
                std::to_string(s.epochs_closed) + " epochs, generator sent " +
                std::to_string(n_epochs));
  }
  if (s.records_decoded != run.records) {
    out.problem("decoded " + std::to_string(s.records_decoded) + " records, generator encoded " +
                std::to_string(run.records));
  }
  if (s.offered != run.datagrams || s.accepted != run.datagrams ||
      s.dispatched != run.datagrams) {
    out.problem("datagrams offered/accepted/dispatched " + std::to_string(s.offered) + "/" +
                std::to_string(s.accepted) + "/" + std::to_string(s.dispatched) + ", sent " +
                std::to_string(run.datagrams));
  }
  if (s.dropped != 0 || s.rejected_closed != 0 || s.malformed_messages != 0) {
    out.problem("pipeline dropped, rejected or found malformed datagrams");
  }
  if (in.workload == "wire_ingest") {
    const NetIngestStats& n = run.net;
    if (n.datagrams_received != run.datagrams || n.offered != run.datagrams ||
        n.records_seen != run.records) {
      out.problem("server received " + std::to_string(n.datagrams_received) +
                  " datagrams, generator sent " + std::to_string(run.datagrams));
    }
    if (n.quarantined() != 0 || n.admission_drops != 0 || n.offer_rejected != 0) {
      out.problem("server quarantined, shed or had offers rejected");
    }
    if (run.order_mismatches != 0) out.problem("datagrams arrived out of send order");
  }
  if (!run.probe_ids_matched) out.problem("probe path-set ids differ from the generator's");
  std::uint64_t unresolved = 0;
  for (std::size_t e = 0; e < run.epochs.size() && e < n_epochs; ++e) {
    unresolved += run.epochs[e].unresolved;
    if (run.epochs[e].epoch != e ||
        run.epochs[e].flows != in.blocks[run.epoch_block[e]].records) {
      out.problem("epoch " + std::to_string(e) + " holds " +
                  std::to_string(run.epochs[e].flows) + " flows, generator encoded " +
                  std::to_string(in.blocks[run.epoch_block[e]].records));
      break;
    }
  }
  if (unresolved != 0) out.problem(std::to_string(unresolved) + " unresolved records");
  if (!out.correct) return out;

  // Identical epochs (the same block) must give identical diagnoses.
  std::map<std::uint32_t, std::size_t> first_of_block;
  for (std::size_t e = 0; e < n_epochs; ++e) {
    const auto [it, inserted] = first_of_block.emplace(run.epoch_block[e], e);
    if (!inserted && !same_diagnosis(run.epochs[e], run.epochs[it->second])) {
      out.problem("epoch " + std::to_string(e) + " differs from epoch " +
                  std::to_string(it->second) + " on identical input");
    }
  }

  // Naive evaluator on every distinct (epoch, shard): reported score and the
  // greedy stopping property (no single addition raises the posterior).
  const PipelineConfig config = pipeline_config(in);
  for (const auto& [block_id, e] : first_of_block) {
    const Block& block = in.blocks[block_id];
    const EpochResult& r = run.epochs[e];
    double posterior_sum = 0.0;
    double magnitude = 1.0;
    for (std::int32_t shard = 0; shard < config.num_shards; ++shard) {
      std::vector<const GenFlow*> flows;
      for (std::uint32_t d : block.datagrams) {
        const GenDatagram& g = in.datagrams[d];
        if (shard_of(in.topo, g.source_addr, config.num_shards) != shard) continue;
        for (std::uint32_t f = g.flow_begin; f < g.flow_end; ++f) flows.push_back(&in.flows[f]);
      }
      if (flows.empty()) continue;
      const NaiveVerdict v =
          naive_evaluate(in, config.localizer.params, flows,
                         r.per_shard_predicted[static_cast<std::size_t>(shard)]);
      posterior_sum += v.posterior;
      magnitude += std::abs(v.posterior);
      out.naive_max_gain = std::max(out.naive_max_gain, v.best_addition_gain);
      if (v.best_addition_gain > kScoreTolerance * (1.0 + std::abs(v.posterior))) {
        out.problem("epoch " + std::to_string(e) + " shard " + std::to_string(shard) +
                    ": adding " + in.topo.component_name(v.best_addition) +
                    " raises the posterior by " + std::to_string(v.best_addition_gain));
      }
    }
    const double rel = std::abs(posterior_sum - r.shard_score_sum) / magnitude;
    out.naive_max_rel_error = std::max(out.naive_max_rel_error, rel);
    if (rel > kScoreTolerance) {
      out.problem("epoch " + std::to_string(e) + ": reported score " +
                  std::to_string(r.shard_score_sum) + ", naive evaluator " +
                  std::to_string(posterior_sum));
    }
  }

  if (in.injected.empty()) return out;

  // Ground truth: healthy epochs blame nothing; every faulty epoch names a
  // member of each injected link's class (classes after the run, with every
  // probe path set interned).
  for (std::size_t e = 0; e < n_epochs; ++e) {
    const Block& block = in.blocks[run.epoch_block[e]];
    const auto& predicted = run.epochs[e].predicted;
    if (!block.faulty && !predicted.empty()) {
      out.problem("healthy epoch " + std::to_string(e) + " blames " +
                  in.topo.component_name(predicted.front()));
    }
    if (!block.faulty) continue;
    for (ComponentId link : in.injected) {
      if (!intersects(predicted, class_of(run.classes_after, link), link)) {
        out.problem("faulty epoch " + std::to_string(e) + " misses " +
                    in.topo.component_name(link));
      }
    }
  }

  // Temporal verdicts: one operation per injected link. A confirmed verdict
  // must name a member of the link's true class. Today the pipeline keys the
  // tracker by the class partition computed at construction, before the
  // probe path sets were interned, so the verdict names the stale class's
  // smallest member instead: counted as a failed operation.
  std::set<ComponentId> explained;
  for (ComponentId link : in.injected) {
    ++out.attempted;
    const auto* truth = class_of(run.classes_after, link);
    const auto* stale = class_of(run.classes_at_setup, link);
    bool named = false;
    bool stale_named = false;
    for (const ComponentVerdict& v : run.verdicts) {
      if (v.state != ComponentHealth::kConfirmed) continue;
      if (v.component == link || contains(truth, v.component)) {
        named = true;
        explained.insert(v.component);
      } else if (contains(stale, v.component)) {
        stale_named = true;
        explained.insert(v.component);
      }
    }
    if (named) continue;
    if (stale_named) {
      ++out.failed;
      std::cerr << "failed operation: verdict for " << in.topo.component_name(link)
                << " names a member of its construction-time class only\n";
    } else {
      out.problem("no confirmed verdict for " + in.topo.component_name(link));
    }
  }
  for (const ComponentVerdict& v : run.verdicts) {
    if (v.state == ComponentHealth::kConfirmed && explained.count(v.component) == 0) {
      out.problem("confirmed verdict on healthy " + in.topo.component_name(v.component));
    }
  }
  return out;
}

double per(double value, double base) { return base > 0.0 ? value / base : 0.0; }

// Median over consecutive windows of at least kLatencyWindow epochs of each
// window's q-quantile, so a burst of contention from outside the process
// confined to one window moves the figure less. Every window still holds at
// least ten samples beyond its p90.
double windowed_quantile(const std::vector<double>& samples, double q) {
  const std::size_t n = samples.size();
  const std::size_t windows = std::max<std::size_t>(1, n / kLatencyWindow);
  std::vector<double> values;
  for (std::size_t w = 0; w < windows; ++w) {
    values.push_back(quantile({samples.begin() + static_cast<std::ptrdiff_t>(n * w / windows),
                               samples.begin() + static_cast<std::ptrdiff_t>(n * (w + 1) / windows)},
                              q));
  }
  return median(values);
}

// Records per second as the median over consecutive windows holding an equal
// number of merged epochs, so a few seconds of contention from outside the
// process move the figure less than a whole-run ratio would.
constexpr std::size_t kRateWindows = 20;
double windowed_rate(const Inputs& in, const MeasuredRun& run) {
  const std::size_t n = std::min(run.visible_s.size(), run.epoch_block.size());
  const std::size_t windows = std::min(kRateWindows, n);
  std::vector<double> rates;
  double start = 0.0;
  std::size_t epoch = 0;
  for (std::size_t w = 1; w <= windows; ++w) {
    const std::size_t end = n * w / windows;
    double records = 0.0;
    for (; epoch < end; ++epoch) {
      records += static_cast<double>(in.blocks[run.epoch_block[epoch]].records);
    }
    const double stop = run.visible_s[end - 1];
    if (stop > start) rates.push_back(records / (stop - start));
    start = stop;
  }
  return median(rates);
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse(argc, argv, args)) {
    std::cerr << "usage: " << argv[0]
              << " --workload <passive_ingest|fleet_incident|wire_ingest> --seed <n>"
                 " --seconds <s> --trace <0|1> [--spans-dir DIR]\n";
    return 2;
  }
  mallopt(M_MMAP_THRESHOLD, kMmapThresholdBytes);
  try {
    Inputs in = args.workload == "passive_ingest" ? make_passive_ingest(args.seed)
                : args.workload == "fleet_incident"
                    ? make_fleet_incident(args.seed, args.seconds)
                    : make_wire_ingest(args.seed, args.seconds);
    const MeasuredRun run = measure(in, args.seconds);
    Outcome out = check(in, run);
    const bool open_loop = !in.timeline.empty();
    if (open_loop && run.generator_lag_max_s > kLagBoundS) {
      out.problem("generator ran " + std::to_string(run.generator_lag_max_s * 1e3) +
                  " ms behind schedule (bound " + std::to_string(kLagBoundS * 1e3) +
                  " ms): the offered load was not met");
    }

    const double mrec = static_cast<double>(run.records) / 1e6;
    const double epochs = static_cast<double>(run.epochs.size());
    std::cout << args.workload << " seed " << args.seed << ": " << run.epochs.size()
              << " epochs of " << in.blocks.size() << " distinct, " << run.records << " records, " << run.datagrams
              << " datagrams in " << run.wall_s << " s; generator lag max "
              << run.generator_lag_max_s * 1e3 << " ms; naive max rel error "
              << out.naive_max_rel_error << ", max addition gain " << out.naive_max_gain
              << "\n";

    std::vector<Metric> metrics;
    if (!args.trace) {
      metrics = {
          {"records_per_s", windowed_rate(in, run), "records/s"},
          {"verdict_p50_ms", windowed_quantile(run.verdict_latency_s, 0.5) * 1e3, "ms"},
          {"verdict_p90_ms", windowed_quantile(run.verdict_latency_s, 0.9) * 1e3, "ms"},
          {"cpu_s_per_mrec", (run.process_cpu_s - run.generator_cpu_s) / mrec, "s/Mrec"},
          {"setup_s", median(run.setup_seconds), "s"},
      };
    } else {
      TracedRun traced =
          trace_run(in, run, in.injected.empty() ? kMaxTracedEpochs : run.epochs.size());
      for (std::size_t e = 0; e < traced.epochs; ++e) {
        if (e >= traced.results.size() || !same_diagnosis(traced.results[e], run.epochs[e])) {
          out.problem("traced epoch " + std::to_string(e) + " differs from the measured run");
          break;
        }
      }
      if (traced.epochs == run.epochs.size() && !in.injected.empty()) {
        bool same = traced.verdicts.size() == run.verdicts.size();
        for (std::size_t i = 0; same && i < traced.verdicts.size(); ++i) {
          same = traced.verdicts[i].component == run.verdicts[i].component &&
                 traced.verdicts[i].state == run.verdicts[i].state;
        }
        if (!same) out.problem("traced run's temporal verdicts differ from the measured run");
      }
      std::filesystem::create_directories(args.spans_dir);
      const std::string path = args.spans_dir + "/" + args.workload + ".jsonl";
      if (!traced.tracer.write_jsonl(path)) out.problem("cannot write spans to " + path);

      const auto self = traced.tracer.self_seconds();
      auto self_of = [&](const char* name) {
        const auto it = self.find(name);
        return it == self.end() ? 0.0 : it->second;
      };
      double layer_self = 0.0;
      for (const auto& [name, secs] : self) {
        if (name != "epoch") layer_self += secs;
      }
      const double traced_records = static_cast<double>(traced.records);
      const double traced_epochs = static_cast<double>(traced.epochs);
      const auto localize = traced.tracer.durations("FlockLocalizer::localize");
      std::vector<double> close_to_merge, pre_close, max_shard;
      for (std::size_t k = 0; k < run.epochs.size(); ++k) {
        close_to_merge.push_back(run.epochs[k].close_to_merge_seconds);
        max_shard.push_back(run.epochs[k].max_shard_localize_seconds);
        if (k < run.verdict_latency_s.size()) {
          pre_close.push_back(run.verdict_latency_s[k] - run.epochs[k].close_to_merge_seconds);
        }
      }
      std::uint64_t hypotheses = 0;
      for (const EpochResult& r : run.epochs) hypotheses += static_cast<std::uint64_t>(r.hypotheses_scanned);
      std::uint64_t unresolved = 0;
      for (const EpochResult& r : run.epochs) unresolved += r.unresolved;
      const PipelineStats& s = run.stats;
      metrics = {
          {"net.datagrams_received", static_cast<double>(run.net.datagrams_received), "count"},
          {"net.receive_cpu_ns_per_datagram", run.receive_cpu_ns_per_datagram, "ns"},
          {"net.send_to_offer_us_p50", quantile(run.send_to_offer_s, 0.5) * 1e6, "us"},
          {"net.quarantined", static_cast<double>(run.net.quarantined()), "count"},
          {"net.admission_drops", static_cast<double>(run.net.admission_drops), "count"},
          {"net.offer_rejected", static_cast<double>(run.net.offer_rejected), "count"},
          {"telemetry.decode_ns_per_record", per(self_of("Collector::ingest") * 1e9, traced_records), "ns"},
          {"telemetry.join_ns_per_record", per(self_of("Collector::drain_into_input") * 1e9, traced_records), "ns"},
          {"telemetry.unresolved_records", static_cast<double>(unresolved), "count"},
          {"topology.router_warm_ms", self_of("EcmpRouter::build_all_tor_pairs") * 1e3, "ms"},
          {"topology.classes_ms", self_of("ecmp_equivalence_classes") * 1e3, "ms"},
          {"topology.path_sets_interned_during_run", static_cast<double>(run.path_sets_at_end - run.path_sets_at_start), "count"},
          {"topology.router_read_retries", static_cast<double>(s.router_read_retries), "count"},
          {"core.localize_ms_p50", quantile(localize, 0.5) * 1e3, "ms"},
          {"core.localize_ms_p90", quantile(localize, 0.9) * 1e3, "ms"},
          {"core.rows_per_observation", per(static_cast<double>(s.inference_rows), static_cast<double>(s.inference_observations)), "ratio"},
          {"core.hypotheses_scanned_per_epoch", per(static_cast<double>(hypotheses), epochs), "count"},
          {"core.memo_hits_per_epoch", per(static_cast<double>(s.memo_hits), epochs), "count"},
          {"pipeline.close_to_merge_ms_p50", quantile(close_to_merge, 0.5) * 1e3, "ms"},
          {"pipeline.pre_close_ms_p50", quantile(pre_close, 0.5) * 1e3, "ms"},
          {"pipeline.ingest_depth_max", static_cast<double>(run.ingest_depth_max), "count"},
          {"pipeline.max_shard_localize_ms_p50", quantile(max_shard, 0.5) * 1e3, "ms"},
          {"pipeline.sink_merge_us_per_epoch", per(self_of("ResultSink::add") * 1e6, traced_epochs), "us"},
          {"pipeline.tracker_apply_us_per_epoch", per(self_of("TemporalTracker::observe") * 1e6, traced_epochs), "us"},
          {"pipeline.stolen_per_dispatched", per(static_cast<double>(s.datagrams_stolen), static_cast<double>(s.dispatched)), "ratio"},
          {"pipeline.steal_hit_ratio", per(static_cast<double>(s.batches_stolen), static_cast<double>(s.steal_attempts)), "ratio"},
          {"pipeline.arena_reuses_per_epoch", per(static_cast<double>(s.arena_reuses), epochs), "count"},
          {"pipeline.priority_reorders", static_cast<double>(s.priority_reorders), "count"},
          {"pipeline.epochs_closed", static_cast<double>(s.epochs_closed), "count"},
          {"process.peak_rss_mb", run.rss_peak_mb - run.rss_baseline_mb, "MB"},
          {"process.involuntary_ctx_switches", static_cast<double>(run.involuntary_ctx_switches), "count"},
          {"generator.lag_ms_max", run.generator_lag_max_s * 1e3, "ms"},
          {"generator.cpu_s", run.generator_cpu_s, "s"},
          {"trace.self_s_per_mrec", per(layer_self, traced_records / 1e6), "s/Mrec"},
      };
      std::cout << "traced " << traced.epochs << " epochs, " << traced.tracer.size()
                << " spans -> " << path << "\n";
    }
    std::cout << result_json(out.correct, out.attempted, out.failed, metrics) << std::endl;
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
