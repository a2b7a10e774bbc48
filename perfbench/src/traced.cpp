// The traced run: the same epochs as the measured run, pushed through the
// same layers one public call at a time from a single thread, with a span
// around every call. Its diagnoses must equal the measured run's, so the
// per-layer times it reports are for the same work.
#include <memory>

#include "bench.h"
#include "common/stopwatch.h"
#include "core/flock_localizer.h"
#include "pipeline/result_sink.h"
#include "pipeline/temporal_tracker.h"
#include "telemetry/collector.h"

namespace perfbench {

using namespace flock;

TracedRun trace_run(const Inputs& in, const MeasuredRun& measured, std::size_t max_epochs) {
  TracedRun run;
  Tracer& tr = run.tracer;
  const PipelineConfig config = pipeline_config(in);
  const Topology topo = in.make_topology();

  auto router = tr.span("EcmpRouter::build_all_tor_pairs", -1, -1, [&] {
    auto r = std::make_unique<EcmpRouter>(topo);
    r->build_all_tor_pairs();
    return r;
  });
  std::vector<std::vector<ComponentId>> classes;
  if (config.merge_equivalence_classes) {
    classes = tr.span("ecmp_equivalence_classes", -1, -1,
                      [&] { return ecmp_equivalence_classes(*router); });
  }
  TemporalTracker tracker(config.temporal);
  if (config.merge_equivalence_classes) tracker.set_equivalence_classes(classes);
  ResultSink sink(config.num_shards, classes, [&](const EpochResult& epoch) {
    tr.span("TemporalTracker::observe", static_cast<std::int64_t>(epoch.epoch), -1, [&] {
      tracker.observe(epoch);
      return 0;
    });
  });
  FlockOptions options = config.localizer;
  options.localize_threads = config.localize_threads;
  const FlockLocalizer localizer(options);

  run.epochs = std::min(max_epochs, measured.epoch_block.size());
  for (std::size_t e = 0; e < run.epochs; ++e) {
    const auto epoch = static_cast<std::int64_t>(e);
    if (!in.probe_pairs.empty() && e == in.probe_start_epoch) {
      tr.span("EcmpRouter::path_set_between", epoch, -1, [&] {
        for (const auto& [src, dst] : in.probe_pairs) router->path_set_between(src, dst);
        return 0;
      });
    }
    const Block& block = in.blocks[measured.epoch_block[e]];
    run.records += block.records;
    tr.span("epoch", epoch, -1, [&] {
      for (std::int32_t shard = 0; shard < config.num_shards; ++shard) {
        Collector collector(topo, *router, config.collector);
        for (std::uint32_t d : block.datagrams) {
          const GenDatagram& g = in.datagrams[d];
          if (shard_of(topo, g.source_addr, config.num_shards) != shard) continue;
          tr.span("Collector::ingest", epoch, shard, [&] { return collector.ingest(g.bytes); });
        }
        InferenceInput input = tr.span("Collector::drain_into_input", epoch, shard,
                                       [&] { return collector.drain_into_input(); });
        LocalizationResult result;
        if (input.num_flows() > 0) {
          result = tr.span("FlockLocalizer::localize", epoch, shard,
                           [&] { return localizer.localize(input); });
        }
        EpochSnapshot snapshot{e, shard, std::move(input), collector.unresolved_records(),
                               Stopwatch{}, 0};
        tr.span("ResultSink::add", epoch, shard, [&] {
          sink.add(snapshot, result);
          return 0;
        });
      }
      return 0;
    });
  }
  run.results = sink.completed();
  run.verdicts = tracker.verdicts();
  return run;
}

}  // namespace perfbench
