// Measurement helpers of the end-to-end benchmark: clocks, process
// counters, order statistics, the span tracer of the traced run, and the
// one-line JSON result.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

// CPU time (user + sys) of the calling thread and of the whole process.
double thread_cpu_s();
double process_cpu_s();
// Resident set size now, from /proc/self/statm.
double rss_mb();
// Involuntary context switches of the whole process so far.
std::int64_t involuntary_ctx_switches();
// Return freed heap pages to the OS so a later RSS reading starts clean.
void release_free_memory();

// Linear-interpolation quantile (q in [0, 1]); 0 for an empty sample.
double quantile(std::vector<double> values, double q);
double median(std::vector<double> values);

// Spans of the traced run. Single-threaded by construction: the traced run
// drives every layer synchronously from one thread, so spans nest strictly
// and a stack gives each span its parent.
class Tracer {
 public:
  Tracer();

  // Open a span; returns its id. `epoch` and `shard` are -1 where they do
  // not apply (set-up spans).
  std::int32_t begin(const char* name, std::int64_t epoch, std::int32_t shard);
  void end(std::int32_t id);

  template <typename F>
  auto span(const char* name, std::int64_t epoch, std::int32_t shard, F&& body) {
    struct Closer {
      Tracer* tracer;
      std::int32_t id;
      ~Closer() { tracer->end(id); }
    } closer{this, begin(name, epoch, shard)};
    return body();
  }

  // Summed self time (duration minus the time direct children cover) and
  // summed duration per span name, in seconds.
  std::map<std::string, double> self_seconds() const;
  // Durations (seconds) of every span with this name.
  std::vector<double> durations(const std::string& name) const;

  // One JSON object per line: id, parent, name, epoch, shard, start/end ns.
  bool write_jsonl(const std::string& path) const;
  std::size_t size() const { return spans_.size(); }

 private:
  struct Span {
    const char* name;
    std::int64_t epoch;
    std::int32_t shard;
    std::int32_t parent;
    std::int64_t start_ns;
    std::int64_t end_ns;
  };
  std::int64_t now_ns() const;

  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<std::int32_t> open_;
};

// A named metric with its unit, in the order it is printed.
struct Metric {
  std::string name;
  double value;
  std::string unit;
};

// The last line of the benchmark's output.
std::string result_json(bool correct, std::uint64_t attempted, std::uint64_t failed,
                        const std::vector<Metric>& metrics);

}  // namespace perfbench
