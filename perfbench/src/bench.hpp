// bench.hpp - shared pieces of the perfbench binary: command-line options,
// the report printed as the result line, exact percentiles, and the process
// CPU / RSS probes.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

namespace pb {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline std::int64_t now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// Set-up is repeated this many times per run and reported as the median;
/// the last repetition is the one the timed phase uses.
inline constexpr int kSetupReps = 5;

struct Options {
  std::string workload;
  std::uint64_t seed{1};
  int seconds{10};
  bool trace{false};
  std::string chrome_trace;  // optional Chrome-trace dump of the traced phase
};

/// One run's result: the contract line (correct / attempted / failed /
/// metrics) plus a free-form detail line printed just before it.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  void detail(const std::string& key, double value);
  void detail(const std::string& key, const std::string& value);

  /// Print the detail line, then the result line (always last).
  void print(std::ostream& os) const;

  bool correct{true};
  std::uint64_t attempted{0};
  std::uint64_t failed{0};

 private:
  std::vector<std::pair<std::string, std::string>> _metrics;  // name -> JSON
  std::vector<std::pair<std::string, std::string>> _details;
};

/// Nearest-rank percentile (q in (0, 1]): with n samples, ceil(q*n)-1 is the
/// index, so p99 of 1000 samples leaves exactly 10 above it.
[[nodiscard]] double percentile(std::vector<double> v, double q);
[[nodiscard]] inline double median(std::vector<double> v) {
  return percentile(std::move(v), 0.5);
}

/// Process CPU time (user + sys, all threads) in milliseconds.
[[nodiscard]] double cpu_ms();
/// Peak resident set size of the process in MiB.
[[nodiscard]] double peak_rss_mib();

/// Wall and CPU stamps at the ends of equal blocks of a timed phase's ops.
/// ops_per_s and cpu_ms_per_op are medians over the blocks, so a burst of
/// host noise (a neighbour's load, hypervisor steal) that spans a few blocks
/// does not move them; every block is still fixed work timed by wall clock.
class BlockClock {
 public:
  static constexpr std::size_t kBlocks = 20;

  explicit BlockClock(std::size_t ops) : _ops(ops), _blocks(std::min(kBlocks, ops)) {}
  /// Call right before the first op.
  void start();
  /// Call after op `k` (0-based) completed.
  void op_done(std::size_t k) {
    if (_wall.size() < _blocks && k + 1 == _wall.size() * _ops / _blocks) stamp();
  }
  /// Call once after the last op completed (ends the last block).
  void finish() { stamp(); }

  [[nodiscard]] double ops_per_s() const;      // median block rate
  [[nodiscard]] double cpu_ms_per_op() const;  // median block CPU per op
  [[nodiscard]] double wall_s() const;         // whole phase

 private:
  void stamp();
  [[nodiscard]] double block_ops(std::size_t b) const;

  std::size_t _ops;
  std::size_t _blocks;
  std::vector<std::int64_t> _wall;
  std::vector<double> _cpu;
};

/// Fixed op count of a timed phase: `rate_per_s` x seconds, never below
/// 1000 so p99 always has at least 10 samples beyond it.
[[nodiscard]] std::size_t op_count(const Options& o, double rate_per_s);

/// Worker count for a workload: `wanted`, capped so workers plus the
/// benchmark's own runnable threads never exceed the host's CPUs.
[[nodiscard]] std::size_t workers_for(std::size_t wanted, std::size_t other_threads);

/// p50 / p90 / p99 of per-op latencies (ms) plus their sample count.
void report_latency(Report& r, const std::vector<double>& ms);

/// Per-layer metrics of a traced run.  Every name in the fixed table is
/// printed; a layer a workload does not exercise reads 0.
class LayerMetrics {
 public:
  void set(const std::string& name, double value);
  void emit(Report& r) const;

 private:
  std::vector<std::pair<std::string, double>> _values;
};

Report run_wavefront(const Options& o);
Report run_sta_incr(const Options& o);
Report run_svc_closed(const Options& o);

}  // namespace pb
