// bench.cpp - report rendering, percentiles, rusage probes and the
// per-layer metric table.
#include "bench.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <ostream>
#include <stdexcept>
#include <thread>

namespace pb {

namespace {

std::string json_number(double v) {
  if (!std::isfinite(v)) throw std::runtime_error("non-finite metric value");
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

/// name, unit - the per-layer table, in print order (see perfbench/README.md
/// for which end-to-end metric each should move, on which workload).
constexpr std::pair<const char*, const char*> kLayerTable[] = {
    {"exec.steals_per_op", "count"},
    {"exec.cache_hit_ratio", "ratio"},
    {"exec.parks_per_op", "count"},
    {"exec.wakes_per_op", "count"},
    {"sta.tasks_per_op", "count"},
    {"adm.admitted", "count"},
    {"adm.rejected", "count"},
    {"adm.shed", "count"},
    {"exec.busy_ratio", "ratio"},
    {"exec.body_us_per_op", "us"},
    {"exec.gap_ns_per_task", "ns"},
    {"topo.start_us", "us"},
    {"topo.finish_us", "us"},
    {"graph.build_ns_per_task", "ns"},
    {"adm.submit_us_p50", "us"},
    {"adm.submit_us_p90", "us"},
    {"svc.queue_us", "us"},
    {"svc.pipeline_us", "us"},
    {"svc.handler_us", "us"},
    {"svc.tasks_per_req", "count"},
    {"ref.seq_ms_per_op", "ms"},
    {"trace.overhead_pct", "%"},
};

}  // namespace

void Report::metric(const std::string& name, double value, const std::string& unit) {
  _metrics.emplace_back(name, "{\"value\": " + json_number(value) +
                                  ", \"unit\": " + json_string(unit) + "}");
}

void Report::detail(const std::string& key, double value) {
  _details.emplace_back(key, json_number(value));
}

void Report::detail(const std::string& key, const std::string& value) {
  _details.emplace_back(key, json_string(value));
}

void Report::print(std::ostream& os) const {
  auto object = [](const std::vector<std::pair<std::string, std::string>>& kv) {
    std::string s = "{";
    for (std::size_t i = 0; i < kv.size(); ++i) {
      if (i != 0) s += ", ";
      s += json_string(kv[i].first) + ": " + kv[i].second;
    }
    return s + "}";
  };
  os << "{\"detail\": " << object(_details) << "}\n";
  os << "{\"correct\": " << (correct ? "true" : "false") << ", \"attempted\": " << attempted
     << ", \"failed\": " << failed << ", \"metrics\": " << object(_metrics) << "}"
     << std::endl;
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) throw std::runtime_error("percentile of an empty sample");
  const auto n = static_cast<double>(v.size());
  auto rank = static_cast<std::size_t>(std::ceil(q * n));
  rank = std::clamp<std::size_t>(rank, 1, v.size());
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(rank - 1), v.end());
  return v[rank - 1];
}

double cpu_ms() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto ms = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1e3 + static_cast<double>(tv.tv_usec) / 1e3;
  };
  return ms(ru.ru_utime) + ms(ru.ru_stime);
}

double peak_rss_mib() {
  // VmHWM, not getrusage's ru_maxrss: Linux carries ru_maxrss over from the
  // parent across fork + exec, so a launcher's own footprint (a Python
  // wrapper's ~14 MiB) would set the floor of the reading.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // kB
  }
  throw std::runtime_error("VmHWM not found in /proc/self/status");
}

void BlockClock::start() {
  _wall.clear();
  _cpu.clear();
  stamp();
}

void BlockClock::stamp() {
  _wall.push_back(now_ns());
  _cpu.push_back(cpu_ms());
}

double BlockClock::block_ops(std::size_t b) const {
  return static_cast<double>((b + 1) * _ops / _blocks - b * _ops / _blocks);
}

double BlockClock::ops_per_s() const {
  std::vector<double> rates;
  for (std::size_t b = 0; b + 1 < _wall.size(); ++b) {
    rates.push_back(block_ops(b) / (static_cast<double>(_wall[b + 1] - _wall[b]) / 1e9));
  }
  return median(rates);
}

double BlockClock::cpu_ms_per_op() const {
  std::vector<double> per_op;
  for (std::size_t b = 0; b + 1 < _cpu.size(); ++b) {
    per_op.push_back((_cpu[b + 1] - _cpu[b]) / block_ops(b));
  }
  return median(per_op);
}

double BlockClock::wall_s() const {
  return static_cast<double>(_wall.back() - _wall.front()) / 1e9;
}

std::size_t op_count(const Options& o, double rate_per_s) {
  const auto n = static_cast<std::size_t>(rate_per_s * static_cast<double>(o.seconds));
  return std::max<std::size_t>(n, 1000);
}

std::size_t workers_for(std::size_t wanted, std::size_t other_threads) {
  const std::size_t cpus = std::max(1u, std::thread::hardware_concurrency());
  const std::size_t room = cpus > other_threads ? cpus - other_threads : 1;
  return std::max<std::size_t>(1, std::min(wanted, room));
}

void report_latency(Report& r, const std::vector<double>& ms) {
  r.metric("p50_ms", percentile(ms, 0.50), "ms");
  r.metric("p90_ms", percentile(ms, 0.90), "ms");
  r.metric("p99_ms", percentile(ms, 0.99), "ms");
  r.detail("latency_samples", static_cast<double>(ms.size()));
}

void LayerMetrics::set(const std::string& name, double value) {
  const bool known = std::any_of(std::begin(kLayerTable), std::end(kLayerTable),
                                 [&](const auto& e) { return name == e.first; });
  if (!known) throw std::logic_error("unknown per-layer metric " + name);
  _values.emplace_back(name, value);
}

void LayerMetrics::emit(Report& r) const {
  for (const auto& [name, unit] : kLayerTable) {
    double value = 0.0;
    for (const auto& [n, v] : _values) {
      if (n == name) value = v;
    }
    r.metric(name, value, unit);
  }
}

}  // namespace pb
