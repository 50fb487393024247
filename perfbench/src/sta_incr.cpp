// sta_incr.cpp - paper Fig. 9 incremental timing: TimerV2 on a ~5.6K-gate
// synthetic design, one op = resize one gate (a seeded ModifierStream pick)
// + worst_slack.  Every op builds a fresh task graph over the affected cone
// with real NLDM bodies, so this workload exercises per-op graph
// construction, topology arm/finish and the timer kernels, where wavefront
// exercises only the scheduler.  The SeqTimer oracle replays the same stream
// after the timed phase, so it never runs beside the workers.
#include <atomic>
#include <cmath>
#include <memory>

#include "bench.hpp"
#include "taskflow/executor.hpp"
#include "timer/modifier.hpp"
#include "timer/timers.hpp"
#include "trace.hpp"

namespace pb {

namespace {

constexpr double kDesignScale = 0.04;  // vga_lcd_spec: 139.5K x 0.04 = 5.58K gates
constexpr double kNominalRate = 100.0;
constexpr std::size_t kWarmupOps = 16;
constexpr std::size_t kSpanBudget = std::size_t{1} << 21;

ot::TimerOptions timer_options(std::size_t workers) {
  ot::TimerOptions opt;
  opt.num_threads = workers;
  opt.clock_period = 2.0;
  return opt;
}

struct Sta {
  ot::CellLibrary lib = ot::CellLibrary::make_synthetic();
  ot::CircuitSpec spec = ot::vga_lcd_spec(kDesignScale);
  std::vector<ot::Modification> mods;  // the seeded stream, generated in set-up
  std::size_t next_mod{0};
  std::vector<double> slack;           // worst slack after each applied mod
  std::unique_ptr<ot::Netlist> netlist;
  std::shared_ptr<tf::WorkStealingExecutor> executor;
  std::unique_ptr<ot::TimerV2> timer;
  double initial_slack{0};
};

struct Phase {
  std::vector<double> lat_ms;
  std::vector<std::int64_t> start_ns;
  std::vector<std::int64_t> resized_ns;  // resize() returned
  std::size_t tasks{0};
  BlockClock clock;

  explicit Phase(std::size_t ops) : clock(ops) {}
};

void apply_next(Sta& s, Phase* ph) {
  const ot::Modification& m = s.mods.at(s.next_mod++);
  const std::int64_t t0 = now_ns();
  s.timer->resize(m.gate, *m.new_cell);
  const std::int64_t t1 = now_ns();
  s.slack.push_back(s.timer->worst_slack());
  const std::int64_t t2 = now_ns();
  if (ph != nullptr) {
    ph->lat_ms.push_back(static_cast<double>(t2 - t0) / 1e6);
    ph->start_ns.push_back(t0);
    ph->resized_ns.push_back(t1);
    ph->tasks += s.timer->last_update_tasks();
  }
}

std::unique_ptr<Sta> set_up(const Options& o, std::size_t workers, std::size_t stream_len) {
  auto s = std::make_unique<Sta>();
  // Input generation: the stream picks a *different* drive variant of each
  // gate's current cell, so it is generated against a scratch copy of the
  // design that tracks the applied resizes.
  {
    ot::Netlist scratch = ot::make_circuit(s->lib, s->spec);
    ot::ModifierStream stream(scratch, o.seed);
    s->mods.reserve(stream_len);
    for (std::size_t k = 0; k < stream_len; ++k) {
      const ot::Modification m = stream.next();
      scratch.resize_gate(m.gate, *m.new_cell);
      s->mods.push_back(m);
    }
  }
  s->slack.reserve(stream_len);
  s->netlist = std::make_unique<ot::Netlist>(ot::make_circuit(s->lib, s->spec));
  s->executor = tf::make_executor(workers);
  s->timer = std::make_unique<ot::TimerV2>(*s->netlist, timer_options(workers), s->executor);
  s->timer->full_update();
  s->initial_slack = s->timer->worst_slack();
  for (std::size_t k = 0; k < kWarmupOps; ++k) apply_next(*s, nullptr);
  return s;
}

Phase timed_phase(Sta& s, std::size_t ops, std::atomic<std::uint32_t>* op_tag) {
  Phase ph(ops);
  ph.lat_ms.reserve(ops);
  ph.start_ns.reserve(ops);
  ph.resized_ns.reserve(ops);
  ph.clock.start();
  for (std::size_t k = 0; k < ops; ++k) {
    if (op_tag != nullptr) op_tag->store(static_cast<std::uint32_t>(k), std::memory_order_relaxed);
    try {
      apply_next(s, &ph);
    } catch (...) {
      s.slack.push_back(std::nan(""));
    }
    ph.clock.op_done(k);
  }
  ph.clock.finish();
  return ph;
}

/// Replay every applied modification on a fresh design with the sequential
/// oracle; returns the number of mismatching worst slacks among
/// [checked_from, end) and the replay time per op in ms.
std::uint64_t replay(const Sta& s, std::size_t workers, std::size_t checked_from,
                     double& seq_ms_per_op, bool& prefix_ok) {
  ot::Netlist nl = ot::make_circuit(s.lib, s.spec);
  ot::SeqTimer seq(nl, timer_options(workers));
  seq.full_update();
  prefix_ok = seq.worst_slack() == s.initial_slack;
  std::uint64_t bad = 0;
  const std::int64_t t0 = now_ns();
  for (std::size_t k = 0; k < s.slack.size(); ++k) {
    seq.resize(s.mods[k].gate, *s.mods[k].new_cell);
    const double want = seq.worst_slack();
    const bool ok = std::abs(want - s.slack[k]) <= 1e-9 * std::max(1.0, std::abs(want));
    if (k < checked_from) {
      prefix_ok = prefix_ok && ok;
    } else if (!ok) {
      ++bad;
    }
  }
  seq_ms_per_op =
      static_cast<double>(now_ns() - t0) / 1e6 / static_cast<double>(s.slack.size());
  return bad;
}

}  // namespace

Report run_sta_incr(const Options& o) {
  Report r;
  const std::size_t workers = workers_for(4, 0);  // the caller blocks in wait_for_all
  const std::size_t ops = op_count(o, kNominalRate);
  // Warm-up, the timed phase, and a traced phase of at most `ops` more.
  const std::size_t stream_len = kWarmupOps + 2 * ops;

  std::unique_ptr<Sta> s;
  std::vector<double> setup_s;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    s.reset();
    const std::int64_t t0 = now_ns();
    s = set_up(o, workers, stream_len);
    setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }

  const auto s0 = s->executor->stats();
  const Phase ph = timed_phase(*s, ops, nullptr);
  const auto s1 = s->executor->stats();
  const double rss = peak_rss_mib();

  Phase tp(0);
  std::shared_ptr<SpanRecorder> rec;
  std::size_t traced_ops = 0;
  if (o.trace) {
    const std::size_t tasks_per_op = std::max<std::size_t>(1, ph.tasks / ops);
    traced_ops = std::max<std::size_t>(1, std::min(ops, kSpanBudget / tasks_per_op));
    std::atomic<std::uint32_t> op_tag{0};
    rec = std::make_shared<SpanRecorder>(kSpanBudget, [&op_tag](const tf::Node&) {
      return SpanRecorder::Tag{op_tag.load(std::memory_order_relaxed), 0};
    });
    s->timer->set_observer(rec);
    tp = timed_phase(*s, traced_ops, &op_tag);
    s->timer->set_observer(nullptr);
  }

  double seq_ms_per_op = 0;
  bool prefix_ok = false;
  const std::uint64_t bad = replay(*s, workers, kWarmupOps, seq_ms_per_op, prefix_ok);
  // An op fails when it threw or its slack disagrees with the oracle; a
  // throwing op records a NaN slack, so `bad` counts it too.
  r.attempted = ops + traced_ops;
  r.failed = bad;
  r.correct = prefix_ok && bad == 0;

  r.detail("workers", static_cast<double>(workers));
  r.detail("gates", static_cast<double>(s->netlist->num_gates()));
  r.detail("ops", static_cast<double>(ops));
  r.detail("setup_reps", kSetupReps);
  r.detail("tasks_per_op", static_cast<double>(ph.tasks) / static_cast<double>(ops));
  r.detail("seq_ms_per_op", seq_ms_per_op);
  r.detail("ops_per_s_whole_phase", static_cast<double>(ops) / ph.clock.wall_s());

  const double dops = static_cast<double>(ops);
  if (!o.trace) {
    r.metric("setup_s", median(setup_s), "s");
    r.metric("ops_per_s", ph.clock.ops_per_s(), "1/s");
    report_latency(r, ph.lat_ms);
    r.metric("cpu_ms_per_op", ph.clock.cpu_ms_per_op(), "ms");
    r.metric("peak_rss_mib", rss, "MiB");
    return r;
  }

  const SpanSummary sum = summarize(*rec);
  std::vector<std::int64_t> first, last;
  op_bounds(*rec, traced_ops, first, last);
  std::vector<double> start_us, finish_us;
  for (std::size_t k = 0; k < tp.start_ns.size(); ++k) {  // ops that threw have no stamps
    if (first[k] > last[k]) continue;  // an op whose cone was empty
    start_us.push_back(static_cast<double>(first[k] - tp.start_ns[k]) / 1e3);
    finish_us.push_back(static_cast<double>(tp.resized_ns[k] - last[k]) / 1e3);
  }
  LayerMetrics m;
  m.set("exec.steals_per_op", static_cast<double>(s1.steals - s0.steals) / dops);
  m.set("exec.cache_hit_ratio",
        static_cast<double>(s1.cache_hits - s0.cache_hits) / static_cast<double>(ph.tasks));
  m.set("exec.parks_per_op", static_cast<double>(s1.parks - s0.parks) / dops);
  m.set("exec.wakes_per_op", static_cast<double>(s1.wakes - s0.wakes) / dops);
  m.set("sta.tasks_per_op", static_cast<double>(ph.tasks) / dops);
  m.set("exec.busy_ratio", sum.body_ns / (static_cast<double>(workers) * tp.clock.wall_s() * 1e9));
  m.set("exec.body_us_per_op", sum.body_ns / static_cast<double>(traced_ops) / 1e3);
  m.set("exec.gap_ns_per_task", sum.gaps ? sum.gap_ns / static_cast<double>(sum.gaps) : 0.0);
  if (!start_us.empty()) {
    m.set("topo.start_us", median(start_us));
    m.set("topo.finish_us", median(finish_us));
  }
  m.set("ref.seq_ms_per_op", seq_ms_per_op);
  m.set("trace.overhead_pct",
        (1.0 - tp.clock.ops_per_s() / ph.clock.ops_per_s()) * 100.0);
  m.emit(r);
  r.detail("traced_ops", static_cast<double>(traced_ops));
  r.detail("spans", static_cast<double>(rec->num_spans()));
  r.detail("spans_dropped", static_cast<double>(rec->dropped()));
  if (!o.chrome_trace.empty()) write_chrome_trace(o.chrome_trace, *rec, {"pin"});
  return r;
}

}  // namespace pb
