// wavefront.cpp - paper Fig. 7 wavefront: a 128x128 grid of ~1 us cells,
// cell (i,j) depending on (i-1,j) and (i,j-1), built once as a tf::Taskflow
// and re-run with Executor::run(tf).get().  After set-up the executor
// (release, per-worker cache, deque, steals, park/wake) does nearly all the
// work; graph construction and admission do none.
#include <array>
#include <atomic>
#include <memory>

#include "bench.hpp"
#include "support/rng.hpp"
#include "taskflow/taskflow.hpp"
#include "trace.hpp"

namespace pb {

namespace {

constexpr std::size_t kSide = 128;
constexpr std::size_t kCells = kSide * kSide;
constexpr double kNominalRate = 160.0;  // ops/s that sizes the fixed op count
constexpr int kWarmupRuns = 20;
// Seeded per-cell jitter of the dependent integer chain: ~1 us on average.
constexpr std::uint32_t kItersLo = 200;
constexpr std::uint32_t kItersHi = 600;
constexpr std::size_t kSpanBudget = std::size_t{1} << 21;

std::uint64_t cell_value(std::uint64_t up, std::uint64_t left, std::uint32_t iters) {
  std::uint64_t x = up ^ (left * 0x9E3779B97F4A7C15ULL);
  for (std::uint32_t i = 0; i < iters; ++i) {
    x ^= x >> 29;
    x *= 0xBF58476D1CE4E5B9ULL;
    x += i;
  }
  return x;
}

struct Wavefront {
  std::vector<std::uint32_t> iters;  // seeded inputs
  std::array<std::uint64_t, 2> salt{};
  std::array<std::uint64_t, 2> ref{};  // last cell per salt (sequential)
  std::vector<std::uint64_t> cells;
  std::uint64_t salt_now{0};
  std::uint64_t runs{0};  // runs so far; parity picks the salt
  std::unique_ptr<tf::Executor> executor;
  tf::Taskflow taskflow;
  double build_ns_per_task{0};
  double seq_ms{0};

  void compute(std::size_t i, std::size_t j) {
    const std::uint64_t up = i > 0 ? cells[(i - 1) * kSide + j] : salt_now;
    const std::uint64_t left = j > 0 ? cells[i * kSide + j - 1] : ~salt_now;
    cells[i * kSide + j] = cell_value(up, left, iters[i * kSide + j]);
  }
};

struct Phase {
  std::vector<double> lat_ms;
  std::vector<double> submit_us;
  std::vector<std::int64_t> start_ns;
  std::vector<std::int64_t> end_ns;
  BlockClock clock;
  std::uint64_t failed{0};

  explicit Phase(std::size_t ops) : clock(ops) {}
};

/// One op: alternate the salt so a run that did not recompute every cell
/// leaves the other salt's value behind and fails the check.
bool run_op(Wavefront& w, Phase* ph) {
  const std::size_t parity = w.runs++ & 1;
  w.salt_now = w.salt[parity];
  const std::int64_t t0 = now_ns();
  tf::ExecutionHandle handle = w.executor->run(w.taskflow);
  const std::int64_t t1 = now_ns();
  handle.get();
  const std::int64_t t2 = now_ns();
  if (ph != nullptr) {
    ph->lat_ms.push_back(static_cast<double>(t2 - t0) / 1e6);
    ph->submit_us.push_back(static_cast<double>(t1 - t0) / 1e3);
    ph->start_ns.push_back(t0);
    ph->end_ns.push_back(t2);
  }
  return w.cells.back() == w.ref[parity];
}

std::unique_ptr<Wavefront> set_up(const Options& o, std::size_t workers, bool& ok) {
  auto w = std::make_unique<Wavefront>();
  support::Xoshiro256 rng(o.seed);
  w->iters.resize(kCells);
  for (auto& it : w->iters) it = kItersLo + static_cast<std::uint32_t>(rng.below(kItersHi - kItersLo + 1));
  w->salt = {rng(), rng()};
  w->cells.assign(kCells, 0);

  double seq_ns = 0;
  for (std::size_t s = 0; s < 2; ++s) {
    w->salt_now = w->salt[s];
    const std::int64_t t0 = now_ns();
    for (std::size_t i = 0; i < kSide; ++i) {
      for (std::size_t j = 0; j < kSide; ++j) w->compute(i, j);
    }
    seq_ns += static_cast<double>(now_ns() - t0);
    w->ref[s] = w->cells.back();
  }
  w->seq_ms = seq_ns / 2 / 1e6;

  w->executor = std::make_unique<tf::Executor>(workers);

  const std::int64_t b0 = now_ns();
  std::vector<tf::Task> tasks(kCells);
  Wavefront* wp = w.get();
  for (std::size_t i = 0; i < kSide; ++i) {
    for (std::size_t j = 0; j < kSide; ++j) {
      tasks[i * kSide + j] = w->taskflow.emplace([wp, i, j] { wp->compute(i, j); });
    }
  }
  for (std::size_t i = 0; i < kSide; ++i) {
    for (std::size_t j = 0; j < kSide; ++j) {
      if (i + 1 < kSide) tasks[i * kSide + j].precede(tasks[(i + 1) * kSide + j]);
      if (j + 1 < kSide) tasks[i * kSide + j].precede(tasks[i * kSide + j + 1]);
    }
  }
  w->build_ns_per_task = static_cast<double>(now_ns() - b0) / static_cast<double>(kCells);

  for (int k = 0; k < kWarmupRuns; ++k) ok = run_op(*w, nullptr) && ok;
  return w;
}

Phase timed_phase(Wavefront& w, std::size_t ops, std::atomic<std::uint32_t>* op_tag) {
  Phase ph(ops);
  ph.lat_ms.reserve(ops);
  ph.submit_us.reserve(ops);
  ph.start_ns.reserve(ops);
  ph.end_ns.reserve(ops);
  ph.clock.start();
  for (std::size_t k = 0; k < ops; ++k) {
    if (op_tag != nullptr) op_tag->store(static_cast<std::uint32_t>(k), std::memory_order_relaxed);
    bool ok = false;
    try {
      ok = run_op(w, &ph);
    } catch (...) {
      ok = false;
    }
    if (!ok) ++ph.failed;
    ph.clock.op_done(k);
  }
  ph.clock.finish();
  return ph;
}

}  // namespace

Report run_wavefront(const Options& o) {
  Report r;
  const std::size_t workers = workers_for(4, 0);  // the caller blocks in get()
  const std::size_t ops = op_count(o, kNominalRate);

  bool setup_ok = true;
  std::unique_ptr<Wavefront> w;
  std::vector<double> setup_s;
  std::vector<double> build_ns;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    w.reset();
    const std::int64_t t0 = now_ns();
    w = set_up(o, workers, setup_ok);
    setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    build_ns.push_back(w->build_ns_per_task);
  }

  const auto s0 = w->executor->metrics();
  const Phase ph = timed_phase(*w, ops, nullptr);
  const auto s1 = w->executor->metrics();

  r.attempted = ops;
  r.failed = ph.failed;
  r.detail("workers", static_cast<double>(workers));
  r.detail("tasks_per_op", static_cast<double>(kCells));
  r.detail("ops", static_cast<double>(ops));
  r.detail("setup_reps", kSetupReps);
  r.detail("seq_ms_per_op", w->seq_ms);
  r.detail("ops_per_s_whole_phase", static_cast<double>(ops) / ph.clock.wall_s());

  if (!o.trace) {
    r.metric("setup_s", median(setup_s), "s");
    r.metric("ops_per_s", ph.clock.ops_per_s(), "1/s");
    report_latency(r, ph.lat_ms);
    r.metric("cpu_ms_per_op", ph.clock.cpu_ms_per_op(), "ms");
    r.metric("peak_rss_mib", peak_rss_mib(), "MiB");
  } else {
    const std::size_t traced_ops = std::max<std::size_t>(1, std::min(ops, kSpanBudget / kCells));
    std::atomic<std::uint32_t> op_tag{0};
    auto rec = std::make_shared<SpanRecorder>(
        kSpanBudget, [&op_tag](const tf::Node&) {
          return SpanRecorder::Tag{op_tag.load(std::memory_order_relaxed), 0};
        });
    w->executor->set_observer(rec);
    const Phase tp = timed_phase(*w, traced_ops, &op_tag);
    w->executor->set_observer(nullptr);
    r.attempted += traced_ops;
    r.failed += tp.failed;

    const double dops = static_cast<double>(ops);
    const SpanSummary sum = summarize(*rec);
    std::vector<std::int64_t> first, last;
    op_bounds(*rec, traced_ops, first, last);
    std::vector<double> start_us, finish_us;
    for (std::size_t k = 0; k < tp.start_ns.size(); ++k) {  // ops that threw have no stamps
      if (first[k] > last[k]) continue;
      start_us.push_back(static_cast<double>(first[k] - tp.start_ns[k]) / 1e3);
      finish_us.push_back(static_cast<double>(tp.end_ns[k] - last[k]) / 1e3);
    }

    LayerMetrics m;
    m.set("exec.steals_per_op", static_cast<double>(s1.scheduler.steals - s0.scheduler.steals) / dops);
    m.set("exec.cache_hit_ratio", static_cast<double>(s1.scheduler.cache_hits - s0.scheduler.cache_hits) /
                                      (dops * static_cast<double>(kCells)));
    m.set("exec.parks_per_op", static_cast<double>(s1.scheduler.parks - s0.scheduler.parks) / dops);
    m.set("exec.wakes_per_op", static_cast<double>(s1.scheduler.wakes - s0.scheduler.wakes) / dops);
    m.set("adm.admitted", static_cast<double>(s1.admitted - s0.admitted));
    m.set("adm.rejected", static_cast<double>(s1.rejected - s0.rejected));
    m.set("adm.shed", static_cast<double>(s1.shed - s0.shed));
    m.set("exec.busy_ratio", sum.body_ns / (static_cast<double>(workers) * tp.clock.wall_s() * 1e9));
    m.set("exec.body_us_per_op", sum.body_ns / static_cast<double>(traced_ops) / 1e3);
    m.set("exec.gap_ns_per_task", sum.gaps ? sum.gap_ns / static_cast<double>(sum.gaps) : 0.0);
    if (!start_us.empty()) {
      m.set("topo.start_us", median(start_us));
      m.set("topo.finish_us", median(finish_us));
    }
    m.set("graph.build_ns_per_task", median(build_ns));
    m.set("adm.submit_us_p50", percentile(ph.submit_us, 0.5));
    m.set("adm.submit_us_p90", percentile(ph.submit_us, 0.9));
    m.set("ref.seq_ms_per_op", w->seq_ms);
    m.set("trace.overhead_pct", (1.0 - tp.clock.ops_per_s() / ph.clock.ops_per_s()) * 100.0);
    m.emit(r);
    r.detail("traced_ops", static_cast<double>(traced_ops));
    r.detail("spans", static_cast<double>(rec->num_spans()));
    r.detail("spans_dropped", static_cast<double>(rec->dropped()));
    if (!o.chrome_trace.empty()) write_chrome_trace(o.chrome_trace, *rec, {"cell"});
  }
  r.correct = setup_ok && r.failed == 0;
  return r;
}

}  // namespace pb
