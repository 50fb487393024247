// svc_closed.cpp - tf::Server request path: 2 workers, bounded admission
// (max_pending_per_client = client window = 8), one closed-loop client
// thread, ~20 us busy handlers and no chaos.  The cost measured is the
// per-request framework overhead: four-task pipeline topologies, admission
// and lifecycle.  The pool is lightly loaded and never steals, so the
// scheduler is used unlike in wavefront.  Latency is tf::Response::latency
// (exact ns, admission -> response), never the registry's histogram.
#include <array>
#include <atomic>
#include <memory>
#include <unordered_map>

#include "bench.hpp"
#include "service/server.hpp"
#include "support/rng.hpp"
#include "trace.hpp"

namespace pb {

namespace {

constexpr std::size_t kWindow = 8;
constexpr double kNominalRate = 70000.0;
constexpr std::size_t kWarmupReqs = 512 * kWindow;
constexpr std::int64_t kWorkLoUs = 15;  // seeded handler cost, ~20 us mean
constexpr std::int64_t kWorkHiUs = 25;
constexpr std::size_t kSpanBudget = std::size_t{1} << 21;
constexpr std::uint32_t kNoOp = 0xffffffffu;

enum Stage : std::uint16_t { kTask, kIngest, kValidate, kProcess, kHandle, kRespond, kDegrade };
const std::vector<std::string> kStageNames = {"task",   "ingest",  "validate", "process",
                                              "handle", "respond", "degrade"};

std::uint16_t stage_of(const tf::Node& node) {
  const std::string& name = node.name();
  for (std::size_t i = 1; i < kStageNames.size(); ++i) {
    if (name == kStageNames[i]) return static_cast<std::uint16_t>(i);
  }
  return kTask;
}

struct Svc {
  std::vector<std::uint8_t> work_us;            // seeded, one per request id
  std::vector<std::int64_t> latency_ns;         // by id; -1 = not delivered, -2 = not ok
  std::uint64_t delivered{0};
  std::uint64_t duplicates{0};
  std::unique_ptr<tf::Server> server;
  tf::ServerClient* client{nullptr};
  std::uint64_t next_id{0};

  tf::Request next_request() {
    tf::Request req;
    req.id = next_id;
    req.priority = 1;
    req.work = std::chrono::microseconds(work_us.at(next_id));
    ++next_id;
    return req;
  }

  void on_response(const tf::Response& resp) {
    ++delivered;
    if (resp.id >= latency_ns.size() || latency_ns[resp.id] != -1) {
      ++duplicates;
      return;
    }
    latency_ns[resp.id] = resp.outcome == tf::Outcome::ok ? resp.latency.count() : -2;
  }
};

struct Phase {
  std::uint64_t first_id{0};
  std::size_t reqs{0};
  std::vector<double> submit_us;  // time inside submit(), when stamped
  BlockClock clock;

  explicit Phase(std::size_t ops) : clock(ops) {}
};

std::unique_ptr<Svc> set_up(const Options& o, std::size_t workers, std::size_t total_reqs) {
  auto s = std::make_unique<Svc>();
  support::Xoshiro256 rng(o.seed);
  s->work_us.resize(total_reqs);
  for (auto& w : s->work_us) w = static_cast<std::uint8_t>(rng.range(kWorkLoUs, kWorkHiUs));
  s->latency_ns.assign(total_reqs, -1);

  tf::ServerOptions opt;
  opt.num_workers = workers;
  opt.executor.max_pending_per_client = kWindow;
  opt.client_window = kWindow;
  opt.admission = tf::AdmissionPolicy::block;
  s->server = std::make_unique<tf::Server>(opt);
  s->client = &s->server->connect();
  Svc* sp = s.get();
  s->client->set_response_sink([sp](const tf::Response& r) { sp->on_response(r); });
  for (std::size_t k = 0; k < kWarmupReqs; ++k) s->client->submit(s->next_request());
  s->client->drain();
  return s;
}

Phase timed_phase(Svc& s, std::size_t reqs, bool stamp_submits) {
  Phase ph(reqs);
  ph.first_id = s.next_id;
  ph.reqs = reqs;
  if (stamp_submits) ph.submit_us.reserve(reqs);
  ph.clock.start();
  for (std::size_t k = 0; k < reqs; ++k) {
    const tf::Request req = s.next_request();
    if (stamp_submits) {
      const std::int64_t t0 = now_ns();
      s.client->submit(req);
      ph.submit_us.push_back(static_cast<double>(now_ns() - t0) / 1e3);
    } else {
      s.client->submit(req);
    }
    ph.clock.op_done(k);  // closed loop: submissions pace completions
  }
  s.client->drain();
  ph.clock.finish();
  return ph;
}

/// Latencies (ms) of a phase's requests; counts the ones that failed.
std::vector<double> phase_latencies(const Svc& s, const Phase& ph, std::uint64_t& failed) {
  std::vector<double> ms;
  ms.reserve(ph.reqs);
  for (std::uint64_t id = ph.first_id; id < ph.first_id + ph.reqs; ++id) {
    if (s.latency_ns[id] < 0) {
      ++failed;
    } else {
      ms.push_back(static_cast<double>(s.latency_ns[id]) / 1e6);
    }
  }
  return ms;
}

/// Traced-run attribution.  A client submits round-robin over its window
/// slots, and each slot's pipeline nodes keep their addresses, so nodes are
/// mapped to slots once (one synchronous call per slot, observed alone) and
/// a request's id is then derived from its slot and the slot's ingest count.
class SlotTagger {
 public:
  /// Learn the node -> slot map: request `id` runs on slot id % window.
  bool learn(Svc& s) {
    std::atomic<std::uint32_t> learning_slot{0};
    auto rec = std::make_shared<SpanRecorder>(
        std::size_t{1} << 10, [&learning_slot](const tf::Node& node) {
          return SpanRecorder::Tag{learning_slot.load(std::memory_order_relaxed), stage_of(node)};
        });
    s.server->executor().set_observer(rec);
    for (std::size_t k = 0; k < kWindow; ++k) {
      learning_slot.store(static_cast<std::uint32_t>(s.next_id % kWindow),
                          std::memory_order_relaxed);
      (void)s.client->call(s.next_request());
    }
    s.server->executor().set_observer(nullptr);
    std::array<int, kWindow> ingests{};
    for (std::size_t w = 0; w < rec->num_lanes(); ++w) {
      for (const auto& sp : rec->lane(w)) {
        _nodes[sp.node] = {sp.op, sp.stage};
        if (sp.stage == kIngest) ++ingests[sp.op];
      }
    }
    for (int n : ingests) {
      if (n != 1) return false;
    }
    return true;
  }

  /// Start numbering: the traced phase's first request (op 0) has id
  /// `first_id`.
  void begin(std::uint64_t first_id) {
    _first_slot = static_cast<std::uint32_t>(first_id % kWindow);
    for (auto& c : _count) c.store(0, std::memory_order_relaxed);
  }

  SpanRecorder::Tag operator()(const tf::Node& node) {
    const auto it = _nodes.find(&node);
    if (it == _nodes.end()) return {kNoOp, stage_of(node)};
    const auto [slot, stage] = it->second;
    // Requests of one slot are strictly ordered (the slot is reused only
    // after its previous request was harvested), so the ingest count is the
    // request's rank within the slot.
    if (stage == kIngest) {
      const std::uint32_t rank = _count[slot].fetch_add(1, std::memory_order_relaxed);
      _current[slot].store((slot + kWindow - _first_slot) % kWindow + kWindow * rank,
                           std::memory_order_relaxed);
    }
    return {_current[slot].load(std::memory_order_relaxed), stage};
  }

 private:
  std::unordered_map<const tf::Node*, std::pair<std::uint32_t, std::uint16_t>> _nodes;
  std::uint32_t _first_slot{0};
  std::array<std::atomic<std::uint32_t>, kWindow> _count{};
  std::array<std::atomic<std::uint32_t>, kWindow> _current{};
};

}  // namespace

Report run_svc_closed(const Options& o) {
  Report r;
  const std::size_t workers = workers_for(2, 1);  // + the client thread
  const std::size_t ops = op_count(o, kNominalRate);
  const std::size_t traced = o.trace ? std::min(ops, kSpanBudget / 8) : 0;
  // The benchmark's own per-request buffers are sized to the run, so that
  // peak_rss_mib mostly reflects the server.
  const std::size_t total_reqs = kWarmupReqs + ops + (o.trace ? kWindow + traced : 0);

  std::unique_ptr<Svc> s;
  std::vector<double> setup_s;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    s.reset();
    const std::int64_t t0 = now_ns();
    s = set_up(o, workers, total_reqs);
    setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }

  tf::Executor& exec = s->server->executor();
  const auto s0 = exec.metrics();
  const Phase ph = timed_phase(*s, ops, o.trace);
  const auto s1 = exec.metrics();
  const double rss = peak_rss_mib();

  std::uint64_t failed = 0;
  const std::vector<double> lat_ms = phase_latencies(*s, ph, failed);
  r.attempted = ops;

  LayerMetrics m;
  if (o.trace) {
    SlotTagger tagger;
    const bool learned = tagger.learn(*s);
    auto rec = std::make_shared<SpanRecorder>(
        kSpanBudget, [&tagger](const tf::Node& node) { return tagger(node); });
    tagger.begin(s->next_id);
    exec.set_observer(rec);
    const Phase tp = timed_phase(*s, traced, false);
    exec.set_observer(nullptr);
    (void)phase_latencies(*s, tp, failed);
    r.attempted += traced;

    // Per request: ingest entry, respond entry/exit, from the op-tagged spans.
    std::vector<std::int64_t> ingest(traced, -1), respond_begin(traced, -1), respond_end(traced, -1);
    std::vector<double> handler_us;
    for (std::size_t w = 0; w < rec->num_lanes(); ++w) {
      for (const auto& sp : rec->lane(w)) {
        if (sp.stage == kHandle) handler_us.push_back(static_cast<double>(sp.end_ns - sp.begin_ns) / 1e3);
        if (sp.op >= traced) continue;
        if (sp.stage == kIngest) ingest[sp.op] = sp.begin_ns;
        if (sp.stage == kRespond) {
          respond_begin[sp.op] = sp.begin_ns;
          respond_end[sp.op] = sp.end_ns;
        }
      }
    }
    // Admission instant = response stamp - exact latency; the respond body
    // stamps its completion right after the observer's entry stamp.
    std::vector<double> queue_us, pipeline_us;
    std::size_t unattributed = 0;
    for (std::size_t k = 0; k < traced; ++k) {
      const std::int64_t lat = s->latency_ns[tp.first_id + k];
      if (ingest[k] < 0 || respond_begin[k] < 0 || lat < 0 || respond_begin[k] < ingest[k]) {
        ++unattributed;
        continue;
      }
      queue_us.push_back(static_cast<double>(ingest[k] - (respond_begin[k] - lat)) / 1e3);
      pipeline_us.push_back(static_cast<double>(respond_end[k] - ingest[k]) / 1e3);
    }
    if (!learned || queue_us.empty() || handler_us.empty()) r.correct = false;

    const double dops = static_cast<double>(ops);
    const SpanSummary sum = summarize(*rec);
    const double tasks_per_req = static_cast<double>(sum.tasks) / static_cast<double>(traced);
    m.set("exec.steals_per_op", static_cast<double>(s1.scheduler.steals - s0.scheduler.steals) / dops);
    m.set("exec.cache_hit_ratio",
          static_cast<double>(s1.scheduler.cache_hits - s0.scheduler.cache_hits) / (dops * tasks_per_req));
    m.set("exec.parks_per_op", static_cast<double>(s1.scheduler.parks - s0.scheduler.parks) / dops);
    m.set("exec.wakes_per_op", static_cast<double>(s1.scheduler.wakes - s0.scheduler.wakes) / dops);
    m.set("adm.admitted", static_cast<double>(s1.admitted - s0.admitted));
    m.set("adm.rejected", static_cast<double>(s1.rejected - s0.rejected));
    m.set("adm.shed", static_cast<double>(s1.shed - s0.shed));
    m.set("exec.busy_ratio", sum.body_ns / (static_cast<double>(workers) * tp.clock.wall_s() * 1e9));
    m.set("exec.body_us_per_op", sum.body_ns / static_cast<double>(traced) / 1e3);
    m.set("exec.gap_ns_per_task", sum.gaps ? sum.gap_ns / static_cast<double>(sum.gaps) : 0.0);
    m.set("adm.submit_us_p50", percentile(ph.submit_us, 0.5));
    m.set("adm.submit_us_p90", percentile(ph.submit_us, 0.9));
    if (!queue_us.empty()) {
      m.set("svc.queue_us", median(queue_us));
      m.set("svc.pipeline_us", median(pipeline_us));
    }
    if (!handler_us.empty()) m.set("svc.handler_us", median(handler_us));
    m.set("svc.tasks_per_req", tasks_per_req);
    m.set("trace.overhead_pct",
          (1.0 - tp.clock.ops_per_s() / ph.clock.ops_per_s()) * 100.0);
    r.detail("traced_ops", static_cast<double>(traced));
    r.detail("spans", static_cast<double>(rec->num_spans()));
    r.detail("spans_dropped", static_cast<double>(rec->dropped()));
    r.detail("unattributed_requests", static_cast<double>(unattributed));
    if (!o.chrome_trace.empty()) write_chrome_trace(o.chrome_trace, *rec, kStageNames);
  }

  // Exact accounting: every submitted request yields one ok response, and
  // the executor admitted each one without rejecting or shedding any.
  const tf::MetricsSnapshot snap = s->server->metrics();
  const auto em = exec.metrics();
  const bool accounting_ok = snap.submitted == s->next_id && snap.accounted() == s->next_id &&
                             s->delivered == s->next_id && s->duplicates == 0 &&
                             em.admitted == s->next_id && em.rejected == 0 && em.shed == 0;
  r.failed = failed;
  r.correct = r.correct && accounting_ok && failed == 0;
  r.detail("workers", static_cast<double>(workers));
  r.detail("client_threads", 1);
  r.detail("window", static_cast<double>(kWindow));
  r.detail("ops", static_cast<double>(ops));
  r.detail("setup_reps", kSetupReps);
  r.detail("accounting_ok", accounting_ok ? "true" : "false");
  r.detail("ops_per_s_whole_phase", static_cast<double>(ops) / ph.clock.wall_s());

  if (!o.trace) {
    r.metric("setup_s", median(setup_s), "s");
    r.metric("ops_per_s", ph.clock.ops_per_s(), "1/s");
    report_latency(r, lat_ms);
    r.metric("cpu_ms_per_op", ph.clock.cpu_ms_per_op(), "ms");
    r.metric("peak_rss_mib", rss, "MiB");
  } else {
    m.emit(r);
  }
  return r;
}

}  // namespace pb
