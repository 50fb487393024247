// trace.hpp - the traced run's span recorder: an executor observer that
// keeps one span per task invocation in memory (per-worker lanes, reserved
// up front so recording never allocates) and hands them to the workload
// after the run.  Spans of one op share its id; an optional Chrome-trace
// dump writes them out at the end.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "taskflow/observer.hpp"

namespace pb {

class SpanRecorder final : public tf::ExecutorObserverInterface {
 public:
  struct Tag {
    std::uint32_t op{0};     // id shared by every span of one op / request
    std::uint16_t stage{0};  // index into the workload's stage names
  };
  struct Span {
    const tf::Node* node{nullptr};
    std::int64_t begin_ns{0};
    std::int64_t end_ns{0};
    std::uint32_t op{0};
    std::uint16_t stage{0};
    std::uint16_t worker{0};
  };
  /// Called on the worker at task entry; must be cheap and thread-safe.
  using Tagger = std::function<Tag(const tf::Node&)>;

  /// `capacity`: spans kept per worker lane; later spans are counted as
  /// dropped instead of recorded.
  SpanRecorder(std::size_t capacity, Tagger tagger);

  void set_up(std::size_t num_workers) override;
  void on_entry(std::size_t worker_id, const tf::Node& node) override;
  void on_exit(std::size_t worker_id, const tf::Node& node) override;

  // Readers below: call only while no task of the observed executor runs.
  [[nodiscard]] std::size_t num_lanes() const noexcept { return _num_lanes; }
  [[nodiscard]] const std::vector<Span>& lane(std::size_t w) const { return _lanes[w].spans; }
  [[nodiscard]] std::size_t num_spans() const;
  [[nodiscard]] std::size_t dropped() const;
  void clear();

 private:
  struct alignas(64) Lane {
    std::vector<Span> spans;
    Span open{};
    std::size_t dropped{0};
  };
  std::size_t _capacity;
  Tagger _tagger;
  std::unique_ptr<Lane[]> _lanes;
  std::size_t _num_lanes{0};
};

/// Aggregates over every recorded span.
struct SpanSummary {
  double body_ns{0};       // sum of task-body durations
  std::size_t tasks{0};
  double gap_ns{0};        // sum of exit -> next entry on one worker, same op
  std::size_t gaps{0};
};
[[nodiscard]] SpanSummary summarize(const SpanRecorder& rec);

/// Per-op first entry / last exit for ops [0, n) (INT64_MAX / INT64_MIN when
/// an op has no span).
void op_bounds(const SpanRecorder& rec, std::size_t n, std::vector<std::int64_t>& first,
               std::vector<std::int64_t>& last);

/// Chrome-tracing JSON (chrome://tracing, ui.perfetto.dev): one complete
/// event per span, one row per worker, the op id in args.
void write_chrome_trace(const std::string& path, const SpanRecorder& rec,
                        const std::vector<std::string>& stage_names);

}  // namespace pb
