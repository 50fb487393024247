// trace.cpp - span recording and the aggregates the traced run reports.
#include "trace.hpp"

#include <algorithm>
#include <fstream>
#include <limits>
#include <stdexcept>

#include "bench.hpp"

namespace pb {

SpanRecorder::SpanRecorder(std::size_t capacity, Tagger tagger)
    : _capacity(capacity), _tagger(std::move(tagger)) {}

void SpanRecorder::set_up(std::size_t num_workers) {
  _lanes = std::make_unique<Lane[]>(num_workers);
  _num_lanes = num_workers;
  for (std::size_t w = 0; w < num_workers; ++w) _lanes[w].spans.reserve(_capacity);
}

void SpanRecorder::on_entry(std::size_t worker_id, const tf::Node& node) {
  Lane& lane = _lanes[worker_id];
  const Tag tag = _tagger(node);
  lane.open.node = &node;
  lane.open.op = tag.op;
  lane.open.stage = tag.stage;
  lane.open.worker = static_cast<std::uint16_t>(worker_id);
  lane.open.begin_ns = now_ns();
}

void SpanRecorder::on_exit(std::size_t worker_id, const tf::Node& node) {
  const std::int64_t end = now_ns();
  Lane& lane = _lanes[worker_id];
  if (lane.open.node != &node) return;  // entry not seen (attached mid-task)
  if (lane.spans.size() == _capacity) {
    ++lane.dropped;
    return;
  }
  lane.open.end_ns = end;
  lane.spans.push_back(lane.open);
}

std::size_t SpanRecorder::num_spans() const {
  std::size_t n = 0;
  for (std::size_t w = 0; w < _num_lanes; ++w) n += _lanes[w].spans.size();
  return n;
}

std::size_t SpanRecorder::dropped() const {
  std::size_t n = 0;
  for (std::size_t w = 0; w < _num_lanes; ++w) n += _lanes[w].dropped;
  return n;
}

void SpanRecorder::clear() {
  for (std::size_t w = 0; w < _num_lanes; ++w) {
    _lanes[w].spans.clear();
    _lanes[w].dropped = 0;
  }
}

SpanSummary summarize(const SpanRecorder& rec) {
  SpanSummary s;
  for (std::size_t w = 0; w < rec.num_lanes(); ++w) {
    const auto& spans = rec.lane(w);
    for (std::size_t i = 0; i < spans.size(); ++i) {
      s.body_ns += static_cast<double>(spans[i].end_ns - spans[i].begin_ns);
      ++s.tasks;
      if (i > 0 && spans[i - 1].op == spans[i].op) {
        s.gap_ns += static_cast<double>(spans[i].begin_ns - spans[i - 1].end_ns);
        ++s.gaps;
      }
    }
  }
  return s;
}

void op_bounds(const SpanRecorder& rec, std::size_t n, std::vector<std::int64_t>& first,
               std::vector<std::int64_t>& last) {
  first.assign(n, std::numeric_limits<std::int64_t>::max());
  last.assign(n, std::numeric_limits<std::int64_t>::min());
  for (std::size_t w = 0; w < rec.num_lanes(); ++w) {
    for (const auto& sp : rec.lane(w)) {
      if (sp.op >= n) continue;
      first[sp.op] = std::min(first[sp.op], sp.begin_ns);
      last[sp.op] = std::max(last[sp.op], sp.end_ns);
    }
  }
}

void write_chrome_trace(const std::string& path, const SpanRecorder& rec,
                        const std::vector<std::string>& stage_names) {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("cannot write chrome trace " + path);
  std::int64_t t0 = std::numeric_limits<std::int64_t>::max();
  for (std::size_t w = 0; w < rec.num_lanes(); ++w) {
    for (const auto& sp : rec.lane(w)) t0 = std::min(t0, sp.begin_ns);
  }
  os << "{\"traceEvents\": [";
  bool first = true;
  for (std::size_t w = 0; w < rec.num_lanes(); ++w) {
    for (const auto& sp : rec.lane(w)) {
      const std::string& name =
          sp.stage < stage_names.size() ? stage_names[sp.stage] : stage_names.front();
      os << (first ? "\n" : ",\n") << "{\"name\": \"" << name
         << "\", \"ph\": \"X\", \"pid\": 0, \"tid\": " << sp.worker
         << ", \"ts\": " << static_cast<double>(sp.begin_ns - t0) / 1e3
         << ", \"dur\": " << static_cast<double>(sp.end_ns - sp.begin_ns) / 1e3
         << ", \"args\": {\"op\": " << sp.op << "}}";
      first = false;
    }
  }
  os << "\n]}\n";
}

}  // namespace pb
