// flow_builder.hpp - tf::FlowBuilder and tf::SubflowBuilder.
//
// FlowBuilder is the set of graph building blocks shared by static tasking
// (tf::Taskflow) and dynamic tasking (tf::SubflowBuilder) - the paper's
// "unified interface" (§III-D): the same emplace/precede/linearize and the
// built-in algorithm patterns (parallel_for / reduce / transform, §III-F)
// work identically in both contexts.
//
// The algorithm patterns are partitioner-driven (DESIGN.md §9): each pattern
// emplaces O(default_parallelism) *range worker* nodes - never one node per
// chunk - that pull [beg, end) index ranges from a shared atomic cursor
// through a pluggable tf::*Partitioner (GuidedPartitioner by default) until
// the iteration space drains.  Construction cost and node count are thereby
// independent of the element count, and the schedule adapts to skewed
// per-element cost at run time instead of being frozen at build time.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <future>
#include <initializer_list>
#include <iterator>
#include <memory>
#include <optional>
#include <stdexcept>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "taskflow/error.hpp"
#include "taskflow/graph.hpp"
#include "taskflow/partitioner.hpp"
#include "taskflow/task.hpp"

namespace tf {

class SubflowBuilder;
class Taskflow;

namespace detail {

/// A callable taking a SubflowBuilder& is a *dynamic* task; a callable
/// taking no argument is a *static* task.  Checked in this order so that
/// generic lambdas (`[](auto& sf){...}`, paper Listing 7) bind dynamically.
template <typename C>
inline constexpr bool is_dynamic_work_v = std::is_invocable_r_v<void, C, SubflowBuilder&>;

template <typename C>
inline constexpr bool is_static_work_v = std::is_invocable_r_v<void, C>;

/// A no-argument callable returning exactly `int` is a *condition* task
/// (second Taskflow paper §III-C): the returned value selects which successor
/// to fire.  Checked after the dynamic test and before the static one -
/// is_static_work_v accepts int-returning callables too (the result would be
/// discarded), so the ordering is what gives `int()` its control-flow
/// meaning.
template <typename C, typename = void>
struct condition_work_trait : std::false_type {};
template <typename C>
struct condition_work_trait<C, std::void_t<std::invoke_result_t<C>>>
    : std::is_same<std::decay_t<std::invoke_result_t<C>>, int> {};
template <typename C>
inline constexpr bool is_condition_work_v = condition_work_trait<C>::value;

/// Maps element indices of a range [first, first + n) back to iterators so
/// the range workers can operate in index space regardless of iterator
/// category.  Random-access iterators resolve in O(1); weaker categories
/// anchor an iterator every `stride` elements at construction (one O(n)
/// walk, which the legacy per-chunk advance loops paid as well), so
/// resolving an arbitrary index costs at most stride - 1 increments.
template <typename I>
class IndexedRange {
  static constexpr bool kRandom = std::is_base_of_v<
      std::random_access_iterator_tag,
      typename std::iterator_traits<I>::iterator_category>;

 public:
  IndexedRange(I first, std::size_t n, std::size_t workers) : _first(std::move(first)) {
    if constexpr (!kRandom) {
      _stride = std::clamp<std::size_t>(n / (std::max<std::size_t>(workers, 1) * 16),
                                        1, 4096);
      _anchors.reserve(n / _stride + 1);
      I it = _first;
      std::size_t i = 0;
      while (i < n) {
        _anchors.push_back(it);
        const std::size_t step = std::min(_stride, n - i);
        std::advance(it, static_cast<std::ptrdiff_t>(step));
        i += step;
      }
    } else {
      (void)n;
      (void)workers;
    }
  }

  [[nodiscard]] I at(std::size_t i) const {
    if constexpr (kRandom) {
      using D = typename std::iterator_traits<I>::difference_type;
      return _first + static_cast<D>(i);
    } else {
      I it = _anchors[i / _stride];
      std::advance(it, static_cast<std::ptrdiff_t>(i % _stride));
      return it;
    }
  }

 private:
  I _first;
  std::vector<I> _anchors;  // non-random-access categories only
  std::size_t _stride{1};
};

/// Shared state of one range-parallel pattern, heap-allocated once and kept
/// alive by the worker closures' shared_ptr captures: the cursor (its own
/// cache line), the partitioner, and the pattern-specific payload
/// (iterators, user callables, partial results).
template <typename P, typename Payload>
struct RangeControl {
  RangeCursor cursor;
  P part;
  Payload payload;

  RangeControl(std::size_t total, std::size_t workers, P p, Payload pl)
      : cursor(total, workers), part(std::move(p)), payload(std::move(pl)) {}
};

/// The range-worker main loop shared by every pattern: grab the next range
/// from the cursor, process it, repeat until the space drains.  Cooperative
/// cancellation is checked once per grabbed range, so a cancelled (or
/// draining-after-error) topology stops its range workers between ranges
/// instead of spinning through millions of remaining elements.
template <typename P, typename F>
void drain_cursor(RangeCursor& cursor, const P& part, F&& body) {
  IndexRange r;
  while (part.grab(cursor, r)) {
    if (this_task::is_cancelled()) return;
    body(r);
  }
}

}  // namespace detail

class FlowBuilder {
 public:
  /// Builders are created internally by Taskflow and by the runtime when it
  /// expands a dynamic task; `default_parallelism` caps the number of range
  /// worker nodes of the algorithm patterns (normally the executor's worker
  /// count - exact for subflows and executor-constructed taskflows, the
  /// hardware concurrency otherwise; see default_parallelism()).
  explicit FlowBuilder(Graph& graph, std::size_t default_parallelism = 1)
      : _graph(&graph), _default_par(default_parallelism == 0 ? 1 : default_parallelism) {}

  /// Parallelism the algorithm patterns assume: the number of range worker
  /// nodes they emplace and the W in the partitioners' chunk formulas.  Set
  /// from the owning executor's worker count when it is known at build time
  /// (Taskflow(num_workers), Taskflow(executor), and every SubflowBuilder);
  /// a plain Taskflow() defaults to the hardware concurrency.  Adjust it
  /// before building patterns when the graph will run on an executor of a
  /// different width: `taskflow.default_parallelism(executor.num_workers())`.
  [[nodiscard]] std::size_t default_parallelism() const noexcept { return _default_par; }
  void default_parallelism(std::size_t parallelism) noexcept {
    _default_par = parallelism == 0 ? 1 : parallelism;
  }

  /// Create one task from a callable; returns its handle.
  template <typename C>
    requires(detail::is_dynamic_work_v<C> || detail::is_static_work_v<C>)
  Task emplace(C&& callable) {
    Task t = placeholder();
    t.work(std::forward<C>(callable));
    return t;
  }

  /// Create multiple tasks at one time; returns a tuple of handles usable
  /// with structured bindings: `auto [A, B, C] = tf.emplace(a, b, c);`
  /// (paper Listing 2).
  template <typename... Cs>
    requires(sizeof...(Cs) > 1)
  auto emplace(Cs&&... callables) {
    return std::make_tuple(emplace(std::forward<Cs>(callables))...);
  }

  /// Create an empty task to be assigned work later via Task::work - used to
  /// pre-allocate storage when the callable target is not yet known
  /// (paper §III-A).
  Task placeholder() { return Task(_graph->emplace_back()); }

  /// Compose another Taskflow into this graph as one *module* task (second
  /// Taskflow paper §III-D): the module node holds a non-owning reference to
  /// `target`'s graph and, when it runs, instantiates a private copy of that
  /// graph and executes it as a joined subflow - so the same Taskflow can be
  /// composed into several parents that run concurrently.  `target` must
  /// outlive every run of this graph and every task it stores must be
  /// copy-constructible.  Defined in taskflow.hpp (needs Taskflow complete).
  Task composed_of(Taskflow& target);

  /// Pre-size the graph arena for `nodes` emplaces and `edges` precede
  /// calls (Graph::reserve): the fast path for graphs of known shape -
  /// construction after this performs no heap allocation.
  void reserve(std::size_t nodes, std::size_t edges = 0) {
    _graph->reserve(nodes, edges);
  }

  /// Create a task from a value-returning callable; the result is delivered
  /// through the returned std::future once the task has run (the paper-era
  /// emplace/silent_emplace split: use plain emplace when the status is not
  /// needed).
  template <typename C>
    requires(std::is_invocable_v<C> && !detail::is_dynamic_work_v<C>)
  auto emplace_future(C&& callable)
      -> std::pair<Task, std::future<std::invoke_result_t<C>>> {
    using R = std::invoke_result_t<C>;
    auto state = std::make_shared<std::promise<R>>();
    auto future = state->get_future();
    Task task = emplace(
        [state = std::move(state), fn = std::forward<C>(callable)]() mutable {
          if constexpr (std::is_void_v<R>) {
            fn();
            state->set_value();
          } else {
            state->set_value(fn());
          }
        });
    return {task, std::move(future)};
  }

  /// Free-function-style dependency: `from` runs before `to`.
  void precede(Task from, Task to) { from.precede(to); }

  /// Adds dependencies forming a linear chain over `tasks` in order.
  void linearize(std::vector<Task>& tasks) { linearize_range(tasks.begin(), tasks.end()); }
  void linearize(std::initializer_list<Task> tasks) {
    linearize_range(tasks.begin(), tasks.end());
  }

  /// Number of nodes created in the underlying (present) graph.
  [[nodiscard]] std::size_t num_nodes() const noexcept { return _graph->size(); }

  /// Handle over the index-th created node (creation order, 0-based).
  /// Escape hatch for tooling and tests that must reach tasks a builder API
  /// created internally - e.g. attaching retry/fallback policies to the
  /// range workers of an algorithm pattern, which are emplaced right after
  /// its (source, target) pair.
  [[nodiscard]] Task task_at(std::size_t index) { return Task(_graph->node_at(index)); }

  // ---- algorithm collection (paper §III-F; DESIGN.md §9) -----------------
  //
  // Each pattern returns a (source, target) pair of synchronization tasks:
  // splice the pattern into a larger graph by preceding the source and
  // succeeding the target.  Between the pair sit at most
  // default_parallelism() range worker nodes pulling index ranges from a
  // shared cursor through the given partitioner (GuidedPartitioner when
  // omitted); the legacy `chunk` overloads map to StaticPartitioner{chunk}.
  //
  // Error semantics: if a range worker throws, the topology drains (pending
  // workers and the target combiner are skipped - so a reduce whose workers
  // failed never touches its partial results), sibling workers stop at the
  // next range boundary, and the first exception is rethrown from the
  // dispatch handle / wait_for_all().  Cancellation stops workers between
  // grabbed ranges the same way.  A retry policy attached to a range worker
  // re-enters its grab loop: the cursor is not rewound, so the range that
  // failed mid-flight is abandoned (its elements may have been partially
  // processed) and the retried worker continues with whatever the cursor
  // still holds.

  /// Apply `callable` to every element in [beg, end), pulling ranges through
  /// `part` (default: guided).
  template <typename I, typename C, typename P = DefaultPartitioner>
    requires(detail::is_partitioner_v<P>)
  std::pair<Task, Task> parallel_for(I beg, I end, C callable, P part = P{}) {
    auto [source, target] = sync_pair();
    const auto n = static_cast<std::size_t>(std::distance(beg, end));
    if (n == 0) {
      source.precede(target);
      return {source, target};
    }
    const std::size_t w = range_worker_count(n, part);
    struct Payload {
      detail::IndexedRange<I> range;
      C callable;
    };
    auto ctrl = std::make_shared<detail::RangeControl<P, Payload>>(
        n, w, std::move(part),
        Payload{detail::IndexedRange<I>(std::move(beg), n, w), std::move(callable)});
    source.work([ctrl] { ctrl->cursor.reset(); });
    spawn_range_workers(source, target, w, [&](std::size_t) {
      return [ctrl] {
        detail::drain_cursor(ctrl->cursor, ctrl->part, [&](detail::IndexRange r) {
          I it = ctrl->payload.range.at(r.begin);
          for (std::size_t i = r.begin; i < r.end; ++i, ++it) {
            ctrl->payload.callable(*it);
          }
        });
      };
    });
    return {source, target};
  }

  /// Legacy chunked overload: `chunk` elements per grabbed range
  /// (0 = even split), i.e. StaticPartitioner{chunk}.
  template <typename I, typename C>
  std::pair<Task, Task> parallel_for(I beg, I end, C callable, std::size_t chunk) {
    return parallel_for(std::move(beg), std::move(end), std::move(callable),
                        StaticPartitioner{chunk});
  }

  /// Index-based loop: applies `callable(i)` for i = beg; i < end; i += step
  /// (step > 0) or i > end; i += step (step < 0).  Throws
  /// std::invalid_argument on step == 0 before any node is created; a
  /// direction mismatch (e.g. beg > end with a positive step) is an empty -
  /// valid - range.
  template <typename I, typename C, typename P = DefaultPartitioner>
    requires(std::is_integral_v<I> && detail::is_partitioner_v<P>)
  std::pair<Task, Task> parallel_for(I beg, I end, I step, C callable, P part = P{}) {
    const std::size_t total = iteration_count(beg, end, step);  // may throw
    auto [source, target] = sync_pair();
    if (total == 0) {
      source.precede(target);
      return {source, target};
    }
    const std::size_t w = range_worker_count(total, part);
    struct Payload {
      I beg;
      I step;
      C callable;
    };
    auto ctrl = std::make_shared<detail::RangeControl<P, Payload>>(
        total, w, std::move(part), Payload{beg, step, std::move(callable)});
    source.work([ctrl] { ctrl->cursor.reset(); });
    spawn_range_workers(source, target, w, [&](std::size_t) {
      return [ctrl] {
        detail::drain_cursor(ctrl->cursor, ctrl->part, [&](detail::IndexRange r) {
          // Modular unsigned arithmetic: every produced value is in
          // [beg, end) and thus representable, but intermediates like
          // r.begin * step may not be - computing them in U keeps the
          // arithmetic exact without signed overflow.
          using U = std::make_unsigned_t<I>;
          const U ustep = static_cast<U>(ctrl->payload.step);
          U v = static_cast<U>(ctrl->payload.beg) + static_cast<U>(r.begin) * ustep;
          for (std::size_t k = r.begin; k < r.end; ++k, v += ustep) {
            ctrl->payload.callable(static_cast<I>(v));
          }
        });
      };
    });
    return {source, target};
  }

  /// Legacy chunked overload of the stepped loop (StaticPartitioner{chunk}).
  template <typename I, typename C>
    requires std::is_integral_v<I>
  std::pair<Task, Task> parallel_for(I beg, I end, I step, C callable,
                                     std::size_t chunk) {
    return parallel_for(beg, end, step, std::move(callable), StaticPartitioner{chunk});
  }

  /// Parallel reduction of [beg, end) into `result` with binary op `bop`:
  /// result = bop(result, bop(...elements...)).  `result` must stay alive
  /// until the graph has run.  `bop` must be associative and commutative:
  /// each range worker folds the ranges it grabbed into a thread-local
  /// partial, and the target task combines the partials in worker order.
  template <typename I, typename T, typename B, typename P = DefaultPartitioner>
    requires(detail::is_partitioner_v<P>)
  std::pair<Task, Task> reduce(I beg, I end, T& result, B bop, P part = P{}) {
    return transform_reduce(std::move(beg), std::move(end), result, std::move(bop),
                            [](const auto& v) -> const auto& { return v; },
                            std::move(part));
  }

  /// Parallel transform-reduce: result = bop(result, bop over uop(elements)).
  /// Same associativity/commutativity contract as reduce().
  template <typename I, typename T, typename B, typename U,
            typename P = DefaultPartitioner>
    requires(detail::is_partitioner_v<P>)
  std::pair<Task, Task> transform_reduce(I beg, I end, T& result, B bop, U uop,
                                         P part = P{}) {
    auto [source, target] = sync_pair();
    const auto n = static_cast<std::size_t>(std::distance(beg, end));
    if (n == 0) {
      source.precede(target);
      return {source, target};
    }
    const std::size_t w = range_worker_count(n, part);
    struct Payload {
      detail::IndexedRange<I> range;
      B bop;
      U uop;
      // One slot per worker; disengaged when the worker grabbed no range
      // (or threw before finishing its first one).
      std::vector<std::optional<T>> partials;
    };
    auto ctrl = std::make_shared<detail::RangeControl<P, Payload>>(
        n, w, std::move(part),
        Payload{detail::IndexedRange<I>(std::move(beg), n, w), std::move(bop),
                std::move(uop), std::vector<std::optional<T>>(w)});
    source.work([ctrl] {
      for (auto& p : ctrl->payload.partials) p.reset();  // run_n reuse
      ctrl->cursor.reset();
    });
    spawn_range_workers(source, target, w, [&](std::size_t slot) {
      return [ctrl, slot] {
        std::optional<T> acc;
        detail::drain_cursor(ctrl->cursor, ctrl->part, [&](detail::IndexRange r) {
          I it = ctrl->payload.range.at(r.begin);
          std::size_t i = r.begin;
          if (!acc.has_value()) {
            acc.emplace(ctrl->payload.uop(*it));
            ++it;
            ++i;
          }
          for (; i < r.end; ++i, ++it) {
            acc = ctrl->payload.bop(std::move(*acc), ctrl->payload.uop(*it));
          }
        });
        if (acc.has_value()) ctrl->payload.partials[slot] = std::move(*acc);
      };
    });
    target.work([ctrl, &result] {
      for (auto& p : ctrl->payload.partials) {
        if (p.has_value()) result = ctrl->payload.bop(std::move(result), std::move(*p));
      }
    });
    return {source, target};
  }

  /// Parallel element-wise transform: out[i] = uop(in[i]).  The output range
  /// must not alias the input across range boundaries.
  template <typename I, typename O, typename U, typename P = DefaultPartitioner>
    requires(detail::is_partitioner_v<P>)
  std::pair<Task, Task> transform(I beg, I end, O out, U uop, P part = P{}) {
    auto [source, target] = sync_pair();
    const auto n = static_cast<std::size_t>(std::distance(beg, end));
    if (n == 0) {
      source.precede(target);
      return {source, target};
    }
    const std::size_t w = range_worker_count(n, part);
    struct Payload {
      detail::IndexedRange<I> in;
      detail::IndexedRange<O> out;
      U uop;
    };
    auto ctrl = std::make_shared<detail::RangeControl<P, Payload>>(
        n, w, std::move(part),
        Payload{detail::IndexedRange<I>(std::move(beg), n, w),
                detail::IndexedRange<O>(std::move(out), n, w), std::move(uop)});
    source.work([ctrl] { ctrl->cursor.reset(); });
    spawn_range_workers(source, target, w, [&](std::size_t) {
      return [ctrl] {
        detail::drain_cursor(ctrl->cursor, ctrl->part, [&](detail::IndexRange r) {
          I it = ctrl->payload.in.at(r.begin);
          O o = ctrl->payload.out.at(r.begin);
          for (std::size_t i = r.begin; i < r.end; ++i, ++it, ++o) {
            *o = ctrl->payload.uop(*it);
          }
        });
      };
    });
    return {source, target};
  }

  /// Legacy chunked overload (StaticPartitioner{chunk}).
  template <typename I, typename O, typename U>
  std::pair<Task, Task> transform(I beg, I end, O out, U uop, std::size_t chunk) {
    return transform(std::move(beg), std::move(end), std::move(out), std::move(uop),
                     StaticPartitioner{chunk});
  }

 protected:
  /// Create the (source, target) synchronization pair of an algorithm
  /// pattern.
  std::pair<Task, Task> sync_pair() {
    Task source = placeholder();
    Task target = placeholder();
    // Both default to no-op work so they run even when never re-assigned.
    source.work([]() {});
    target.work([]() {});
    return {source, target};
  }

  /// Range worker nodes a pattern emplaces: the builder's parallelism, but
  /// never more than the domain (or the partitioner's range count) can keep
  /// busy.  Always >= 1.
  template <typename P>
  [[nodiscard]] std::size_t range_worker_count(std::size_t total, const P& part) const {
    const std::size_t hint = part.ranges_hint(total, _default_par);
    return std::max<std::size_t>(1, std::min({_default_par, total, hint}));
  }

  /// Emplace `workers` range-worker nodes between `source` and `target`;
  /// `make_body(slot)` builds each worker's closure.  The closures must stay
  /// within the node's inline capture buffer: the whole point of O(W)
  /// algorithm nodes is an allocation-free construction path, and the Node
  /// itself is static_asserted to 128 bytes (graph.hpp) - a closure that
  /// spilled to the heap would silently pay one allocation per worker.
  template <typename MakeBody>
  void spawn_range_workers(Task source, Task target, std::size_t workers,
                           MakeBody&& make_body) {
    for (std::size_t slot = 0; slot < workers; ++slot) {
      auto body = make_body(slot);
      static_assert(StaticWork::stores_inline<decltype(body)>,
                    "range-worker closure must fit the Node's inline capture "
                    "buffer (kWorkCapacity) - capture one shared_ptr to the "
                    "pattern's control block, nothing more");
      Task worker = emplace(std::move(body));
      source.precede(worker);
      worker.precede(target);
    }
  }

  template <typename It>
  void linearize_range(It first, It last) {
    if (first == last) return;
    It next = first;
    for (++next; next != last; ++first, ++next) {
      const_cast<Task&>(*first).precede(const_cast<Task&>(*next));
    }
  }

  /// Trip count of `for (i = beg; step > 0 ? i < end : i > end; i += step)`,
  /// exact for any I including spans that overflow it (e.g. [INT_MIN,
  /// INT_MAX)): the span is computed in the matching unsigned type, where
  /// wraparound arithmetic yields the true distance.  Throws
  /// std::invalid_argument on step == 0 - a silent infinite loop wired into
  /// a graph is strictly worse than an eager error.
  template <typename I>
  [[nodiscard]] static std::size_t iteration_count(I beg, I end, I step) {
    if (step == I{0}) {
      throw std::invalid_argument("parallel_for: step must be non-zero");
    }
    using U = std::make_unsigned_t<I>;
    if (step > I{0}) {
      if (!(beg < end)) return 0;
      const U span = static_cast<U>(end) - static_cast<U>(beg);
      const U s = static_cast<U>(step);
      return static_cast<std::size_t>(span / s) + ((span % s) != 0 ? 1 : 0);
    }
    if (!(end < beg)) return 0;
    const U span = static_cast<U>(beg) - static_cast<U>(end);
    const U s = U{0} - static_cast<U>(step);  // |step|, safe even for I_MIN
    return static_cast<std::size_t>(span / s) + ((span % s) != 0 ? 1 : 0);
  }

  Graph* _graph;
  std::size_t _default_par;
};

/// The builder handed to a dynamic task at runtime (paper §III-D).  It
/// inherits every building block of static tasking and adds the join/detach
/// choice: a joined subflow (default) must finish before its parent task's
/// successors run; a detached one only joins the end of the topology.
class SubflowBuilder : public FlowBuilder {
 public:
  SubflowBuilder(Graph& graph, std::size_t default_parallelism)
      : FlowBuilder(graph, default_parallelism) {}

  /// Detach this subflow from its parent task.
  void detach() noexcept { _detached = true; }

  /// Re-join this subflow to its parent task (the default).
  void join() noexcept { _detached = false; }

  [[nodiscard]] bool detached() const noexcept { return _detached; }
  [[nodiscard]] bool joined() const noexcept { return !_detached; }

 private:
  bool _detached{false};
};

// Task::fallback is defined here because it shares the static-work traits
// with Task::work below.  A fallback is always static work - it runs on the
// plain run_task failure path, which has no SubflowBuilder to offer.
template <typename C>
Task& Task::fallback(C&& callable) {
  static_assert(detail::is_static_work_v<C> && !detail::is_dynamic_work_v<C>,
                "a fallback must be invocable with () - dynamic (subflow) "
                "fallbacks are not supported");
  _node->policy().fallback = StaticWork(std::forward<C>(callable));
  return *this;
}

// Task::work is defined here because the static/dynamic dispatch needs
// SubflowBuilder to be complete.
template <typename C>
Task& Task::work(C&& callable) {
  const bool was_condition = _node->is_condition();
  // emplace<> constructs the wrapper in place inside the node's variant; a
  // temporary + move would pay an extra relocation per task on the graph
  // construction hot path.
  if constexpr (detail::is_dynamic_work_v<C>) {
    _node->_work.emplace<DynamicWork>(std::forward<C>(callable));
  } else if constexpr (detail::is_condition_work_v<C>) {
    _node->_work.emplace<ConditionWork>(std::forward<C>(callable));
  } else {
    static_assert(detail::is_static_work_v<C>,
                  "a task callable must be invocable with () or (SubflowBuilder&)");
    _node->_work.emplace<StaticWork>(std::forward<C>(callable));
  }
  // The placeholder pattern assigns work after edges exist: when the node's
  // kind flips to or from condition, its out-edges change strength, so the
  // successors' weak-dependent counts must follow and the graph's cached
  // acyclicity verdict no longer holds.
  if (const bool now_condition = _node->is_condition();
      now_condition != was_condition) {
    _node->_graph->set_acyclic(false);
    Node* const* succ = _node->successor_data();
    for (std::uint32_t i = 0; i < _node->_num_successors; ++i) {
      if (now_condition) {
        ++succ[i]->_weak_dependents;
      } else {
        --succ[i]->_weak_dependents;
      }
    }
  }
  return *this;
}

}  // namespace tf
