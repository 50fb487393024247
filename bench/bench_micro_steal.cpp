// bench_micro_steal - microbenchmark of the steal pass itself (Algorithm 1:
// last victim first, then a sweep of the other workers from a random
// start), in two contention shapes:
//
//   * one-producer/N-thieves: a single linear chain rides one worker's cache
//     while every chain step sprays leaf tasks into that worker's queue -
//     all other workers live exclusively off steals from one hot victim, so
//     the remembered-last-victim probe should hit almost every time.
//
//   * all-to-all churn: W independent chains (one per worker) each spraying
//     leaves every step - every queue is both a steal source and a steal
//     target, so the random-start sweep carries the load.
//
// Counter: the aggregate successful steal count.
#include <benchmark/benchmark.h>

#include <atomic>
#include <memory>
#include <vector>

#include "taskflow/taskflow.hpp"

namespace {

// One chain of `steps` nodes; each step also releases `spray` independent
// leaves.  The chain advances through the producing worker's cache, so the
// leaves always pile into that one queue.
void run_producer_chain(const std::shared_ptr<tf::ExecutorInterface>& exec,
                        int chains, int steps, int spray) {
  tf::Taskflow tf(exec);
  std::atomic<long> value{0};
  auto sink = tf.emplace([] {});
  for (int c = 0; c < chains; ++c) {
    tf::Task prev;
    for (int s = 0; s < steps; ++s) {
      auto step = tf.emplace(
          [&value] { value.fetch_add(1, std::memory_order_relaxed); });
      if (s > 0) prev.precede(step);
      for (int l = 0; l < spray; ++l) {
        auto leaf = tf.emplace(
            [&value] { value.fetch_add(1, std::memory_order_relaxed); });
        step.precede(leaf);
        leaf.precede(sink);
      }
      prev = step;
    }
    prev.precede(sink);
  }
  tf.wait_for_all();
  benchmark::DoNotOptimize(value.load());
}

void BM_StealOneProducer(benchmark::State& state) {
  const auto workers = static_cast<std::size_t>(state.range(0));
  auto executor = tf::make_executor(workers);
  constexpr int kSteps = 128;
  constexpr int kSpray = 8;
  for (auto _ : state) run_producer_chain(executor, 1, kSteps, kSpray);
  state.counters["tasks/s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * kSteps * (kSpray + 1),
      benchmark::Counter::kIsRate);
  state.counters["steals"] = static_cast<double>(executor->num_steals());
}
BENCHMARK(BM_StealOneProducer)->Arg(4)->Unit(benchmark::kMillisecond);

void BM_StealAllToAll(benchmark::State& state) {
  const auto workers = static_cast<std::size_t>(state.range(0));
  auto executor = tf::make_executor(workers);
  constexpr int kSteps = 32;
  constexpr int kSpray = 4;
  const int chains = static_cast<int>(workers);
  for (auto _ : state) run_producer_chain(executor, chains, kSteps, kSpray);
  state.counters["tasks/s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * chains * kSteps * (kSpray + 1),
      benchmark::Counter::kIsRate);
  state.counters["steals"] = static_cast<double>(executor->num_steals());
}
BENCHMARK(BM_StealAllToAll)->Arg(4)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
