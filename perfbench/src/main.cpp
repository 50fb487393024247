// perfbench - one seeded workload per process against the public API of
// taskflow, timer and service.
//
//   perfbench --workload <wavefront|sta_incr|svc_closed> --seed <n>
//             --seconds <s> --trace <0|1> [--chrome-trace <file>]
//
// The last line of stdout is the result object; the line before it holds
// run details (workers, op counts, sample counts).  --trace 0 reports the
// end-to-end metrics, --trace 1 the per-layer ones.  Exit code 0 means the
// run completed; `correct` says whether every output check passed.
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "bench.hpp"

namespace {

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload <wavefront|sta_incr|svc_closed> --seed <n>"
               " --seconds <s> --trace <0|1> [--chrome-trace <file>]\n";
  std::exit(2);
}

pb::Options parse(int argc, char** argv) {
  pb::Options o;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage("missing value for " + key);
    const std::string value = argv[++i];
    try {
      if (key == "--workload") {
        o.workload = value;
        have_workload = true;
      } else if (key == "--seed") {
        o.seed = std::stoull(value);
      } else if (key == "--seconds") {
        o.seconds = std::stoi(value);
      } else if (key == "--trace") {
        o.trace = std::stoi(value) != 0;
      } else if (key == "--chrome-trace") {
        o.chrome_trace = value;
      } else {
        usage("unknown option " + key);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + key + ": " + value);
    }
  }
  if (!have_workload) usage("--workload is required");
  if (o.seconds < 1 || o.seconds > 60) usage("--seconds must be in [1, 60]");
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  const pb::Options o = parse(argc, argv);
  try {
    pb::Report r;
    if (o.workload == "wavefront") {
      r = pb::run_wavefront(o);
    } else if (o.workload == "sta_incr") {
      r = pb::run_sta_incr(o);
    } else if (o.workload == "svc_closed") {
      r = pb::run_svc_closed(o);
    } else {
      usage("unknown workload " + o.workload);
    }
    r.detail("workload", o.workload);
    r.detail("seed", static_cast<double>(o.seed));
    r.detail("seconds", o.seconds);
    r.detail("trace", o.trace ? 1 : 0);
    r.print(std::cout);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << o.workload << " aborted: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
