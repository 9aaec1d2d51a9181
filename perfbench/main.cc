// perfbench: runs one workload of the repository benchmark and prints its
// metrics; the last line of standard output is the run's JSON result.
//
//   perfbench --workload we-local|we-remote|engine-sweep --seed N
//             --seconds S --trace 0|1 --out-dir DIR
//
// Exit status: 0 when every output check passed, 1 when a check failed (the
// result line then says "correct": false), 2 on a usage error and 3 when
// set-up failed (no result line). README.md in this directory describes the
// workloads and metrics; run.py builds this binary and calls it.
#include <cstdio>
#include <filesystem>
#include <string>
#include <string_view>

#include "report.h"
#include "util/string_util.h"
#include "workloads.h"

namespace {

void PrintUsage() {
  std::fprintf(stderr,
               "usage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 --out-dir DIR\n  workloads:");
  for (const std::string& name : perfbench::WorkloadNames()) {
    std::fprintf(stderr, " %s", name.c_str());
  }
  std::fprintf(stderr, "\n");
}

bool ParseArgs(int argc, char** argv, perfbench::RunOptions* options) {
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (i + 1 >= argc) return false;
    const char* value = argv[++i];
    uint64_t n = 0;
    if (flag == "--workload") {
      options->workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      if (!wnw::ParseUint64(value, &options->seed)) return false;
      have_seed = true;
    } else if (flag == "--seconds") {
      if (!wnw::ParseDouble(value, &options->seconds) ||
          !(options->seconds > 0.0) || options->seconds > 60.0) {
        return false;
      }
      have_seconds = true;
    } else if (flag == "--trace") {
      if (!wnw::ParseUint64(value, &n) || n > 1) return false;
      options->trace = n == 1;
      have_trace = true;
    } else if (flag == "--out-dir") {
      options->out_dir = value;
    } else {
      return false;
    }
  }
  bool known = false;
  for (const std::string& name : perfbench::WorkloadNames()) {
    known = known || name == options->workload;
  }
  return known && have_workload && have_seed && have_seconds && have_trace &&
         !options->out_dir.empty();
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  if (!ParseArgs(argc, argv, &options)) {
    PrintUsage();
    return 2;
  }
  std::error_code ec;
  std::filesystem::create_directories(options.out_dir, ec);
  if (ec) {
    std::fprintf(stderr, "perfbench: cannot create %s: %s\n",
                 options.out_dir.c_str(), ec.message().c_str());
    return 3;
  }

  perfbench::Report report;
  if (!perfbench::RunWorkload(options, &report)) return 3;

  std::printf("perfbench %s seed=%llu seconds=%g trace=%d | nproc %d, %s, "
              "%s build\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0, perfbench::Nproc(), PERFBENCH_COMPILER,
              PERFBENCH_BUILD_TYPE);
  std::fputs(report.Table().c_str(), stdout);
  std::printf("%s\n", report.Json().c_str());
  std::fflush(stdout);
  return report.correct() ? 0 : 1;
}
