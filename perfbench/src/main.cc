// perfbench: the Crimson repository benchmark.
//
//   perfbench --workload serve|analyze|ingest --seed N --seconds S
//             --trace 0|1 --work-dir DIR [--spans PATH]
//
// Untraced runs (--trace 0) print the end-to-end metrics; traced runs
// (--trace 1) print the per-layer metrics and write their spans to
// PATH. Every run checks the program's outputs and ends with one JSON
// line: {"correct", "attempted", "failed", "metrics"}.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench.h"
#include "common/log.h"

namespace {

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload serve|analyze|ingest"
               " --seed N --seconds S --trace 0|1 --work-dir DIR"
               " [--spans PATH]\n",
               why);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      args.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else if (flag == "--spans") {
      args.spans_path = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (args.work_dir.empty()) Usage("--work-dir is required");
  if (!(args.seconds > 0)) Usage("--seconds must be positive");
  if (args.spans_path.empty()) args.spans_path = args.work_dir + ".spans.json";
  crimson::SetMinLogLevel(crimson::LogLevel::kWarning);
  std::printf("perfbench: workload %s, seed %llu, %s, %g s\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              args.trace ? "traced" : "untraced", args.seconds);

  perfbench::Report report;
  int rc;
  if (args.workload == "serve") {
    rc = perfbench::RunServe(args, &report);
  } else if (args.workload == "analyze") {
    rc = perfbench::RunAnalyze(args, &report);
  } else if (args.workload == "ingest") {
    rc = perfbench::RunIngest(args, &report);
  } else {
    Usage("unknown workload");
  }
  if (rc != 0) return rc;
  std::printf("%s\n", report.Json().c_str());
  return 0;
}
