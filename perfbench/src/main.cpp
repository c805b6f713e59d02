// perfbench_workload: runs one benchmark workload in this process and
// prints its result as the last line of stdout (one JSON object with
// correct / attempted / failed, the end-to-end metrics, the per-layer
// metrics of a traced run, and the latency sample counts).
//
//   perfbench_workload --workload kv_zipf|sor|largespace --seed N
//                      --seconds S --trace 0|1 --work-dir DIR
//
// perfbench/run.py builds this binary and is the benchmark's entry point.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>

#include "measure.hpp"
#include "workloads.hpp"

namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench_workload: %s\nusage: perfbench_workload --workload "
               "kv_zipf|sor|largespace --seed N --seconds S --trace 0|1 --work-dir DIR\n",
               why);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  g_process_start_ns = now_ns();

  Options opts;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* v = argv[i + 1];
    if (flag == "--workload") {
      opts.workload = v;
    } else if (flag == "--seed") {
      opts.seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--seconds") {
      opts.seconds = std::strtod(v, nullptr);
    } else if (flag == "--trace") {
      opts.trace = std::string(v) == "1";
    } else if (flag == "--work-dir") {
      opts.work_dir = v;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (argc % 2 == 0) usage("flags take one value each");
  if (opts.work_dir.empty()) usage("--work-dir is required");
  if (!(opts.seconds > 0)) usage("--seconds must be positive");
  std::filesystem::create_directories(opts.work_dir);
  Trace::prepare_thread();
  if (opts.trace) Trace::enable();

  try {
    Report rep;
    if (opts.workload == "kv_zipf") {
      rep = run_kv_zipf(opts);
    } else if (opts.workload == "sor") {
      rep = run_sor(opts);
    } else if (opts.workload == "largespace") {
      rep = run_largespace(opts);
    } else {
      usage(("unknown workload " + opts.workload).c_str());
    }
    if (opts.trace) Trace::write(opts.work_dir + "/" + opts.workload + ".spans.jsonl");
    std::printf("samples:");
    for (const auto& [name, n] : rep.sample_counts) std::printf(" %s=%zu", name.c_str(), n);
    std::printf("\n");
    for (const std::string& f : rep.failures) std::printf("FAILED: %s\n", f.c_str());
    rep.print_json();
    return rep.failed == 0 && rep.failures.empty() ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_workload %s: %s\n", opts.workload.c_str(), e.what());
    return 1;
  }
}
