// perfbench_driver: runs one workload of the repo benchmark and prints
// its result as the last line of standard output. Normally started by
// perfbench/run.py, which builds it first:
//
//   perfbench_driver --workload <name> --seed <n> --seconds <s>
//                    --trace <0|1> [--ccf-host <path>] [--out-dir <dir>]
//
// Human-readable lines (notes, failed checks) come first; the last line is
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common.h"
#include "workloads.h"

int main(int argc, char** argv) {
  perfbench::Options opt;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    std::string val = argv[i + 1];
    if (flag == "--workload") {
      opt.workload = val;
    } else if (flag == "--seed") {
      opt.seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      opt.seconds = std::atof(val.c_str());
    } else if (flag == "--trace") {
      opt.trace = val == "1";
    } else if (flag == "--ccf-host") {
      opt.ccf_host = val;
    } else if (flag == "--out-dir") {
      opt.out_dir = val;
    } else {
      std::fprintf(stderr, "unknown argument %s\n", flag.c_str());
      return 2;
    }
  }
  perfbench::RunResult result;
  if (perfbench::IsSimWorkload(opt.workload)) {
    result = perfbench::RunSimWorkload(opt);
  } else if (perfbench::IsLiveWorkload(opt.workload)) {
    result = perfbench::RunLiveWorkload(opt);
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", opt.workload.c_str());
    return 2;
  }
  for (const std::string& n : result.notes) std::printf("note: %s\n", n.c_str());
  for (const std::string& e : result.errors) {
    std::printf("check failed: %s\n", e.c_str());
  }
  perfbench::PrintResult(result);
  return result.correct() ? 0 : 1;
}
