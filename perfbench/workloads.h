// Entry points of the benchmark's workloads.

#ifndef CCF_PERFBENCH_WORKLOADS_H_
#define CCF_PERFBENCH_WORKLOADS_H_

#include <string>

#include "common.h"

namespace perfbench {

// log-write-sgx3, log-read-sgx3, smallbank-zipf-1 (sim.cc).
bool IsSimWorkload(const std::string& workload);
RunResult RunSimWorkload(const Options& opt);

// log-write-live3, log-write-live3-closed (live.cc).
bool IsLiveWorkload(const std::string& workload);
RunResult RunLiveWorkload(const Options& opt);

}  // namespace perfbench

#endif  // CCF_PERFBENCH_WORKLOADS_H_
