#include "crypto/cpu.h"

namespace ccf::crypto::internal {

namespace {

struct CpuFeatures {
  bool sha_ni = false;
  bool aes_ni = false;
};

const CpuFeatures& Probe() {
  static const CpuFeatures features = [] {
    CpuFeatures f;
#ifdef CCF_CRYPTO_X86_KERNELS
    // A static initialiser that hashes may run before libgcc's own
    // constructor fills in the feature bits; initialising here first makes
    // the answer correct whenever the first call happens.
    __builtin_cpu_init();
    const bool sse41 = __builtin_cpu_supports("sse4.1");
    f.sha_ni = sse41 && __builtin_cpu_supports("sha");
    f.aes_ni = sse41 && __builtin_cpu_supports("aes") &&
               __builtin_cpu_supports("pclmul");
#endif
    return f;
  }();
  return features;
}

}  // namespace

bool CpuHasShaNi() { return Probe().sha_ni; }
bool CpuHasAesNi() { return Probe().aes_ni; }

}  // namespace ccf::crypto::internal
