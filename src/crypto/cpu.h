// Kernel selection for the primitives with a hardware implementation.
//
// SHA-256 has a SHA-NI kernel, and AES-256 / GCM have AES-NI + PCLMULQDQ
// kernels. Each keeps its portable C++ implementation alongside: that is
// the fallback on CPUs without the instructions and the oracle the
// differential tests compare the hardware kernels against. Which kernel a
// default-constructed object uses is decided by one CPUID probe per
// process; there is no switch. Outputs are byte-identical either way.

#ifndef CCF_CRYPTO_CPU_H_
#define CCF_CRYPTO_CPU_H_

#include <cstdint>

// The hardware kernels are compiled on x86 only (with per-function target
// attributes, so no -march flag); elsewhere the probe reports no support.
#if defined(__x86_64__) || defined(__i386__)
#define CCF_CRYPTO_X86_KERNELS 1
#endif

namespace ccf::crypto::internal {

enum class Kernel : uint8_t { kPortable, kHardware };

// CPU supports the SHA-NI SHA-256 kernel (SHA extensions + SSE4.1).
bool CpuHasShaNi();
// CPU supports the AES-NI / PCLMULQDQ AES and GCM kernels (+ SSE4.1).
bool CpuHasAesNi();

inline Kernel BestSha256Kernel() {
  return CpuHasShaNi() ? Kernel::kHardware : Kernel::kPortable;
}
inline Kernel BestAesKernel() {
  return CpuHasAesNi() ? Kernel::kHardware : Kernel::kPortable;
}

inline const char* KernelName(Kernel k) {
  return k == Kernel::kHardware ? "hardware" : "portable";
}

}  // namespace ccf::crypto::internal

#endif  // CCF_CRYPTO_CPU_H_
