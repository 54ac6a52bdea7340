// Clean fixture: the one ISA dispatch, in a -ffp-contract=off TU, may use
// intrinsics, target attributes and __builtin_cpu_supports
// (lint-simd-tu accepts all three).

#include <immintrin.h>

namespace fixture {

__attribute__((target("avx2"))) void Zero(double* out) {
  _mm256_storeu_pd(out, _mm256_setzero_pd());
}

bool HasAvx2() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("avx2");
}

}  // namespace fixture
