// Negative fixture: intrinsics in a TU built at the default contraction
// setting, and a second CPU-dispatch site.  fuseme_lint must flag the
// include, the target attribute and the __builtin_cpu_supports call
// (lint-simd-tu).

#include <immintrin.h>

namespace fixture {

__attribute__((target("avx2"))) void Axpy(double a, const double* x,
                                          double* y) {
  _mm256_storeu_pd(y, _mm256_add_pd(_mm256_loadu_pd(y),
                                    _mm256_mul_pd(_mm256_set1_pd(a),
                                                  _mm256_loadu_pd(x))));
}

bool HasAvx2() { return __builtin_cpu_supports("avx2"); }

}  // namespace fixture
