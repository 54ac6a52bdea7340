// Negative fixture, accepted half: a TU its CMakeLists.txt builds with
// -ffp-contract=off may include intrinsics and carry target attributes.

#include <immintrin.h>

namespace fixture {

__attribute__((target("avx2"))) void Zero(double* out) {
  _mm256_storeu_pd(out, _mm256_setzero_pd());
}

}  // namespace fixture
