// Dense × dense GEMM kernels behind MatMulAcc, one per instruction set.
//
// Every variant computes acc += a · b with the same arithmetic as the
// portable i-k-j loop, so all of them are bitwise identical:
//   - per output element the k contributions are added in ascending k;
//   - each contribution is a rounded multiply followed by a rounded add
//     (never a fused multiply-add — this TU is built with
//     -ffp-contract=off, and the AVX2 variant does not enable FMA);
//   - a contribution whose a[i][k] compares equal to zero is skipped, so a
//     0·Inf or 0·NaN in b never reaches acc and a -0.0 in acc survives.
// The vector variants keep a tile of acc in registers across the whole k
// range; loading and storing a double is exact, so that changes nothing.
//
// The variant MatMulAcc runs is picked once per process from what the CPU
// supports (AVX-512, then AVX2, then the portable loop).  Tests and
// benches can run each supported variant directly.

#ifndef FUSEME_MATRIX_GEMM_KERNEL_H_
#define FUSEME_MATRIX_GEMM_KERNEL_H_

#include <vector>

#include "matrix/dense_matrix.h"

namespace fuseme {

enum class GemmVariant {
  kPortable,  // plain C++ i-k-j loop; baseline x86-64 or any other target
  kAvx2,      // 4×12 register tile of ymm accumulators
  kAvx512,    // 4×32 register tile of zmm accumulators
};

/// "portable", "avx2" or "avx512".
const char* GemmVariantName(GemmVariant variant);

/// The variants this host can run, portable first; the last one is what
/// DispatchedGemmVariant() returns.
const std::vector<GemmVariant>& SupportedGemmVariants();

/// The variant MatMulAcc runs, chosen on first use.
GemmVariant DispatchedGemmVariant();

/// acc += a · b with `variant`, which must be supported on this host.
/// Large products split into 64-row slabs over the global thread pool; each
/// slab writes only its own rows of acc, so the result does not depend on
/// the thread count.  Shapes are CHECKed.
void DenseGemmAcc(GemmVariant variant, DenseMatrix* acc, const DenseMatrix& a,
                  const DenseMatrix& b);

}  // namespace fuseme

#endif  // FUSEME_MATRIX_GEMM_KERNEL_H_
