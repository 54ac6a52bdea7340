// The one instruction-set dispatch for the engine's vector kernels.
//
// Each kernel below has a portable C++ loop and may have vector variants;
// the variant a caller gets by default is picked once per process from
// what the CPU supports (AVX-512, then AVX2, then the portable loop), and
// tests and benches can run every supported variant directly.  A kernel
// without a vector version for some instruction set runs its portable
// loop there.
//
//   kernel                     portable  avx2  avx512   declared in
//   DenseGemmAcc (MatMulAcc)   yes       yes   yes      this header
//   SpmmAccSparseDense         yes       -     yes      sparse_kernels.h
//   SpmmAccDenseSparse         yes       -     yes      sparse_kernels.h
//   DenseMatrix::CountNonZeros yes       -     yes      dense_matrix.h
//
// Every variant is bitwise identical to its portable loop: per output
// element the contributions are added in the loop's order, each one a
// rounded multiply followed by a rounded add (never a fused multiply-add
// — every TU holding intrinsics is built with -ffp-contract=off, and the
// AVX2 target does not enable FMA).  Vector kernels keep tiles of the
// output in registers or in a packed scratch panel; loading, storing and
// transposing a double is exact, so that changes nothing.
//
// The dense GEMM additionally skips a contribution whose a[i][k] compares
// equal to zero, so a 0·Inf or 0·NaN in b never reaches acc and a -0.0 in
// acc survives; its vector variants do the same per row.

#ifndef FUSEME_MATRIX_GEMM_KERNEL_H_
#define FUSEME_MATRIX_GEMM_KERNEL_H_

#include <vector>

#include "matrix/dense_matrix.h"

// Kernel TUs include <immintrin.h> and define x86 variants only when this
// is 1; everywhere else the portable loops are all there is.
#if defined(__x86_64__) && defined(__GNUC__)
#define FUSEME_KERNELS_X86 1
#else
#define FUSEME_KERNELS_X86 0
#endif

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

/// The variant the kernels run by default, chosen on first use.
GemmVariant DispatchedGemmVariant();

/// Whether this host can run `variant`.
bool GemmVariantSupported(GemmVariant variant);

/// acc += a · b with `variant`, which must be supported on this host.
/// Large products split into 64-row slabs over the global thread pool; each
/// slab writes only its own rows of acc, so the result does not depend on
/// the thread count.  Shapes are CHECKed.
void DenseGemmAcc(GemmVariant variant, DenseMatrix* acc, const DenseMatrix& a,
                  const DenseMatrix& b);

}  // namespace fuseme

#endif  // FUSEME_MATRIX_GEMM_KERNEL_H_
