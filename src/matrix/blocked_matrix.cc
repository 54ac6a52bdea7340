#include "matrix/blocked_matrix.h"

#include <algorithm>
#include <tuple>
#include <vector>

#include "common/thread_pool.h"

namespace fuseme {

namespace {

std::int64_t CeilDiv(std::int64_t a, std::int64_t b) {
  return a / b + (a % b != 0);  // a + b - 1 could overflow
}

// Conversions below this many cells run serially; the per-tile work is a
// memcpy-like scan, so small matrices don't amortize a fork/join.
constexpr std::int64_t kParallelConvertCells = 1 << 20;

/// Runs fn(bi, bj) over every tile, in parallel for large matrices.  Tiles
/// touch disjoint state, so scheduling does not affect the result.
void ForEachTile(std::int64_t grid_rows, std::int64_t grid_cols,
                 std::int64_t total_cells,
                 const std::function<void(std::int64_t, std::int64_t)>& fn) {
  const std::int64_t tiles = grid_rows * grid_cols;
  auto body = [&](std::int64_t t) { fn(t / grid_cols, t % grid_cols); };
  if (tiles > 1 && total_cells >= kParallelConvertCells &&
      GlobalParallelism() > 1) {
    GlobalThreadPool()->ParallelFor(0, tiles, body);
  } else {
    for (std::int64_t t = 0; t < tiles; ++t) body(t);
  }
}

}  // namespace

BlockedMatrix::BlockedMatrix(std::int64_t rows, std::int64_t cols,
                             std::int64_t block_size)
    : rows_(rows), cols_(cols), block_size_(block_size) {
  FUSEME_CHECK_GT(block_size, 0);
  FUSEME_CHECK_GE(rows, 0);
  FUSEME_CHECK_GE(cols, 0);
  grid_rows_ = rows == 0 ? 0 : CeilDiv(rows, block_size);
  grid_cols_ = cols == 0 ? 0 : CeilDiv(cols, block_size);
  blocks_.reserve(grid_rows_ * grid_cols_);
  for (std::int64_t bi = 0; bi < grid_rows_; ++bi) {
    for (std::int64_t bj = 0; bj < grid_cols_; ++bj) {
      blocks_.push_back(Block::Zero(TileRows(bi), TileCols(bj)));
    }
  }
}

std::int64_t BlockedMatrix::TileRows(std::int64_t bi) const {
  FUSEME_CHECK(bi >= 0 && bi < grid_rows_);
  return std::min(block_size_, rows_ - bi * block_size_);
}

std::int64_t BlockedMatrix::TileCols(std::int64_t bj) const {
  FUSEME_CHECK(bj >= 0 && bj < grid_cols_);
  return std::min(block_size_, cols_ - bj * block_size_);
}

void BlockedMatrix::set_block(std::int64_t bi, std::int64_t bj, Block block) {
  FUSEME_CHECK_EQ(block.rows(), TileRows(bi));
  FUSEME_CHECK_EQ(block.cols(), TileCols(bj));
  blocks_[Index(bi, bj)] = std::move(block);
}

BlockedMatrix BlockedMatrix::FromDense(const DenseMatrix& dense,
                                       std::int64_t block_size) {
  BlockedMatrix out(dense.rows(), dense.cols(), block_size);
  // Each tile writes only its own grid slot, so extraction parallelizes.
  ForEachTile(out.grid_rows_, out.grid_cols_, dense.size(),
              [&](std::int64_t bi, std::int64_t bj) {
                const std::int64_t r0 = bi * block_size,
                                   c0 = bj * block_size;
                DenseMatrix tile(out.TileRows(bi), out.TileCols(bj));
                for (std::int64_t i = 0; i < tile.rows(); ++i) {
                  for (std::int64_t j = 0; j < tile.cols(); ++j) {
                    tile(i, j) = dense(r0 + i, c0 + j);
                  }
                }
                if (tile.CountNonZeros() > 0) {
                  out.set_block(bi, bj, Block::FromDense(std::move(tile)));
                }
              });
  return out;
}

BlockedMatrix BlockedMatrix::FromSparse(const SparseMatrix& sparse,
                                        std::int64_t block_size) {
  BlockedMatrix out(sparse.rows(), sparse.cols(), block_size);
  // Bucket triplets per tile, then build CSR tiles.
  std::vector<std::vector<std::tuple<std::int64_t, std::int64_t, double>>>
      buckets(out.num_blocks());
  sparse.ForEach([&](std::int64_t i, std::int64_t j, double v) {
    const std::int64_t bi = i / block_size, bj = j / block_size;
    buckets[out.Index(bi, bj)].emplace_back(i - bi * block_size,
                                            j - bj * block_size, v);
  });
  // Bucketing above is a sequential scan; tile construction is per-bucket
  // independent work.
  ForEachTile(out.grid_rows_, out.grid_cols_, sparse.nnz(),
              [&](std::int64_t bi, std::int64_t bj) {
                auto& bucket = buckets[out.Index(bi, bj)];
                if (bucket.empty()) return;
                SparseMatrix tile = SparseMatrix::FromTriplets(
                    out.TileRows(bi), out.TileCols(bj), std::move(bucket));
                if (tile.density() >= kDenseStorageThreshold) {
                  out.set_block(bi, bj, Block::FromDense(tile.ToDense()));
                } else {
                  out.set_block(bi, bj, Block::FromSparse(std::move(tile)));
                }
              });
  return out;
}

BlockedMatrix BlockedMatrix::MakeMeta(std::int64_t rows, std::int64_t cols,
                                      std::int64_t nnz,
                                      std::int64_t block_size) {
  BlockedMatrix out(rows, cols, block_size);
  FUSEME_CHECK_LE(nnz, rows * cols);
  const double density =
      rows * cols == 0 ? 0.0 : static_cast<double>(nnz) / (rows * cols);
  for (std::int64_t bi = 0; bi < out.grid_rows_; ++bi) {
    for (std::int64_t bj = 0; bj < out.grid_cols_; ++bj) {
      const std::int64_t cells = out.TileRows(bi) * out.TileCols(bj);
      const auto tile_nnz =
          static_cast<std::int64_t>(density * static_cast<double>(cells));
      out.set_block(bi, bj,
                    Block::Meta(out.TileRows(bi), out.TileCols(bj),
                                std::min(tile_nnz, cells)));
    }
  }
  return out;
}

std::int64_t BlockedMatrix::nnz() const {
  std::int64_t total = 0;
  for (const Block& b : blocks_) total += b.nnz();
  return total;
}

std::int64_t BlockedMatrix::SizeBytes() const {
  std::int64_t total = 0;
  for (const Block& b : blocks_) total += b.SizeBytes();
  return total;
}

bool BlockedMatrix::IsReal() const {
  for (const Block& b : blocks_) {
    if (!b.is_real()) return false;
  }
  return true;
}

DenseMatrix BlockedMatrix::ToDense() const {
  DenseMatrix out(rows_, cols_);
  // Each tile fills a disjoint rectangle of the output.
  ForEachTile(grid_rows_, grid_cols_, rows_ * cols_,
              [&](std::int64_t bi, std::int64_t bj) {
                const Block& b = block(bi, bj);
                FUSEME_CHECK(b.is_real()) << "ToDense on meta matrix";
                const std::int64_t r0 = bi * block_size_,
                                   c0 = bj * block_size_;
                if (b.is_zero()) return;
                DenseMatrix tile = b.ToDense();
                for (std::int64_t i = 0; i < tile.rows(); ++i) {
                  for (std::int64_t j = 0; j < tile.cols(); ++j) {
                    out(r0 + i, c0 + j) = tile(i, j);
                  }
                }
              });
  return out;
}

}  // namespace fuseme
