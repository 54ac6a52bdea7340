#include "matrix/matrix_io.h"
#include <unistd.h>
#include <cstring>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <vector>

namespace fuseme {

namespace {

constexpr char kMagic[4] = {'F', 'M', 'E', 'M'};
constexpr std::uint32_t kVersion = 1;
/// Largest block grid LoadMatrix builds (every tile, zero or not, costs a
/// Block); every real-mode shape in the repo needs far fewer.
constexpr std::int64_t kMaxGridBlocks = std::int64_t{1} << 20;

struct FileCloser {
  void operator()(std::FILE* f) const {
    if (f != nullptr) std::fclose(f);
  }
};
using File = std::unique_ptr<std::FILE, FileCloser>;

template <typename T>
Status WriteOne(std::FILE* f, const T& value) {
  if (std::fwrite(&value, sizeof(T), 1, f) != 1) {
    return Status::Internal("short write");
  }
  return Status::OK();
}

template <typename T>
Status WriteArray(std::FILE* f, const T* data, std::size_t count) {
  if (count == 0) return Status::OK();
  if (std::fwrite(data, sizeof(T), count, f) != count) {
    return Status::Internal("short write");
  }
  return Status::OK();
}

template <typename T>
Status ReadOne(std::FILE* f, T* value) {
  if (std::fread(value, sizeof(T), 1, f) != 1) {
    return Status::Internal("short read (truncated file?)");
  }
  return Status::OK();
}

/// Bytes between the read position and the end of a `file_size`-byte file.
std::int64_t BytesLeft(std::FILE* f, std::int64_t file_size) {
  return file_size - std::ftell(f);
}

template <typename T>
Status ReadArray(std::FILE* f, T* data, std::size_t count) {
  if (count == 0) return Status::OK();
  if (std::fread(data, sizeof(T), count, f) != count) {
    return Status::Internal("short read (truncated file?)");
  }
  return Status::OK();
}

}  // namespace

Status SaveMatrix(const BlockedMatrix& matrix, const std::string& path) {
  if (!matrix.IsReal()) {
    return Status::InvalidArgument(
        "meta (descriptor-only) matrices cannot be saved");
  }
  File file(std::fopen(path.c_str(), "wb"));
  if (file == nullptr) {
    return Status::Internal("cannot open '" + path + "' for writing");
  }
  std::FILE* f = file.get();
  if (std::fwrite(kMagic, 1, 4, f) != 4) {
    return Status::Internal("short write");
  }
  FUSEME_RETURN_IF_ERROR(WriteOne(f, kVersion));
  FUSEME_RETURN_IF_ERROR(WriteOne(f, matrix.rows()));
  FUSEME_RETURN_IF_ERROR(WriteOne(f, matrix.cols()));
  FUSEME_RETURN_IF_ERROR(WriteOne(f, matrix.block_size()));

  // Count non-zero blocks (zero tiles are implicit).
  std::int64_t block_count = 0;
  for (std::int64_t bi = 0; bi < matrix.grid_rows(); ++bi) {
    for (std::int64_t bj = 0; bj < matrix.grid_cols(); ++bj) {
      if (!matrix.block(bi, bj).is_zero()) ++block_count;
    }
  }
  FUSEME_RETURN_IF_ERROR(WriteOne(f, block_count));

  for (std::int64_t bi = 0; bi < matrix.grid_rows(); ++bi) {
    for (std::int64_t bj = 0; bj < matrix.grid_cols(); ++bj) {
      const Block& b = matrix.block(bi, bj);
      if (b.is_zero()) continue;
      FUSEME_RETURN_IF_ERROR(WriteOne(f, bi));
      FUSEME_RETURN_IF_ERROR(WriteOne(f, bj));
      const std::uint8_t kind = b.kind() == Block::Kind::kDense ? 1 : 2;
      FUSEME_RETURN_IF_ERROR(WriteOne(f, kind));
      if (kind == 1) {
        const DenseMatrix& d = b.dense();
        FUSEME_RETURN_IF_ERROR(
            WriteArray(f, d.data(), static_cast<std::size_t>(d.size())));
      } else {
        const SparseMatrix& s = b.sparse();
        FUSEME_RETURN_IF_ERROR(WriteOne(f, s.nnz()));
        FUSEME_RETURN_IF_ERROR(WriteArray(f, s.row_ptr().data(),
                                          s.row_ptr().size()));
        FUSEME_RETURN_IF_ERROR(WriteArray(f, s.col_idx().data(),
                                          s.col_idx().size()));
        FUSEME_RETURN_IF_ERROR(WriteArray(f, s.values().data(),
                                          s.values().size()));
      }
    }
  }
  if (std::fflush(f) != 0) return Status::Internal("flush failed");
  return Status::OK();
}

Result<BlockedMatrix> LoadMatrix(const std::string& path) {
  File file(std::fopen(path.c_str(), "rb"));
  if (file == nullptr) {
    return Status::InvalidArgument("cannot open '" + path + "'");
  }
  std::FILE* f = file.get();
  if (std::fseek(f, 0, SEEK_END) != 0) {
    return Status::InvalidArgument("cannot seek '" + path + "'");
  }
  const std::int64_t file_size = std::ftell(f);
  std::rewind(f);
  char magic[4];
  if (std::fread(magic, 1, 4, f) != 4 ||
      std::memcmp(magic, kMagic, 4) != 0) {
    return Status::InvalidArgument("'" + path + "' is not a FuseME matrix");
  }
  std::uint32_t version = 0;
  FUSEME_RETURN_IF_ERROR(ReadOne(f, &version));
  if (version != kVersion) {
    return Status::InvalidArgument("unsupported matrix file version " +
                                   std::to_string(version));
  }
  std::int64_t rows = 0, cols = 0, block_size = 0, block_count = 0;
  FUSEME_RETURN_IF_ERROR(ReadOne(f, &rows));
  FUSEME_RETURN_IF_ERROR(ReadOne(f, &cols));
  FUSEME_RETURN_IF_ERROR(ReadOne(f, &block_size));
  FUSEME_RETURN_IF_ERROR(ReadOne(f, &block_count));
  if (rows < 0 || cols < 0 || block_size <= 0 || block_count < 0) {
    return Status::InvalidArgument("corrupt matrix header");
  }
  const std::int64_t grid_rows = rows / block_size + (rows % block_size != 0);
  const std::int64_t grid_cols = cols / block_size + (cols % block_size != 0);
  // Each bound matters: an empty grid can still be 2^60 rows long.
  std::int64_t grid_blocks = 0;
  if (__builtin_mul_overflow(grid_rows, grid_cols, &grid_blocks) ||
      std::max({grid_blocks, grid_rows, grid_cols}) > kMaxGridBlocks) {
    return Status::InvalidArgument(
        "matrix header asks for a " + std::to_string(grid_rows) + " x " +
        std::to_string(grid_cols) + " block grid, over the limit of " +
        std::to_string(kMaxGridBlocks) + " blocks");
  }
  BlockedMatrix out(rows, cols, block_size);
  for (std::int64_t i = 0; i < block_count; ++i) {
    std::int64_t bi = 0, bj = 0;
    std::uint8_t kind = 0;
    FUSEME_RETURN_IF_ERROR(ReadOne(f, &bi));
    FUSEME_RETURN_IF_ERROR(ReadOne(f, &bj));
    FUSEME_RETURN_IF_ERROR(ReadOne(f, &kind));
    if (bi < 0 || bi >= out.grid_rows() || bj < 0 ||
        bj >= out.grid_cols()) {
      return Status::InvalidArgument("corrupt block coordinates");
    }
    // Sizes are checked against the words left in the file by division,
    // which cannot overflow (tr, tc >= 1), before anything is allocated.
    const std::int64_t tr = out.TileRows(bi), tc = out.TileCols(bj);
    if (kind == 1) {
      if (tr > BytesLeft(f, file_size) / 8 / tc) {
        return Status::InvalidArgument("dense block larger than the file");
      }
      std::vector<double> data(static_cast<std::size_t>(tr * tc));
      FUSEME_RETURN_IF_ERROR(ReadArray(f, data.data(), data.size()));
      out.set_block(bi, bj,
                    Block::FromDense(DenseMatrix(tr, tc, std::move(data))));
    } else if (kind == 2) {
      std::int64_t nnz = 0;
      FUSEME_RETURN_IF_ERROR(ReadOne(f, &nnz));
      if (nnz < 0 || (nnz > 0 && (nnz - 1) / tc >= tr)) {  // nnz > tr * tc
        return Status::InvalidArgument("corrupt block nnz");
      }
      // row_ptr (tr + 1 words), then col_idx and values (nnz words each).
      const std::int64_t words_left = BytesLeft(f, file_size) / 8;
      if (tr >= words_left || nnz > (words_left - 1 - tr) / 2) {
        return Status::InvalidArgument("sparse block larger than the file");
      }
      std::vector<std::int64_t> row_ptr(static_cast<std::size_t>(tr + 1));
      std::vector<std::int64_t> col_idx(static_cast<std::size_t>(nnz));
      std::vector<double> values(static_cast<std::size_t>(nnz));
      FUSEME_RETURN_IF_ERROR(ReadArray(f, row_ptr.data(), row_ptr.size()));
      FUSEME_RETURN_IF_ERROR(ReadArray(f, col_idx.data(), col_idx.size()));
      FUSEME_RETURN_IF_ERROR(ReadArray(f, values.data(), values.size()));
      if (row_ptr[0] != 0) {
        return Status::InvalidArgument("corrupt CSR row pointers");
      }
      // Rebuild through triplets to re-validate the CSR invariants.
      std::vector<std::tuple<std::int64_t, std::int64_t, double>> triplets;
      triplets.reserve(values.size());
      for (std::int64_t r = 0; r < tr; ++r) {
        if (row_ptr[r] > row_ptr[r + 1] || row_ptr[r + 1] > nnz) {
          return Status::InvalidArgument("corrupt CSR row pointers");
        }
        for (std::int64_t p = row_ptr[r]; p < row_ptr[r + 1]; ++p) {
          if (col_idx[p] < 0 || col_idx[p] >= tc) {
            return Status::InvalidArgument("corrupt CSR column index");
          }
          triplets.emplace_back(r, col_idx[p], values[p]);
        }
      }
      out.set_block(bi, bj,
                    Block::FromSparse(SparseMatrix::FromTriplets(
                        tr, tc, std::move(triplets))));
    } else {
      return Status::InvalidArgument("corrupt block kind");
    }
  }
  return out;
}

}  // namespace fuseme
