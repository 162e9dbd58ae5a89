// perfbench -- seeded inputs.
//
// Every input a workload feeds the program is drawn here from the run's
// --seed: stencil shapes, factors and offsets, sparse-matrix patterns, job
// lengths and Zipf key draws. The program under test only ever sees the
// generated data. InputHash digests every generated byte, so two runs with
// the same seed can show that their inputs were byte-identical.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "dbll/runtime/spec_cache.h"
#include "dbll/spmv/spmv.h"
#include "dbll/stencil/stencil.h"

namespace perfbench {

/// splitmix64: small, fast and fully determined by its seed.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t Next();
  /// Uniform in [0, 1).
  double Uniform();
  /// Uniform integer in [lo, hi].
  long Range(long lo, long hi);

 private:
  std::uint64_t state_;
};

/// Independent stream for (seed, purpose, index): adding a draw to one stream
/// never shifts another.
Rng Stream(std::uint64_t seed, std::uint64_t purpose, std::uint64_t index);

/// FNV-1a over every generated input byte.
class InputHash {
 public:
  void Add(const void* data, std::size_t size);
  template <typename T>
  void AddValue(const T& value) {
    Add(&value, sizeof(value));
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

/// Zipf(s) sampler over [0, n) by inverse CDF.
class Zipf {
 public:
  Zipf(std::size_t n, double s);
  std::size_t Draw(Rng& rng) const;

 private:
  std::vector<double> cdf_;
};

enum class Kind : std::uint8_t {
  kElemDirect,
  kElemFlat,
  kElemSorted,
  kElemSortedPtr,
  kLineDirect,
  kLineFlat,
  kLineSorted,
  kLineSortedPtr,
  kSpmvRow,
  kSpmvFull,
};

/// Rows of the small grid every stencil specialization is checked on (and
/// that the request-serving workloads call). Line kernels always span the
/// full kMatrixSize columns, so a row is 647 points.
inline constexpr long kSmallRows = 8;

/// Input and output matrices of `rows` x kMatrixSize doubles. Sparse kernels
/// use the first n entries of `in` as x and of `out` as y.
struct Grid {
  explicit Grid(long grid_rows);
  long rows;
  std::vector<double> in;
  std::vector<double> out;
  /// Seeded contents of `in`; `out` is zeroed.
  void Fill(std::uint64_t seed);
};

/// One specialization input: a generic kernel plus the data it is
/// specialized for. Owns every byte the request points at, at an address that
/// stays fixed for the Spec's lifetime (requests hash region addresses).
class Spec {
 public:
  Kind kind = Kind::kLineFlat;

  /// "line.flat", "elem.sorted_ptr", "spmv.row.banded", ...
  const std::string& family() const { return family_; }
  std::uint64_t generic() const { return generic_; }

  /// The compile request: kernel entry, signature and fixations.
  dbll::runtime::CompileRequest Request() const;

  /// Calls per pass over a grid of `grid_rows` rows (one pass computes every
  /// output once), and the row argument of call `k`.
  long Calls(long grid_rows) const;
  long RowOf(long k, long grid_rows) const;
  /// Calls `entry` once: a line kernel on one row, a row of element calls,
  /// one sparse row, or one full sparse product.
  void Call(std::uint64_t entry, const double* in, double* out,
            long row) const;
  /// Same call through the reference description (the negative control
  /// corrupts it; otherwise it equals the real one).
  void CallReference(const double* in, double* out, long row) const;
  /// True when one Call is one kernel invocation (line and sparse kernels);
  /// element kernels make a call per point.
  bool SingleInvocation() const;
  /// Computed points (stencil) or non-zeros (sparse) per Call.
  double WorkPerCall() const;
  /// The kernel DBrew rewrites for the paper's DBrew+LLVM mode: the line
  /// variant whose element computation is a separate function DBrew inlines
  /// (its column loop then stays rolled), the generic kernel otherwise.
  std::uint64_t DbrewInput() const;

  /// Compares the outputs `got` and `want` of one pass.
  bool OutputsMatch(const Grid& got, const Grid& want) const;

  /// Perturbs one factor of the reference description only: the program
  /// still specializes the real description, so every check of this Spec
  /// must then fail. Returns false for inputs without a factor.
  bool CorruptReference();

  void Hash(InputHash& hash) const;

  /// Generators. Offsets stay in the 3x3 neighbourhood; `fixed_shape`
  /// keeps 5 points in 2 factor groups, otherwise 2-8 points in 1-4 groups.
  static std::unique_ptr<Spec> Stencil(Kind kind, Rng& rng,
                                       bool fixed_shape = false);
  /// The paper's 4-point Jacobi shape with one seeded common factor.
  static std::unique_ptr<Spec> Jacobi(Kind kind, Rng& rng);
  /// `fixed_shape` keeps the pattern's shape (5 diagonals at -16, -1, 0, 1,
  /// 16, or 8 random columns per row) and draws only positions and values.
  static std::unique_ptr<Spec> Sparse(Kind kind, bool banded, long n,
                                      Rng& rng, bool fixed_shape = false);
  /// Input `index` of the compile_storm / warm_serving input space: the
  /// family cycles through the ten stencil and sparse families (so every
  /// seed draws the same mix), its parameters are drawn from `rng`.
  /// `fixed_shape` fixes stencil point counts and sparse shapes (64 rows),
  /// so code sizes do not depend on the seed; otherwise sparse inputs have
  /// 32-96 rows.
  static std::unique_ptr<Spec> Any(std::size_t index, Rng& rng,
                                   bool fixed_shape = false);

 private:
  void SetFamily(const char* shape);
  const void* Desc(bool reference) const;

  std::string family_;
  std::uint64_t generic_ = 0;
  dbll::stencil::FlatStencil flat_{};
  dbll::stencil::SortedStencil sorted_{};
  dbll::stencil::PtrSortedStencil sorted_ptr_{};
  std::vector<dbll::stencil::SortedGroup> groups_;
  // Reference copies (differ from the above only under CorruptReference).
  dbll::stencil::FlatStencil ref_flat_{};
  dbll::stencil::SortedStencil ref_sorted_{};
  dbll::stencil::PtrSortedStencil ref_sorted_ptr_{};
  std::vector<dbll::stencil::SortedGroup> ref_groups_;
  // Sparse inputs.
  std::unique_ptr<dbll::spmv::CsrBuilder> csr_builder_;
  dbll::spmv::CsrMatrix csr_{};
};

/// Relative comparison: avx2+ contracts mul+add into FMA and fast-math may
/// reassociate, so specialized and generic results differ in the last bits.
bool Close(double got, double want);

}  // namespace perfbench
