#include "inputs.h"

#include <algorithm>
#include <cmath>
#include <cstring>

namespace perfbench {

using dbll::lift::ArgKind;
using dbll::lift::RetKind;
using dbll::lift::Signature;
using dbll::runtime::CompileRequest;
using dbll::spmv::CsrBuilder;
using dbll::spmv::CsrMatrix;
namespace st = dbll::stencil;

std::uint64_t Rng::Next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

double Rng::Uniform() {
  return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

long Rng::Range(long lo, long hi) {
  const auto span = static_cast<std::uint64_t>(hi - lo + 1);
  return lo + static_cast<long>(Next() % span);
}

Rng Stream(std::uint64_t seed, std::uint64_t purpose, std::uint64_t index) {
  Rng mix(seed * 0x100000001b3ull ^ (purpose << 48) ^ index);
  mix.Next();
  return Rng(mix.Next());
}

void InputHash::Add(const void* data, std::size_t size) {
  const auto* bytes = static_cast<const std::uint8_t*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    hash_ = (hash_ ^ bytes[i]) * 0x100000001b3ull;
  }
}

Zipf::Zipf(std::size_t n, double s) : cdf_(n) {
  double sum = 0;
  for (std::size_t i = 0; i < n; ++i) {
    sum += 1.0 / std::pow(static_cast<double>(i + 1), s);
    cdf_[i] = sum;
  }
  for (double& c : cdf_) c /= sum;
}

std::size_t Zipf::Draw(Rng& rng) const {
  const double u = rng.Uniform();
  const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  return std::min<std::size_t>(static_cast<std::size_t>(it - cdf_.begin()),
                               cdf_.size() - 1);
}

Grid::Grid(long grid_rows)
    : rows(grid_rows),
      in(static_cast<std::size_t>(grid_rows * st::kMatrixSize), 0.0),
      out(in.size(), 0.0) {}

void Grid::Fill(std::uint64_t seed) {
  Rng rng(seed);
  for (double& v : in) v = rng.Uniform();
  std::fill(out.begin(), out.end(), 0.0);
}

bool Close(double got, double want) {
  return std::abs(got - want) <= 1e-9 * std::max(1.0, std::abs(want));
}

namespace {

Signature KernelSignature() {
  return Signature{{ArgKind::kInt, ArgKind::kInt, ArgKind::kInt,
                    ArgKind::kInt},
                   RetKind::kVoid};
}

template <typename Fn>
std::uint64_t Addr(Fn* fn) {
  return reinterpret_cast<std::uint64_t>(fn);
}

bool IsElement(Kind kind) {
  return kind == Kind::kElemDirect || kind == Kind::kElemFlat ||
         kind == Kind::kElemSorted || kind == Kind::kElemSortedPtr;
}

bool IsSparse(Kind kind) {
  return kind == Kind::kSpmvRow || kind == Kind::kSpmvFull;
}

std::uint64_t GenericEntry(Kind kind) {
  switch (kind) {
    case Kind::kElemDirect: return Addr(&st::stencil_apply_direct);
    case Kind::kElemFlat: return Addr(&st::stencil_apply_flat);
    case Kind::kElemSorted: return Addr(&st::stencil_apply_sorted);
    case Kind::kElemSortedPtr: return Addr(&st::stencil_apply_sorted_ptr);
    case Kind::kLineDirect: return Addr(&st::stencil_line_direct);
    case Kind::kLineFlat: return Addr(&st::stencil_line_flat);
    case Kind::kLineSorted: return Addr(&st::stencil_line_sorted);
    case Kind::kLineSortedPtr: return Addr(&st::stencil_line_sorted_ptr);
    case Kind::kSpmvRow: return Addr(&dbll::spmv::spmv_row);
    case Kind::kSpmvFull: return Addr(&dbll::spmv::spmv_full);
  }
  return 0;
}

const char* ShapeName(Kind kind) {
  switch (kind) {
    case Kind::kElemDirect:
    case Kind::kLineDirect: return "direct";
    case Kind::kElemFlat:
    case Kind::kLineFlat: return "flat";
    case Kind::kElemSorted:
    case Kind::kLineSorted: return "sorted";
    case Kind::kElemSortedPtr:
    case Kind::kLineSortedPtr: return "sorted_ptr";
    default: return "";
  }
}

/// Stencil description: distinct points in the 3x3 neighbourhood, each in one
/// of `groups` factor groups (the sorted layouts group points by factor).
struct Shape {
  struct Point {
    int dx, dy, group;
  };
  std::vector<Point> points;
  std::vector<double> factors;  // per group
};

Shape DrawShape(Rng& rng, bool fixed_shape) {
  Shape shape;
  std::vector<std::pair<int, int>> cells;
  for (int dy = -1; dy <= 1; ++dy) {
    for (int dx = -1; dx <= 1; ++dx) cells.emplace_back(dx, dy);
  }
  for (std::size_t i = cells.size(); i > 1; --i) {
    std::swap(cells[i - 1],
              cells[static_cast<std::size_t>(rng.Range(0, static_cast<long>(i) - 1))]);
  }
  const long points = fixed_shape ? 5 : rng.Range(2, st::kMaxPoints);
  const long groups =
      fixed_shape ? 2 : rng.Range(1, std::min<long>(points, st::kMaxGroups));
  for (long g = 0; g < groups; ++g) {
    shape.factors.push_back(rng.Uniform() * 2.0 - 1.0);
  }
  for (long i = 0; i < points; ++i) {
    // The first `groups` points seed one group each, so none is empty.
    const int group = static_cast<int>(i < groups ? i : rng.Range(0, groups - 1));
    shape.points.push_back({cells[static_cast<std::size_t>(i)].first,
                            cells[static_cast<std::size_t>(i)].second, group});
  }
  return shape;
}

}  // namespace

void Spec::SetFamily(const char* shape) {
  family_ = std::string(IsElement(kind) ? "elem." : "line.") + shape;
}

const void* Spec::Desc(bool reference) const {
  switch (kind) {
    case Kind::kElemFlat:
    case Kind::kLineFlat: return reference ? &ref_flat_ : &flat_;
    case Kind::kElemSorted:
    case Kind::kLineSorted: return reference ? &ref_sorted_ : &sorted_;
    case Kind::kElemSortedPtr:
    case Kind::kLineSortedPtr:
      return reference ? &ref_sorted_ptr_ : &sorted_ptr_;
    case Kind::kSpmvRow:
    case Kind::kSpmvFull: return &csr_;
    default: return nullptr;
  }
}

std::unique_ptr<Spec> Spec::Stencil(Kind kind, Rng& rng, bool fixed_shape) {
  auto spec = std::make_unique<Spec>();
  spec->kind = kind;
  spec->generic_ = GenericEntry(kind);
  spec->SetFamily(ShapeName(kind));
  if (kind == Kind::kElemDirect || kind == Kind::kLineDirect) return spec;
  const Shape shape = DrawShape(rng, fixed_shape);
  spec->flat_.point_count = static_cast<int>(shape.points.size());
  for (std::size_t i = 0; i < shape.points.size(); ++i) {
    const Shape::Point& p = shape.points[i];
    spec->flat_.points[i] = {shape.factors[static_cast<std::size_t>(p.group)],
                             p.dx, p.dy};
  }
  spec->sorted_.group_count = static_cast<int>(shape.factors.size());
  for (std::size_t g = 0; g < shape.factors.size(); ++g) {
    st::SortedGroup& group = spec->sorted_.groups[g];
    group.factor = shape.factors[g];
    for (const Shape::Point& p : shape.points) {
      if (static_cast<std::size_t>(p.group) != g) continue;
      group.points[group.point_count++] = {p.dx, p.dy};
    }
  }
  spec->groups_.assign(spec->sorted_.groups,
                       spec->sorted_.groups + spec->sorted_.group_count);
  spec->sorted_ptr_ = {spec->sorted_.group_count, spec->groups_.data()};
  spec->ref_flat_ = spec->flat_;
  spec->ref_sorted_ = spec->sorted_;
  spec->ref_groups_ = spec->groups_;
  spec->ref_sorted_ptr_ = {spec->sorted_.group_count, spec->ref_groups_.data()};
  return spec;
}

std::unique_ptr<Spec> Spec::Jacobi(Kind kind, Rng& rng) {
  auto spec = std::make_unique<Spec>();
  spec->kind = kind;
  spec->generic_ = GenericEntry(kind);
  spec->SetFamily(ShapeName(kind));
  const double factor = 0.25 * (1.0 + 0.01 * (rng.Uniform() - 0.5));
  const int offsets[4][2] = {{-1, 0}, {1, 0}, {0, -1}, {0, 1}};
  spec->flat_.point_count = 4;
  spec->sorted_.group_count = 1;
  st::SortedGroup& group = spec->sorted_.groups[0];
  group.factor = factor;
  group.point_count = 4;
  for (int i = 0; i < 4; ++i) {
    spec->flat_.points[i] = {factor, offsets[i][0], offsets[i][1]};
    group.points[i] = {offsets[i][0], offsets[i][1]};
  }
  spec->groups_.assign(1, group);
  spec->sorted_ptr_ = {1, spec->groups_.data()};
  spec->ref_flat_ = spec->flat_;
  spec->ref_sorted_ = spec->sorted_;
  spec->ref_groups_ = spec->groups_;
  spec->ref_sorted_ptr_ = {1, spec->ref_groups_.data()};
  return spec;
}

std::unique_ptr<Spec> Spec::Sparse(Kind kind, bool banded, long n, Rng& rng,
                                   bool fixed_shape) {
  auto spec = std::make_unique<Spec>();
  spec->kind = kind;
  spec->generic_ = GenericEntry(kind);
  spec->family_ = std::string(kind == Kind::kSpmvRow ? "spmv.row." : "spmv.full.") +
                  (banded ? "banded" : "random");
  spec->csr_builder_ = std::make_unique<CsrBuilder>(n, n);
  if (banded) {
    std::vector<long> offsets{0};
    if (fixed_shape) offsets = {-16, -1, 0, 1, 16};
    const long diagonals = fixed_shape ? 5 : rng.Range(2, 6);
    while (static_cast<long>(offsets.size()) < diagonals) {
      const long off = rng.Range(-16, 16);
      if (std::find(offsets.begin(), offsets.end(), off) == offsets.end()) {
        offsets.push_back(off);
      }
    }
    std::sort(offsets.begin(), offsets.end());
    for (long r = 0; r < n; ++r) {
      for (long off : offsets) {
        if (r + off >= 0 && r + off < n) {
          spec->csr_builder_->Add(r, r + off, rng.Uniform() + 0.5);
        }
      }
    }
  } else {
    const long per_row = fixed_shape ? 8 : rng.Range(2, 8);
    for (long r = 0; r < n; ++r) {
      std::vector<long> cols;
      while (static_cast<long>(cols.size()) < per_row) {
        const long c = rng.Range(0, n - 1);
        if (std::find(cols.begin(), cols.end(), c) == cols.end()) {
          cols.push_back(c);
        }
      }
      std::sort(cols.begin(), cols.end());
      for (long c : cols) spec->csr_builder_->Add(r, c, rng.Uniform() + 0.5);
    }
  }
  spec->csr_ = spec->csr_builder_->Finish();
  return spec;
}

std::unique_ptr<Spec> Spec::Any(std::size_t index, Rng& rng, bool fixed_shape) {
  static constexpr Kind kStencil[] = {Kind::kLineFlat, Kind::kLineSorted,
                                      Kind::kLineSortedPtr, Kind::kElemFlat,
                                      Kind::kElemSorted, Kind::kElemSortedPtr};
  const std::size_t family = index % 10;
  if (family < 6) return Stencil(kStencil[family], rng, fixed_shape);
  const Kind kind = family < 8 ? Kind::kSpmvRow : Kind::kSpmvFull;
  const bool banded = family % 2 == 0;
  return fixed_shape ? Sparse(kind, banded, 64, rng, true)
                     : Sparse(kind, banded, rng.Range(32, 96), rng);
}

CompileRequest Spec::Request() const {
  CompileRequest request(generic_, KernelSignature());
  switch (kind) {
    case Kind::kElemDirect:
    case Kind::kLineDirect: break;
    case Kind::kElemFlat:
    case Kind::kLineFlat:
      request.FixConstMem(0, &flat_, sizeof(flat_));
      break;
    case Kind::kElemSorted:
    case Kind::kLineSorted:
      request.FixConstMem(0, &sorted_, sizeof(sorted_));
      break;
    case Kind::kElemSortedPtr:
    case Kind::kLineSortedPtr:
      request.FixConstMem(0, &sorted_ptr_, sizeof(sorted_ptr_));
      request.AddConstRange(groups_.data(),
                            groups_.size() * sizeof(st::SortedGroup));
      break;
    case Kind::kSpmvRow:
    case Kind::kSpmvFull: {
      const auto nnz = static_cast<std::size_t>(csr_.row_start[csr_.rows]);
      request.FixConstMem(0, &csr_, sizeof(csr_));
      request.AddConstRange(csr_.row_start,
                            static_cast<std::size_t>(csr_.rows + 1) * sizeof(long));
      request.AddConstRange(csr_.col_idx, nnz * sizeof(long));
      request.AddConstRange(csr_.values, nnz * sizeof(double));
      if (kind == Kind::kSpmvFull) {
        request.FixParam(3, static_cast<std::uint64_t>(csr_.rows));
      }
      break;
    }
  }
  return request;
}

long Spec::Calls(long grid_rows) const {
  if (kind == Kind::kSpmvRow) return csr_.rows;
  if (kind == Kind::kSpmvFull) return 1;
  return grid_rows - 2;
}

long Spec::RowOf(long k, long grid_rows) const {
  if (kind == Kind::kSpmvRow) return k % csr_.rows;
  if (kind == Kind::kSpmvFull) return csr_.rows;
  return 1 + k % (grid_rows - 2);
}

bool Spec::SingleInvocation() const { return !IsElement(kind); }

double Spec::WorkPerCall() const {
  if (IsSparse(kind)) {
    const auto nnz = static_cast<double>(csr_.row_start[csr_.rows]);
    return kind == Kind::kSpmvFull ? nnz : nnz / static_cast<double>(csr_.rows);
  }
  return static_cast<double>(st::kMatrixSize - 2);
}

std::uint64_t Spec::DbrewInput() const {
  switch (kind) {
    case Kind::kLineDirect: return Addr(&st::stencil_line_direct_outlined);
    case Kind::kLineFlat: return Addr(&st::stencil_line_flat_outlined);
    case Kind::kLineSorted: return Addr(&st::stencil_line_sorted_outlined);
    case Kind::kLineSortedPtr: return Addr(&st::stencil_line_sorted_ptr_outlined);
    default: return generic_;
  }
}

namespace {

void Invoke(Kind kind, std::uint64_t entry, const void* desc, const double* in,
            double* out, long row) {
  if (IsElement(kind)) {
    const auto fn = reinterpret_cast<st::ElementKernel>(entry);
    const long base = row * st::kMatrixSize;
    for (long x = 1; x < st::kMatrixSize - 1; ++x) fn(desc, in, out, base + x);
    return;
  }
  reinterpret_cast<st::LineKernel>(entry)(desc, in, out, row);
}

}  // namespace

void Spec::Call(std::uint64_t entry, const double* in, double* out,
                long row) const {
  Invoke(kind, entry, Desc(false), in, out, row);
}

void Spec::CallReference(const double* in, double* out, long row) const {
  Invoke(kind, generic_, Desc(true), in, out, row);
}

bool Spec::OutputsMatch(const Grid& got, const Grid& want) const {
  std::size_t begin = 0;
  std::size_t end = 0;
  if (IsSparse(kind)) {
    end = static_cast<std::size_t>(csr_.rows);
  } else {
    begin = static_cast<std::size_t>(st::kMatrixSize);
    end = static_cast<std::size_t>((got.rows - 1) * st::kMatrixSize);
  }
  for (std::size_t i = begin; i < end; ++i) {
    if (!Close(got.out[i], want.out[i])) return false;
  }
  return true;
}

bool Spec::CorruptReference() {
  switch (kind) {
    case Kind::kElemFlat:
    case Kind::kLineFlat: ref_flat_.points[0].factor += 0.5; return true;
    case Kind::kElemSorted:
    case Kind::kLineSorted: ref_sorted_.groups[0].factor += 0.5; return true;
    case Kind::kElemSortedPtr:
    case Kind::kLineSortedPtr: ref_groups_[0].factor += 0.5; return true;
    default: return false;
  }
}

void Spec::Hash(InputHash& hash) const {
  hash.AddValue(kind);
  hash.Add(family_.data(), family_.size());
  switch (kind) {
    case Kind::kElemFlat:
    case Kind::kLineFlat: hash.AddValue(flat_); break;
    case Kind::kElemSorted:
    case Kind::kLineSorted: hash.AddValue(sorted_); break;
    case Kind::kElemSortedPtr:
    case Kind::kLineSortedPtr:
      hash.Add(groups_.data(), groups_.size() * sizeof(st::SortedGroup));
      break;
    case Kind::kSpmvRow:
    case Kind::kSpmvFull: {
      const auto nnz = static_cast<std::size_t>(csr_.row_start[csr_.rows]);
      hash.AddValue(csr_.rows);
      hash.Add(csr_.row_start, static_cast<std::size_t>(csr_.rows + 1) * sizeof(long));
      hash.Add(csr_.col_idx, nnz * sizeof(long));
      hash.Add(csr_.values, nnz * sizeof(double));
      break;
    }
    default: break;
  }
}

}  // namespace perfbench
