// A (symbols x width) grid of complex points in one contiguous buffer.
//
// The PHY hot paths used to model per-symbol data as std::vector<CxVec>,
// which costs one heap allocation per OFDM symbol. SymbolGrid keeps the
// same row-indexed access (grid[s][k]) but stores all rows back to back,
// so a whole packet's grid is a single allocation and appending a row in
// steady state allocates nothing once capacity is reserved.
#pragma once

#include <cstddef>
#include <iterator>
#include <span>
#include <stdexcept>

#include "dsp/fft.h"

namespace silence {

class SymbolGrid {
 public:
  SymbolGrid() = default;
  explicit SymbolGrid(int width)
      : width_(width > 0 ? static_cast<std::size_t>(width) : 0) {}

  // Row width in points (0 until fixed by construction or first push).
  int width() const { return static_cast<int>(width_); }
  std::size_t size() const { return width_ == 0 ? 0 : cells_.size() / width_; }
  bool empty() const { return cells_.empty(); }

  // Drops all rows but keeps the width and the allocated capacity.
  void clear() { cells_.clear(); }
  void reserve(std::size_t rows) { cells_.reserve(rows * width_); }
  // New cells are value-initialized, which for std::complex<double> is
  // (+0.0, +0.0). Growing with an explicit fill value instead makes
  // libstdc++ reload the value from the stack for every element, a
  // store-forwarding stall each.
  void resize(std::size_t rows) {
    require_width();
    cells_.resize(rows * width_);
  }

  // Appends one zero-initialized row and returns a view of it.
  std::span<Cx> append() {
    require_width();
    cells_.resize(cells_.size() + width_);
    return std::span<Cx>(cells_).last(width_);
  }

  // Appends a copy of `row`. A default-constructed grid adopts the first
  // pushed row's width.
  std::span<Cx> push_back(std::span<const Cx> row) {
    if (width_ == 0 && cells_.empty()) width_ = row.size();
    if (row.size() != width_) {
      throw std::invalid_argument("SymbolGrid: row width mismatch");
    }
    cells_.insert(cells_.end(), row.begin(), row.end());
    return std::span<Cx>(cells_).last(width_);
  }

  std::span<Cx> operator[](std::size_t s) {
    return std::span<Cx>(cells_).subspan(s * width_, width_);
  }
  std::span<const Cx> operator[](std::size_t s) const {
    return std::span<const Cx>(cells_).subspan(s * width_, width_);
  }
  std::span<Cx> front() { return (*this)[0]; }
  std::span<const Cx> front() const { return (*this)[0]; }
  std::span<Cx> back() { return (*this)[size() - 1]; }
  std::span<const Cx> back() const { return (*this)[size() - 1]; }

  // Flat view over all rows (row-major).
  std::span<Cx> cells() { return cells_; }
  std::span<const Cx> cells() const { return cells_; }

  friend bool operator==(const SymbolGrid& a, const SymbolGrid& b) {
    return a.width_ == b.width_ && a.cells_ == b.cells_;
  }

  // Row iteration (`for (std::span<const Cx> row : grid)`).
  template <typename CxT>
  class RowIterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = std::span<CxT>;
    using difference_type = std::ptrdiff_t;

    RowIterator(CxT* p, std::size_t width) : p_(p), width_(width) {}
    value_type operator*() const { return {p_, width_}; }
    RowIterator& operator++() {
      p_ += width_;
      return *this;
    }
    RowIterator operator++(int) {
      RowIterator tmp = *this;
      ++*this;
      return tmp;
    }
    friend bool operator==(const RowIterator& a, const RowIterator& b) {
      return a.p_ == b.p_;
    }

   private:
    CxT* p_;
    std::size_t width_;
  };

  RowIterator<Cx> begin() { return {cells_.data(), width_}; }
  RowIterator<Cx> end() { return {cells_.data() + cells_.size(), width_}; }
  RowIterator<const Cx> begin() const { return {cells_.data(), width_}; }
  RowIterator<const Cx> end() const {
    return {cells_.data() + cells_.size(), width_};
  }

 private:
  void require_width() const {
    if (width_ == 0) {
      throw std::logic_error("SymbolGrid: width not set");
    }
  }

  CxVec cells_;
  std::size_t width_ = 0;
};

}  // namespace silence
