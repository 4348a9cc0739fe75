#include "phy/symbol_grid.h"

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

namespace silence {
namespace {

// Every byte of `row` is zero: +0.0 in both parts, so a -0.0 fails.
bool all_zero_bytes(std::span<const Cx> row) {
  const std::vector<unsigned char> zeros(row.size_bytes(), 0);
  return std::memcmp(row.data(), zeros.data(), zeros.size()) == 0;
}

TEST(SymbolGrid, NewRowsAreAllZeroBytes) {
  SymbolGrid grid(64);
  grid.reserve(4);
  for (int s = 0; s < 4; ++s) {
    const auto row = grid.append();
    EXPECT_TRUE(all_zero_bytes(row)) << "append within reserve, row " << s;
    for (Cx& x : row) x = Cx{-0.0, -1.5};  // dirty it for the next checks
  }
  // Past the reserve: the buffer reallocates.
  for (int s = 4; s < 40; ++s) {
    EXPECT_TRUE(all_zero_bytes(grid.append())) << "append, row " << s;
  }
  // Shrink, then grow again over storage that held nonzero cells.
  grid.resize(1);
  grid.resize(4);
  for (std::size_t s = 1; s < 4; ++s) {
    EXPECT_TRUE(all_zero_bytes(grid[s])) << "resize, row " << s;
  }
  grid.clear();
  grid.resize(200);
  EXPECT_TRUE(all_zero_bytes(grid.cells())) << "resize past capacity";
}

}  // namespace
}  // namespace silence
