// Internal seam between the kernels dispatch TU and the backend TUs.
//
// Each backend lives in its own translation unit so its ISA flags (-mavx2,
// -mavx512vpopcntdq) never leak into code that runs before dispatch has
// checked the CPU. kernels.cpp only links the table accessors that CMake
// compiled in (GENERIC_KERNELS_HAVE_*).
#pragma once

#include <cstddef>
#include <type_traits>

#include "hdc/kernels.h"

namespace generic::hdc::kernels::detail {

/// Split rows [r, nrows) into tiles for a *_many kernel: full tiles of R
/// rows, then the remainder in halving tiles (R = 4: 4, 4, ..., 2, 1), so
/// every row count runs through fully unrolled code. `tile` is called as
/// tile(std::integral_constant<std::size_t, rows_in_tile>{}, first_row).
template <std::size_t R, typename Tile>
void row_tiles(std::size_t nrows, Tile&& tile, std::size_t r = 0) {
  for (; r + R <= nrows; r += R)
    tile(std::integral_constant<std::size_t, R>{}, r);
  if constexpr (R > 1) row_tiles<R / 2>(nrows, tile, r);
}

const Kernels& scalar_table();

#if defined(GENERIC_KERNELS_HAVE_AVX2)
const Kernels& avx2_table();
#endif

#if defined(GENERIC_KERNELS_HAVE_AVX512)
const Kernels& avx512_table();
#endif

#if defined(GENERIC_KERNELS_HAVE_NEON)
const Kernels& neon_table();
#endif

}  // namespace generic::hdc::kernels::detail
