// Bulk bit-packing kernels for 61-bit values.
//
// The masked wire codec (support/bytes.h) packs canonical Mersenne-61
// field elements at 61 bits each. Eight such values occupy exactly
// 61 bytes (8 * 61 = 488 bits), so the stream stays byte-aligned at every
// 8-value boundary and full blocks can be assembled with straight 64-bit
// word shifts. The layout is LSB-first, value k at bit offset 61*k; the
// codec packs every full block here and its sub-block tail as one
// zero-padded block, so these kernels define every packed wire byte
// (support_test pins them against a bit-by-bit reference).
//
// Dispatch mirrors the field kernels (see field/fp.h): the AVX2 variant
// runs when m61simd::available() (the one cached CPU probe) says so, and
// the portable variant otherwise — including every -DSSBFT_SIMD=off build.
#pragma once

#include <cstddef>
#include <cstdint>

namespace ssbft {
namespace bitpack61 {

constexpr unsigned kValueBits = 61;
constexpr std::size_t kBlockValues = 8;
constexpr std::size_t kBlockBytes = 61;  // 8 * 61 bits, byte-aligned

// Packs v[0..8) (each < 2^61) into exactly 61 bytes at out, LSB-first.
void pack_block(const std::uint64_t* v, std::uint8_t* out);

// Unpacks 61 bytes at in into v[0..8), masking each value to 61 bits.
void unpack_block(const std::uint8_t* in, std::uint64_t* v);

// Portable reference variants (exposed so tests can cross-check the
// dispatched kernels on AVX2 machines).
void pack_block_portable(const std::uint64_t* v, std::uint8_t* out);
void unpack_block_portable(const std::uint8_t* in, std::uint64_t* v);

}  // namespace bitpack61
}  // namespace ssbft
