// Independent Z_(2^61-1) arithmetic for the field property tests: plain
// `unsigned __int128 % p`, sharing no code with PrimeField's folds or the
// m61simd kernels, so a shared bug cannot hide on both sides.
#pragma once

#include <cstddef>
#include <cstdint>

namespace ssbft::testing::m61_oracle {

constexpr std::uint64_t kP = (std::uint64_t{1} << 61) - 1;

inline std::uint64_t mul(std::uint64_t a, std::uint64_t b) {
  return static_cast<std::uint64_t>(static_cast<unsigned __int128>(a) * b % kP);
}
inline std::uint64_t add(std::uint64_t a, std::uint64_t b) { return (a + b) % kP; }
inline std::uint64_t sub(std::uint64_t a, std::uint64_t b) { return (a + kP - b) % kP; }

inline std::uint64_t horner(const std::uint64_t* coeffs, std::size_t count,
                            std::uint64_t x) {
  std::uint64_t acc = 0;
  for (std::size_t i = count; i-- > 0;) acc = add(mul(acc, x), coeffs[i]);
  return acc;
}

// Fermat: a^(p-2) is the inverse of nonzero a.
inline std::uint64_t inv(std::uint64_t a) {
  std::uint64_t acc = 1;
  for (std::uint64_t e = kP - 2; e != 0; e >>= 1, a = mul(a, a)) {
    if (e & 1) acc = mul(acc, a);
  }
  return acc;
}

}  // namespace ssbft::testing::m61_oracle
