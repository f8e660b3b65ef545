#include "support/bytes.h"

#include <cstring>

#include "support/bitpack61.h"
#include "support/check.h"

namespace ssbft {

void ByteWriter::u8(std::uint8_t v) { buf_.push_back(v); }

void ByteWriter::u16(std::uint16_t v) {
  buf_.push_back(static_cast<std::uint8_t>(v));
  buf_.push_back(static_cast<std::uint8_t>(v >> 8));
}

void ByteWriter::u32(std::uint32_t v) {
  for (int i = 0; i < 4; ++i) buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void ByteWriter::u64(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void ByteWriter::u64_vec(const std::vector<std::uint64_t>& v) {
  u64_vec(v.data(), v.size());
}

void ByteWriter::u64_vec(const std::uint64_t* data, std::size_t len) {
  u32(static_cast<std::uint32_t>(len));
  for (std::size_t i = 0; i < len; ++i) u64(data[i]);
}

void ByteWriter::bytes(const Bytes& v) {
  u32(static_cast<std::uint32_t>(v.size()));
  buf_.insert(buf_.end(), v.begin(), v.end());
}

void ByteWriter::masked_u64_vec(const std::uint64_t* data, std::size_t len,
                                std::uint64_t absent) {
  constexpr std::size_t kBlock = bitpack61::kBlockValues;
  const std::size_t mask_bytes = (len + 7) / 8;
  std::size_t present = 0;
  for (std::size_t i = 0; i < len; ++i) present += data[i] != absent;
  const std::size_t packed_bytes = (present * bitpack61::kValueBits + 7) / 8;
  // One zero-filling resize sizes mask and packed region exactly; the
  // loop below sets mask bits and writes whole blocks.
  const std::size_t start = buf_.size();
  buf_.resize(start + mask_bytes + packed_bytes, 0);
  std::uint8_t* const mask = buf_.data() + start;
  std::uint8_t* out = mask + mask_bytes;
  std::uint64_t stage[kBlock];
  std::size_t staged = 0;
  for (std::size_t i = 0; i < len; ++i) {
    if (data[i] == absent) continue;
    SSBFT_REQUIRE_MSG(data[i] >> bitpack61::kValueBits == 0,
                      "masked_u64_vec: value wider than 61 bits");
    mask[i >> 3] |= static_cast<std::uint8_t>(1u << (i & 7));
    stage[staged++] = data[i];
    if (staged == kBlock) {
      bitpack61::pack_block(stage, out);
      out += bitpack61::kBlockBytes;
      staged = 0;
    }
  }
  if (staged == 0) return;
  // Sub-block tail: zero values pack to zero bits, so a zero-padded block
  // holds the tail's bits followed by the required zero padding.
  for (std::size_t j = staged; j < kBlock; ++j) stage[j] = 0;
  std::uint8_t block[bitpack61::kBlockBytes];
  bitpack61::pack_block(stage, block);
  std::memcpy(out, block, (staged * bitpack61::kValueBits + 7) / 8);
}

void ByteWriter::bits(const std::uint64_t* words, std::size_t nbits) {
  for (std::size_t base = 0; base < nbits; base += 8) {
    buf_.push_back(
        static_cast<std::uint8_t>(words[base / 64] >> (base % 64)));
  }
}

bool ByteReader::take(std::size_t len, const std::uint8_t** out) {
  if (!ok_ || buf_->size() - pos_ < len) {
    ok_ = false;
    return false;
  }
  *out = buf_->data() + pos_;
  pos_ += len;
  return true;
}

std::uint8_t ByteReader::u8() {
  const std::uint8_t* p = nullptr;
  if (!take(1, &p)) return 0;
  return p[0];
}

std::uint16_t ByteReader::u16() {
  const std::uint8_t* p = nullptr;
  if (!take(2, &p)) return 0;
  return static_cast<std::uint16_t>(p[0] | (p[1] << 8));
}

std::uint32_t ByteReader::u32() {
  const std::uint8_t* p = nullptr;
  if (!take(4, &p)) return 0;
  std::uint32_t v = 0;
  for (int i = 3; i >= 0; --i) v = (v << 8) | p[i];
  return v;
}

std::uint64_t ByteReader::u64() {
  const std::uint8_t* p = nullptr;
  if (!take(8, &p)) return 0;
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | p[i];
  return v;
}

std::vector<std::uint64_t> ByteReader::u64_vec(std::size_t max_elems) {
  std::uint32_t n = u32();
  if (!ok_ || n > max_elems || remaining() < std::size_t{n} * 8) {
    ok_ = false;
    return {};
  }
  std::vector<std::uint64_t> v(n);
  for (auto& x : v) x = u64();
  return v;
}

std::size_t ByteReader::u64_vec_into(std::uint64_t* dst,
                                     std::size_t max_elems) {
  std::uint32_t n = u32();
  if (!ok_ || n > max_elems || remaining() < std::size_t{n} * 8) {
    ok_ = false;
    return 0;
  }
  for (std::uint32_t i = 0; i < n; ++i) dst[i] = u64();
  return n;
}

bool ByteReader::masked_u64_vec_into(std::uint64_t* dst, std::size_t len,
                                     std::uint64_t absent) {
  constexpr std::size_t kBlock = bitpack61::kBlockValues;
  const std::size_t mask_bytes = (len + 7) / 8;
  const std::uint8_t* mask = nullptr;
  if (!take(mask_bytes, &mask)) return false;
  // Count the present entries; nonzero mask bits >= len are non-canonical.
  std::size_t present = 0;
  for (std::size_t i = 0; i < mask_bytes; ++i) {
    std::uint8_t m = mask[i];
    if (i + 1 == mask_bytes && len % 8 != 0) {
      if ((m >> (len % 8)) != 0) {
        ok_ = false;
        return false;
      }
    }
    for (; m != 0; m &= static_cast<std::uint8_t>(m - 1)) ++present;
  }
  const std::size_t packed_bits = present * bitpack61::kValueBits;
  const std::size_t packed_bytes = (packed_bits + 7) / 8;
  const std::uint8_t* packed = nullptr;
  if (!take(packed_bytes, &packed)) return false;
  // Padding bits after the last value must be zero (canonical encoding;
  // also what makes encode(decode(x)) the identity on the wire).
  if (packed_bits % 8 != 0 &&
      (packed[packed_bytes - 1] >> (packed_bits % 8)) != 0) {
    ok_ = false;
    return false;
  }
  // Every check is done; values now come out of whole blocks, the last
  // (partial) one zero-padded to full block size first.
  std::uint64_t stage[kBlock];
  std::size_t next = kBlock, pos = 0;
  for (std::size_t i = 0; i < len; ++i) {
    if ((mask[i / 8] >> (i % 8) & 1u) == 0) {
      dst[i] = absent;
      continue;
    }
    if (next == kBlock) {
      const std::size_t rest = packed_bytes - pos;
      if (rest >= bitpack61::kBlockBytes) {
        bitpack61::unpack_block(packed + pos, stage);
        pos += bitpack61::kBlockBytes;
      } else {
        std::uint8_t block[bitpack61::kBlockBytes] = {};
        std::memcpy(block, packed + pos, rest);
        bitpack61::unpack_block(block, stage);
        pos = packed_bytes;
      }
      next = 0;
    }
    dst[i] = stage[next++];
  }
  return true;
}

bool ByteReader::bits_into(std::uint64_t* words, std::size_t nbits) {
  const std::size_t nbytes = (nbits + 7) / 8;
  const std::uint8_t* p = nullptr;
  if (!take(nbytes, &p)) return false;
  if (nbits % 8 != 0 && (p[nbytes - 1] >> (nbits % 8)) != 0) {
    ok_ = false;
    return false;
  }
  for (std::size_t w = 0; w * 64 < nbits; ++w) words[w] = 0;
  for (std::size_t base = 0; base < nbits; base += 8) {
    words[base / 64] |=
        static_cast<std::uint64_t>(p[base / 8]) << (base % 64);
  }
  return true;
}

Bytes ByteReader::bytes(std::size_t max_len) {
  std::uint32_t n = u32();
  if (!ok_ || n > max_len || remaining() < n) {
    ok_ = false;
    return {};
  }
  const std::uint8_t* p = nullptr;
  take(n, &p);
  return Bytes(p, p + n);
}

std::string to_hex(const Bytes& b) {
  static const char* digits = "0123456789abcdef";
  std::string s;
  s.reserve(b.size() * 2);
  for (std::uint8_t c : b) {
    s.push_back(digits[c >> 4]);
    s.push_back(digits[c & 0xf]);
  }
  return s;
}

}  // namespace ssbft
