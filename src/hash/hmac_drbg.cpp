#include "hash/hmac_drbg.h"

#include <algorithm>
#include <vector>

namespace idgka::hash {

namespace {
constexpr std::array<std::uint8_t, 32> kInitialKey{};  // K = 0x00...00
}  // namespace

HmacDrbg::HmacDrbg(std::span<const std::uint8_t> seed) : mac_(kInitialKey) {
  v_.fill(0x01);
  update(seed);
}

HmacDrbg::HmacDrbg(std::string_view label)
    : HmacDrbg(std::span<const std::uint8_t>(
          reinterpret_cast<const std::uint8_t*>(label.data()), label.size())) {}

HmacDrbg::HmacDrbg(std::uint64_t seed, std::string_view label) : mac_(kInitialKey) {
  v_.fill(0x01);
  std::vector<std::uint8_t> material;
  material.reserve(8 + label.size());
  for (int i = 7; i >= 0; --i) material.push_back(static_cast<std::uint8_t>(seed >> (i * 8)));
  material.insert(material.end(), label.begin(), label.end());
  update(material);
}

void HmacDrbg::update(std::span<const std::uint8_t> provided) {
  // K = HMAC(K, V || 0x00 || provided); V = HMAC(K, V); and, when material
  // is provided, the same again with 0x01.
  const std::uint8_t rounds = provided.empty() ? 1 : 2;
  for (std::uint8_t separator = 0x00; separator < rounds; ++separator) {
    mac_ = HmacSha256(mac_.mac({v_, {&separator, 1}, provided}));
    v_ = mac_.mac(v_);
  }
}

void HmacDrbg::reseed(std::span<const std::uint8_t> material) { update(material); }

void HmacDrbg::fill(std::span<std::uint8_t> out) {
  std::size_t produced = 0;
  while (produced < out.size()) {
    v_ = mac_.mac(v_);
    const std::size_t take = std::min(v_.size(), out.size() - produced);
    std::copy_n(v_.begin(), take, out.begin() + static_cast<std::ptrdiff_t>(produced));
    produced += take;
  }
  update({});
}

}  // namespace idgka::hash
