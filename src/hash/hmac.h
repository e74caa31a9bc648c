// HMAC-SHA256 (RFC 2104 / FIPS 198-1).
#pragma once

#include <cstdint>
#include <initializer_list>
#include <span>

#include "hash/sha256.h"

namespace idgka::hash {

/// HMAC-SHA256 under one key. The constructor compresses K xor ipad and
/// K xor opad once and keeps both SHA-256 midstates (RFC 2104 §4), so each
/// `mac` costs only the message blocks plus one outer block instead of
/// re-hashing the padded key twice.
class HmacSha256 {
 public:
  explicit HmacSha256(std::span<const std::uint8_t> key);

  /// HMAC of the concatenation of `parts`, streamed into the inner state.
  [[nodiscard]] Sha256::Digest mac(
      std::initializer_list<std::span<const std::uint8_t>> parts) const;
  [[nodiscard]] Sha256::Digest mac(std::span<const std::uint8_t> data) const {
    return mac({data});
  }

 private:
  Sha256 inner_;  ///< state after absorbing K xor ipad
  Sha256 outer_;  ///< state after absorbing K xor opad
};

/// HMAC-SHA256 of `data` under `key` (one-shot HmacSha256).
[[nodiscard]] Sha256::Digest hmac_sha256(std::span<const std::uint8_t> key,
                                         std::span<const std::uint8_t> data);

}  // namespace idgka::hash
