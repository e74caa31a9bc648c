// Message-level views of net::Network's byte-level hooks, for tests that
// tamper with or observe protocol messages rather than raw frames.
#pragma once

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "net/network.h"
#include "wire/codec.h"

namespace idgka::hooks {

/// Frame tamper hook that hands `fn` the decoded message. `fn` may modify
/// it or return false to jam the copy; only a changed message is re-encoded.
inline net::Network::FrameTamperHook typed_tamper(
    std::function<bool(net::Message&, std::uint32_t receiver)> fn) {
  return [fn = std::move(fn)](std::vector<std::uint8_t>& bytes, std::uint32_t receiver) {
    net::Message msg = wire::decode(bytes);
    const net::Message original = msg;
    if (!fn(msg, receiver)) return false;
    if (!(msg == original)) {
      const wire::Frame rewritten = wire::encode(msg);
      bytes.assign(rewritten.bytes().begin(), rewritten.bytes().end());
    }
    return true;
  };
}

/// Frame sniffer that hands `fn` the decoded view of every transmitted frame.
inline net::Network::FrameSniffer typed_sniffer(std::function<void(const net::Message&)> fn) {
  return [fn = std::move(fn)](const wire::Frame& frame) { fn(wire::decode(frame)); };
}

}  // namespace idgka::hooks
