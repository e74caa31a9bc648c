// SHA-256 / HMAC / HMAC-DRBG tests against published vectors.
#include <gtest/gtest.h>

#include "hash/hmac.h"
#include "hash/hmac_drbg.h"
#include "hash/sha256.h"

namespace idgka::hash {
namespace {

std::string hex(std::span<const std::uint8_t> bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (const auto b : bytes) {
    out.push_back(kDigits[b >> 4]);
    out.push_back(kDigits[b & 0xF]);
  }
  return out;
}

TEST(Sha256, Fips180Vectors) {
  EXPECT_EQ(hex(Sha256::digest(std::string_view{""})),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(hex(Sha256::digest(std::string_view{"abc"})),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(hex(Sha256::digest(std::string_view{
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"})),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionA) {
  Sha256 h;
  const std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(chunk);
  EXPECT_EQ(hex(h.finalize()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, IncrementalMatchesOneShot) {
  const std::string msg = "The quick brown fox jumps over the lazy dog";
  for (std::size_t split = 0; split <= msg.size(); ++split) {
    Sha256 h;
    h.update(std::string_view(msg).substr(0, split));
    h.update(std::string_view(msg).substr(split));
    EXPECT_EQ(h.finalize(), Sha256::digest(std::string_view{msg})) << "split=" << split;
  }
}

TEST(Sha256, BoundarySizes) {
  // Padding around the 55/56/64-byte boundaries: one-shot and byte-at-a-time
  // agree, and the lengths where the length field does or does not fit the
  // last block match Python hashlib digests of 'x' * len.
  const std::pair<std::size_t, std::string_view> known[] = {
      {55, "d5e285683cd4efc02d021a5c62014694958901005d6f71e89e0989fac77e4072"},
      {56, "04c26261370ee7541549d16dee320c723e3fd14671e66a099afe0a377c16888e"},
      {63, "75220b47218278e656f2013bb8f0c455a25eaf01e86c64924e9d48d89776d6f2"},
      {64, "7ce100971f64e7001e8fe5a51973ecdfe1ced42befe7ee8d5fd6219506b5393c"},
      {119, "000b48d4edf0fa7bee3c6236ecd2785baa5db4eeb8bb54341b029e0d9fa5fb0c"},
      {120, "13f05a0b594787f5ecd315edc96141bd3243203d1b7d4f0836f37308b276ba98"},
  };
  for (const auto& [len, digest] : known) {
    EXPECT_EQ(hex(Sha256::digest(std::string(len, 'x'))), digest) << "len=" << len;
  }
  for (std::size_t len : {55U, 56U, 57U, 63U, 64U, 65U, 119U, 120U, 128U}) {
    const std::string msg(len, 'x');
    Sha256 a;
    a.update(std::string_view{msg});
    Sha256 b;
    for (char c : msg) b.update(std::string_view(&c, 1));
    EXPECT_EQ(a.finalize(), b.finalize()) << "len=" << len;
  }
}

TEST(Sha256, EveryLengthIncrementalMatchesOneShot) {
  // Lengths 0..200 cover every padding position over three blocks. Each
  // length is hashed one-shot, byte at a time and in three uneven pieces;
  // the one-shot digests, chained, match the Python hashlib digest of the
  // same chain.
  std::vector<std::uint8_t> msg(200);
  for (std::size_t i = 0; i < msg.size(); ++i) msg[i] = static_cast<std::uint8_t>(i * 37 + 11);
  Sha256 chain;
  for (std::size_t len = 0; len <= msg.size(); ++len) {
    const std::span<const std::uint8_t> m(msg.data(), len);
    const auto one_shot = Sha256::digest(m);
    Sha256 bytes;
    for (std::size_t i = 0; i < len; ++i) bytes.update(m.subspan(i, 1));
    EXPECT_EQ(bytes.finalize(), one_shot) << "len=" << len;
    Sha256 pieces;
    pieces.update(m.first(len / 3)).update(m.subspan(len / 3, len / 2)).update(
        m.subspan(len / 3 + len / 2));
    EXPECT_EQ(pieces.finalize(), one_shot) << "len=" << len;
    chain.update(one_shot);
  }
  EXPECT_EQ(hex(chain.finalize()),
            "09bba6f21f157de4b22c6e4e84e0fe17119f27833e9cd1aaaeb82855755a2130");
}

TEST(Hmac, Rfc4231Vectors) {
  // Case 1
  std::vector<std::uint8_t> key(20, 0x0b);
  EXPECT_EQ(hex(hmac_sha256(key, Sha256::digest(std::string_view{""}))) .size(), 64U);
  const std::string_view data1 = "Hi There";
  EXPECT_EQ(hex(hmac_sha256(key, std::span<const std::uint8_t>(
                                     reinterpret_cast<const std::uint8_t*>(data1.data()),
                                     data1.size()))),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");

  // Case 2: key "Jefe", data "what do ya want for nothing?"
  const std::string_view key2 = "Jefe";
  const std::string_view data2 = "what do ya want for nothing?";
  EXPECT_EQ(hex(hmac_sha256(
                std::span<const std::uint8_t>(
                    reinterpret_cast<const std::uint8_t*>(key2.data()), key2.size()),
                std::span<const std::uint8_t>(
                    reinterpret_cast<const std::uint8_t*>(data2.data()), data2.size()))),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");

  // Case 6: 131-byte key (exceeds block size, must be hashed first).
  std::vector<std::uint8_t> key6(131, 0xaa);
  const std::string_view data6 = "Test Using Larger Than Block-Size Key - Hash Key First";
  EXPECT_EQ(hex(hmac_sha256(key6, std::span<const std::uint8_t>(
                                      reinterpret_cast<const std::uint8_t*>(data6.data()),
                                      data6.size()))),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

// RFC 2104's definition, written out: H((K' ^ opad) || H((K' ^ ipad) || m)),
// K' the key zero-padded to 64 bytes, or its digest when longer.
Sha256::Digest textbook_hmac(std::span<const std::uint8_t> key,
                             std::span<const std::uint8_t> data) {
  std::array<std::uint8_t, 64> k{};
  if (key.size() > 64) {
    const auto d = Sha256::digest(key);
    std::copy(d.begin(), d.end(), k.begin());
  } else {
    std::copy(key.begin(), key.end(), k.begin());
  }
  std::array<std::uint8_t, 64> ipad{};
  std::array<std::uint8_t, 64> opad{};
  for (std::size_t i = 0; i < k.size(); ++i) {
    ipad[i] = static_cast<std::uint8_t>(k[i] ^ 0x36);
    opad[i] = static_cast<std::uint8_t>(k[i] ^ 0x5c);
  }
  const auto inner_digest = Sha256::digest(concat({ipad, data}));
  return Sha256::digest(concat({opad, inner_digest}));
}

std::span<const std::uint8_t> bytes(std::string_view s) {
  return {reinterpret_cast<const std::uint8_t*>(s.data()), s.size()};
}

TEST(Hmac, KeyedMatchesOneShot) {
  // Key lengths around the 64-byte block: empty, short, exactly one block,
  // one byte over (hashed first) and RFC 4231's 131 bytes.
  std::vector<std::uint8_t> msg(150);
  for (std::size_t i = 0; i < msg.size(); ++i) msg[i] = static_cast<std::uint8_t>(i * 13 + 5);
  for (std::size_t key_len : {0U, 32U, 64U, 65U, 131U}) {
    std::vector<std::uint8_t> key(key_len);
    for (std::size_t i = 0; i < key_len; ++i) key[i] = static_cast<std::uint8_t>(i * 29 + 1);
    const HmacSha256 keyed(key);
    for (std::size_t len : {0U, 1U, 55U, 64U, 150U}) {
      const std::span<const std::uint8_t> m(msg.data(), len);
      const auto expect = textbook_hmac(key, m);
      EXPECT_EQ(keyed.mac(m), expect) << "key=" << key_len << " len=" << len;
      EXPECT_EQ(hmac_sha256(key, m), expect) << "key=" << key_len << " len=" << len;
      EXPECT_EQ(keyed.mac({m.first(len / 3), m.subspan(len / 3)}), expect)
          << "key=" << key_len << " len=" << len;
    }
  }

  // One keyed object reused: RFC 4231 cases 6 and 7 share the 131-byte key.
  const std::vector<std::uint8_t> key(131, 0xaa);
  const HmacSha256 keyed(key);
  EXPECT_EQ(hex(keyed.mac(bytes("Test Using Larger Than Block-Size Key - Hash Key First"))),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
  EXPECT_EQ(hex(keyed.mac(bytes("This is a test using a larger than block-size key and a "
                                "larger than block-size data. The key needs to be hashed "
                                "before being used by the HMAC algorithm."))),
            "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2");
  // And case 1 again through a keyed object.
  EXPECT_EQ(hex(HmacSha256(std::vector<std::uint8_t>(20, 0x0b)).mac(bytes("Hi There"))),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

struct DrbgStream {
  std::string fill100;
  std::string fill32;
  std::string reseed_fill48;
};

DrbgStream draw(HmacDrbg& drbg) {
  DrbgStream out;
  std::array<std::uint8_t, 100> a{};
  drbg.fill(a);
  out.fill100 = hex(a);
  std::array<std::uint8_t, 32> b{};
  drbg.fill(b);
  out.fill32 = hex(b);
  // 70 bytes of material: V || sep || material spans two SHA-256 blocks.
  std::array<std::uint8_t, 70> material{};
  for (std::size_t i = 0; i < material.size(); ++i) {
    material[i] = static_cast<std::uint8_t>(i * 7 + 3);
  }
  drbg.reseed(material);
  std::array<std::uint8_t, 48> c{};
  drbg.fill(c);
  out.reseed_fill48 = hex(c);
  return out;
}

TEST(HmacDrbg, KnownAnswerFromSeedBytes) {
  // Pinned output: a change to HMAC or to the DRBG's update/fill sequence
  // must not move a byte of any stream the simulator derives from seeds.
  HmacDrbg drbg(std::string_view{"idgka-kat-seed"});
  const DrbgStream s = draw(drbg);
  EXPECT_EQ(s.fill100,
            "4ffb162231cc49fd4e0ab8f7c6e390b610e5a8883a107248e29c16d5fd0dc0ec9f7bb560d89ea0e9"
            "e46c32a04a1c1367d6973df7405bffe99b1272caba9f86110df9a0ca39d149fe519ec9fe5e10f898"
            "c4766b4e698acb61567dc229c6140cfbc6e731b8");
  EXPECT_EQ(s.fill32, "77132372a35ae3439ec37874e414193a8fc2138fdb7872f7d04194d43afe8700");
  EXPECT_EQ(s.reseed_fill48,
            "1969833ca893919de7b53003ba64e7187cc6a0f0dcbfed30e05d6ec506320679b4f130602bcb31ff"
            "dfdc56ad44eb7ebf");
}

TEST(HmacDrbg, KnownAnswerFromSeedAndLabel) {
  HmacDrbg drbg(42, "kat");
  const DrbgStream s = draw(drbg);
  EXPECT_EQ(s.fill100,
            "cdd7d6edd969ccd75ee029013945a10be2cc5b0f6d4f047c0b4a6db4ae724dd32eef7d4c545be1cd"
            "28fc7b67c4823fbb4fc96978dd70bfc1ce92d82df9b37f8e51dff62414d47f42b23c7afcbe1b3b51"
            "fee637da37a5b63ec01fc0650e97e4504ac9eaa2");
  EXPECT_EQ(s.fill32, "94f1c2e72c69b616424d7772bb153414e59c1da3d374743004b2e1cdb22004f4");
  EXPECT_EQ(s.reseed_fill48,
            "6e225e482b0034cc1a1b26f710e154854a12eac4bce70aeb54866e3a4e7e66e4af767d2efa1abecc"
            "654e31f38cfe1db7");
}

TEST(HmacDrbg, DeterministicUnderSeed) {
  HmacDrbg a(42, "test");
  HmacDrbg b(42, "test");
  std::array<std::uint8_t, 64> buf_a{};
  std::array<std::uint8_t, 64> buf_b{};
  a.fill(buf_a);
  b.fill(buf_b);
  EXPECT_EQ(buf_a, buf_b);

  HmacDrbg c(42, "other-label");
  std::array<std::uint8_t, 64> buf_c{};
  c.fill(buf_c);
  EXPECT_NE(buf_a, buf_c);

  HmacDrbg d(43, "test");
  std::array<std::uint8_t, 64> buf_d{};
  d.fill(buf_d);
  EXPECT_NE(buf_a, buf_d);
}

TEST(HmacDrbg, StreamContinuityAndReseed) {
  HmacDrbg a(7, "x");
  std::array<std::uint8_t, 32> first{};
  std::array<std::uint8_t, 32> second{};
  a.fill(first);
  a.fill(second);
  EXPECT_NE(first, second);

  HmacDrbg b(7, "x");
  std::array<std::uint8_t, 32> again{};
  b.fill(again);
  EXPECT_EQ(first, again);
  const std::array<std::uint8_t, 4> extra{1, 2, 3, 4};
  b.reseed(extra);
  b.fill(again);
  EXPECT_NE(second, again);
}

TEST(HmacDrbg, ActsAsRngForBigInts) {
  HmacDrbg drbg(99, "bigint");
  const auto v = mpint::random_bits(drbg, 256);
  EXPECT_EQ(v.bit_length(), 256U);
  // Different draws differ.
  EXPECT_NE(mpint::random_bits(drbg, 256), v);
}

}  // namespace
}  // namespace idgka::hash
