// Fences for the bsrd wire protocol (server/protocol.h):
//   * frame round-trips preserve every header field and the payload, and
//     the carried digest matches a recomputation;
//   * any flipped bit — header or payload — breaks the digest, and bad
//     magic / unsupported version / reserved bytes / bogus lengths are
//     rejected at decode, each with the documented status code;
//   * unknown opcodes decode fine (they are per-frame errors, not stream
//     poison);
//   * the payload codecs round-trip, including the null-draw sentinel,
//     and reject truncated or over-length buffers.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <vector>

#include "src/server/protocol.h"

namespace bloomsample {
namespace server {
namespace {

std::vector<uint8_t> SomePayload() { return {1, 2, 3, 250, 251, 252}; }

FrameHeader SomeHeader(uint32_t payload_len) {
  FrameHeader h;
  h.opcode = Opcode::kSample;
  h.status = WireStatus::kOk;
  h.request_id = 0x1122334455667788ull;
  h.budget_ms = 250;
  h.payload_len = payload_len;
  return h;
}

TEST(ProtocolTest, FrameRoundTripPreservesEverything) {
  const std::vector<uint8_t> payload = SomePayload();
  std::vector<uint8_t> frame;
  EncodeFrame(SomeHeader(payload.size()), payload.data(), payload.size(),
              &frame);
  ASSERT_EQ(frame.size(), kFrameHeaderBytes + payload.size());

  DecodedHeader decoded;
  const Status st =
      DecodeHeader(frame.data(), frame.size(), 1 << 20, &decoded);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(decoded.header.version, kProtocolVersion);
  EXPECT_EQ(decoded.header.opcode, Opcode::kSample);
  EXPECT_EQ(decoded.header.status, WireStatus::kOk);
  EXPECT_EQ(decoded.header.request_id, 0x1122334455667788ull);
  EXPECT_EQ(decoded.header.budget_ms, 250u);
  EXPECT_EQ(decoded.header.payload_len, payload.size());
  EXPECT_EQ(decoded.digest, FrameDigest(frame.data(),
                                        frame.data() + kFrameHeaderBytes,
                                        payload.size()));
}

TEST(ProtocolTest, EveryFlippedBitBreaksTheDigest) {
  const std::vector<uint8_t> payload = SomePayload();
  std::vector<uint8_t> frame;
  EncodeFrame(SomeHeader(payload.size()), payload.data(), payload.size(),
              &frame);
  DecodedHeader decoded;
  ASSERT_TRUE(DecodeHeader(frame.data(), frame.size(), 1 << 20, &decoded).ok());

  // Flip one bit of every digested byte (header [0,24) and the payload;
  // bytes [24,32) ARE the digest itself, so skip them).
  for (size_t i = 0; i < frame.size(); ++i) {
    if (i >= kFrameDigestedBytes && i < kFrameHeaderBytes) continue;
    std::vector<uint8_t> tampered = frame;
    tampered[i] ^= 0x10;
    EXPECT_NE(FrameDigest(tampered.data(),
                          tampered.data() + kFrameHeaderBytes,
                          payload.size()),
              decoded.digest)
        << "flipping byte " << i << " went undetected";
  }
}

TEST(ProtocolTest, RejectsBadMagicVersionReservedAndLength) {
  const std::vector<uint8_t> payload = SomePayload();
  std::vector<uint8_t> frame;
  EncodeFrame(SomeHeader(payload.size()), payload.data(), payload.size(),
              &frame);
  DecodedHeader decoded;

  std::vector<uint8_t> bad = frame;
  bad[0] ^= 0xFF;  // magic
  EXPECT_EQ(DecodeHeader(bad.data(), bad.size(), 1 << 20, &decoded).code(),
            Status::Code::kInvalidArgument);

  bad = frame;
  bad[4] = kProtocolVersion + 1;  // version
  EXPECT_EQ(DecodeHeader(bad.data(), bad.size(), 1 << 20, &decoded).code(),
            Status::Code::kUnsupported);

  bad = frame;
  bad[7] = 1;  // reserved must be zero
  EXPECT_EQ(DecodeHeader(bad.data(), bad.size(), 1 << 20, &decoded).code(),
            Status::Code::kInvalidArgument);

  // A frame declaring more payload than the peer's cap dies before any
  // buffering happens.
  EXPECT_EQ(DecodeHeader(frame.data(), frame.size(), /*max_payload=*/4,
                         &decoded)
                .code(),
            Status::Code::kOutOfRange);

  // Short buffer: not even a full header.
  EXPECT_FALSE(
      DecodeHeader(frame.data(), kFrameHeaderBytes - 1, 1 << 20, &decoded)
          .ok());
}

TEST(ProtocolTest, UnknownOpcodeIsNotAStreamError) {
  std::vector<uint8_t> frame;
  FrameHeader h = SomeHeader(0);
  EncodeFrame(h, nullptr, 0, &frame);
  frame[5] = 200;  // opcode byte: not a known Opcode
  // Re-seal the digest so only the opcode is "wrong".
  const uint64_t digest = FrameDigest(frame.data(), nullptr, 0);
  std::memcpy(frame.data() + kFrameDigestedBytes, &digest, 8);

  DecodedHeader decoded;
  const Status st =
      DecodeHeader(frame.data(), frame.size(), 1 << 20, &decoded);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(decoded.raw_opcode, 200);
  EXPECT_FALSE(OpcodeKnown(decoded.raw_opcode));
}

TEST(ProtocolTest, OpcodeIdempotencyGovernsTheRetryGate) {
  EXPECT_TRUE(OpcodeIdempotent(Opcode::kPing));
  EXPECT_TRUE(OpcodeIdempotent(Opcode::kSample));
  EXPECT_TRUE(OpcodeIdempotent(Opcode::kReconstruct));
  EXPECT_TRUE(OpcodeIdempotent(Opcode::kStats));
  EXPECT_FALSE(OpcodeIdempotent(Opcode::kInsert));
  EXPECT_FALSE(OpcodeIdempotent(Opcode::kRemove));
}

TEST(ProtocolTest, SampleRequestRoundTrip) {
  const std::vector<uint8_t> filter = {9, 8, 7, 6};
  SampleRequest req;
  req.count = 17;
  req.seed = 0xDEADBEEFCAFEull;
  req.filter = filter;
  std::vector<uint8_t> bytes;
  EncodeSampleRequest(req, &bytes);

  SampleRequest back;
  ASSERT_TRUE(DecodeSampleRequest(bytes.data(), bytes.size(), &back).ok());
  EXPECT_EQ(back.count, req.count);
  EXPECT_EQ(back.seed, req.seed);
  EXPECT_EQ(back.filter, req.filter);

  // Truncated below the fixed prefix: rejected.
  EXPECT_FALSE(DecodeSampleRequest(bytes.data(), 11, &back).ok());
}

TEST(ProtocolTest, ReconstructRequestRoundTrip) {
  const std::vector<uint8_t> filter = {1, 2, 3};
  ReconstructRequest req;
  req.exact = true;
  req.filter = filter;
  std::vector<uint8_t> bytes;
  EncodeReconstructRequest(req, &bytes);

  ReconstructRequest back;
  ASSERT_TRUE(
      DecodeReconstructRequest(bytes.data(), bytes.size(), &back).ok());
  EXPECT_TRUE(back.exact);
  EXPECT_EQ(back.filter, req.filter);
  EXPECT_FALSE(DecodeReconstructRequest(bytes.data(), 3, &back).ok());
}

TEST(ProtocolTest, IdListRoundTripIncludingEmpty) {
  for (const std::vector<uint64_t>& ids :
       {std::vector<uint64_t>{}, std::vector<uint64_t>{42, 0, ~0ull}}) {
    std::vector<uint8_t> bytes;
    EncodeIdList(ids, &bytes);
    std::vector<uint64_t> back;
    ASSERT_TRUE(DecodeIdList(bytes.data(), bytes.size(), &back).ok());
    EXPECT_EQ(back, ids);
  }

  // The id-list length is exact: trailing bytes mean a desynced stream.
  std::vector<uint8_t> bytes;
  EncodeIdList({1, 2}, &bytes);
  bytes.push_back(0);
  std::vector<uint64_t> back;
  EXPECT_FALSE(DecodeIdList(bytes.data(), bytes.size(), &back).ok());
  EXPECT_FALSE(DecodeIdList(bytes.data(), bytes.size() - 2, &back).ok());
}

TEST(ProtocolTest, DrawsRoundTripWithNullSentinel) {
  const std::vector<std::optional<uint64_t>> draws = {
      std::optional<uint64_t>(7), std::nullopt, std::optional<uint64_t>(0)};
  std::vector<uint8_t> bytes;
  EncodeDraws(draws, &bytes);
  std::vector<std::optional<uint64_t>> back;
  ASSERT_TRUE(DecodeDraws(bytes.data(), bytes.size(), &back).ok());
  EXPECT_EQ(back, draws);
}

TEST(ProtocolTest, StatusMappingsInvert) {
  // Wire → Status → wire is the identity on every refusal a client acts
  // on (the retry gate keys off these).
  for (const WireStatus ws :
       {WireStatus::kInvalidArgument, WireStatus::kReadOnly,
        WireStatus::kQuarantined, WireStatus::kUnsupported}) {
    EXPECT_EQ(WireStatusFromStatus(StatusFromWire(ws, "x")), ws)
        << WireStatusName(ws);
  }
  EXPECT_TRUE(StatusFromWire(WireStatus::kOk, "").ok());
  EXPECT_EQ(WireStatusFromStatus(Status::OK()), WireStatus::kOk);
}

}  // namespace
}  // namespace server
}  // namespace bloomsample
