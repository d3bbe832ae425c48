// The bsrd wire protocol: binary length-prefixed frames over a byte
// stream (TCP or a unix socket), symmetric for requests and responses.
//
//   offset  size  field
//        0     4  magic 'BSRP' (little-endian u32 0x50525342)
//        4     1  version (currently 1)
//        5     1  opcode  (Opcode; echoed in the response)
//        6     1  status  (WireStatus; 0 in requests)
//        7     1  reserved (must be 0)
//        8     8  request id (echoed verbatim in the response)
//       16     4  budget_ms — request: per-request deadline in ms from
//                 arrival (0 = none); response: retry-after hint in ms
//                 (meaningful with kOverloaded/kShuttingDown, else 0)
//       20     4  payload length in bytes
//       24     8  xxhash64 digest over header bytes [0, 24) ‖ payload
//       32     …  payload
//
// The digest makes torn writes, proxy truncation, and desynchronized
// streams fail loudly at the frame boundary instead of as garbage
// parameters. A peer that receives a frame with a bad magic, an
// unsupported version, or a digest mismatch cannot trust the stream
// position any more and MUST close the connection (after answering
// kInvalidArgument when a request id could still be recovered).
//
// Versioning rule: the header layout is frozen; incompatible payload or
// semantics changes bump `version`, and a server answers an unsupported
// version with kUnsupported before closing. Unknown opcodes are
// per-frame errors (kUnsupported) and do NOT poison the stream.
//
// All integers are little-endian (matching the snapshot format, which
// already rejects cross-endian artifacts at open).
#ifndef BLOOMSAMPLE_SERVER_PROTOCOL_H_
#define BLOOMSAMPLE_SERVER_PROTOCOL_H_

#include <cstdint>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "src/util/status.h"

namespace bloomsample {
namespace server {

inline constexpr uint32_t kFrameMagic = 0x50525342u;  // "BSRP"
inline constexpr uint8_t kProtocolVersion = 1;
inline constexpr size_t kFrameHeaderBytes = 32;
/// Bytes of the header covered by the digest (everything before it).
inline constexpr size_t kFrameDigestedBytes = 24;

enum class Opcode : uint8_t {
  kPing = 1,
  kSample = 2,
  kReconstruct = 3,
  kInsert = 4,
  kRemove = 5,
  kStats = 6,
};

const char* OpcodeName(Opcode op);
bool OpcodeKnown(uint8_t raw);
/// True for ops a client may retry blindly: re-executing them cannot
/// change server state (PING, SAMPLE, RECONSTRUCT, STATS).
bool OpcodeIdempotent(Opcode op);

enum class WireStatus : uint8_t {
  kOk = 0,
  kInvalidArgument = 1,
  kDeadlineExceeded = 2,
  kOverloaded = 3,      ///< admission queue full or queue-wait over budget
  kReadOnly = 4,        ///< lane latched read-only (mutations refused)
  kQuarantined = 5,     ///< lane quarantined (mutations refused)
  kUnsupported = 6,     ///< unknown opcode / version / feature
  kInternal = 7,
  kShuttingDown = 8,    ///< drain in progress; reconnect elsewhere/later
};

const char* WireStatusName(WireStatus status);
/// Maps an internal Status onto the wire (kOk → kOk, kReadOnly →
/// kReadOnly, kQuarantined → kQuarantined, kResourceExhausted →
/// kOverloaded, kInvalidArgument/kOutOfRange → kInvalidArgument,
/// kUnsupported → kUnsupported, anything else → kInternal).
WireStatus WireStatusFromStatus(const Status& st);
/// The client-side inverse: a wire error back to a Status whose message
/// is the response's error payload.
Status StatusFromWire(WireStatus status, const std::string& message);

struct FrameHeader {
  uint8_t version = kProtocolVersion;
  Opcode opcode = Opcode::kPing;
  WireStatus status = WireStatus::kOk;
  uint64_t request_id = 0;
  /// Request: deadline budget in ms (0 = none). Response: retry-after
  /// hint in ms.
  uint32_t budget_ms = 0;
  uint32_t payload_len = 0;
};

/// Appends one complete frame (header + payload + digest) to `out`.
void EncodeFrame(const FrameHeader& header, const uint8_t* payload,
                 size_t payload_len, std::vector<uint8_t>* out);

/// Writes the header, digest included, into the first kFrameHeaderBytes
/// of `frame`, whose header.payload_len payload bytes already follow
/// them: a frame built in place is sealed without copying its payload.
void SealFrame(const FrameHeader& header, uint8_t* frame);

/// What DecodeHeader found in the first kFrameHeaderBytes of a stream.
struct DecodedHeader {
  FrameHeader header;
  uint64_t digest = 0;  ///< as carried in the frame; verify against payload
  /// Raw opcode byte (header.opcode is only meaningful when known).
  uint8_t raw_opcode = 0;
};

/// Parses a frame header from `data` (at least kFrameHeaderBytes).
/// kInvalidArgument on bad magic or a non-zero reserved byte,
/// kUnsupported on a version mismatch; an UNKNOWN OPCODE IS NOT an error
/// here (the server answers it per-frame). `max_payload` bounds
/// payload_len (kOutOfRange beyond it — a stream that declares a bogus
/// gigabyte frame must die before buffering it).
Status DecodeHeader(const uint8_t* data, size_t len, uint32_t max_payload,
                    DecodedHeader* out);

/// Digest as EncodeFrame computes it: XXH64 over the first
/// kFrameDigestedBytes of the encoded header, continued over the payload.
uint64_t FrameDigest(const uint8_t* header_bytes, const uint8_t* payload,
                     size_t payload_len);

// --- payload codecs ----------------------------------------------------
//
// Request payloads:
//   SAMPLE       u32 count | u64 seed | serialized BloomFilter (rest)
//   RECONSTRUCT  u32 exact (0/1)      | serialized BloomFilter (rest)
//   INSERT/REMOVE u32 n | n × u64 id
//   PING/STATS   empty
// Response payloads:
//   SAMPLE       u32 count | count × u64 draw (kNullDraw = the draw's
//                every path died on false overlaps)
//   RECONSTRUCT  u32 n | n × u64 id (ascending)
//   INSERT/REMOVE u32 applied
//   STATS        UTF-8 "key=value\n" lines
//   errors       UTF-8 message
inline constexpr uint64_t kNullDraw = ~0ull;

/// Read-only bytes owned elsewhere: a request frame's payload in the
/// server, the caller's filter in the client. Converts from a vector
/// lvalue (never from a temporary, which would leave it dangling).
class ByteView {
 public:
  ByteView() = default;
  ByteView(const uint8_t* data, size_t size) : data_(data), size_(size) {}
  ByteView(const std::vector<uint8_t>& bytes)  // NOLINT: implicit by design
      : data_(bytes.data()), size_(bytes.size()) {}
  ByteView(std::vector<uint8_t>&&) = delete;

  const uint8_t* data() const { return data_; }
  size_t size() const { return size_; }
  const uint8_t* begin() const { return data_; }
  const uint8_t* end() const { return data_ + size_; }

 private:
  const uint8_t* data_ = nullptr;
  size_t size_ = 0;
};

/// Byte-wise equality of the viewed contents.
inline bool operator==(ByteView a, ByteView b) {
  return a.size() == b.size() &&
         (a.size() == 0 || std::memcmp(a.data(), b.data(), a.size()) == 0);
}

/// Decoded requests view the filter in the payload they were decoded
/// from, which must outlive them.
struct SampleRequest {
  uint32_t count = 0;
  uint64_t seed = 0;
  ByteView filter;  ///< SerializeBloomFilter bytes
};

struct ReconstructRequest {
  bool exact = false;
  ByteView filter;
};

void EncodeSampleRequest(const SampleRequest& req, std::vector<uint8_t>* out);
Status DecodeSampleRequest(const uint8_t* data, size_t len,
                           SampleRequest* out);

void EncodeReconstructRequest(const ReconstructRequest& req,
                              std::vector<uint8_t>* out);
Status DecodeReconstructRequest(const uint8_t* data, size_t len,
                                ReconstructRequest* out);

void EncodeIdList(const std::vector<uint64_t>& ids, std::vector<uint8_t>* out);
Status DecodeIdList(const uint8_t* data, size_t len,
                    std::vector<uint64_t>* out);

void EncodeDraws(const std::vector<std::optional<uint64_t>>& draws,
                 std::vector<uint8_t>* out);
Status DecodeDraws(const uint8_t* data, size_t len,
                   std::vector<std::optional<uint64_t>>* out);

// --- little-endian scalar helpers (shared with the client) -------------

inline void PutU32(uint32_t v, std::vector<uint8_t>* out) {
  uint8_t b[4];
  std::memcpy(b, &v, 4);
  out->insert(out->end(), b, b + 4);
}

inline void PutU64(uint64_t v, std::vector<uint8_t>* out) {
  uint8_t b[8];
  std::memcpy(b, &v, 8);
  out->insert(out->end(), b, b + 8);
}

inline uint32_t GetU32(const uint8_t* p) {
  uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}

inline uint64_t GetU64(const uint8_t* p) {
  uint64_t v;
  std::memcpy(&v, p, 8);
  return v;
}

}  // namespace server
}  // namespace bloomsample

#endif  // BLOOMSAMPLE_SERVER_PROTOCOL_H_
