#include "src/server/protocol.h"

#include "src/util/xxhash64.h"

namespace bloomsample {
namespace server {

const char* OpcodeName(Opcode op) {
  switch (op) {
    case Opcode::kPing:
      return "PING";
    case Opcode::kSample:
      return "SAMPLE";
    case Opcode::kReconstruct:
      return "RECONSTRUCT";
    case Opcode::kInsert:
      return "INSERT";
    case Opcode::kRemove:
      return "REMOVE";
    case Opcode::kStats:
      return "STATS";
  }
  return "UNKNOWN";
}

bool OpcodeKnown(uint8_t raw) {
  return raw >= static_cast<uint8_t>(Opcode::kPing) &&
         raw <= static_cast<uint8_t>(Opcode::kStats);
}

bool OpcodeIdempotent(Opcode op) {
  switch (op) {
    case Opcode::kPing:
    case Opcode::kSample:
    case Opcode::kReconstruct:
    case Opcode::kStats:
      return true;
    case Opcode::kInsert:
    case Opcode::kRemove:
      return false;
  }
  return false;
}

const char* WireStatusName(WireStatus status) {
  switch (status) {
    case WireStatus::kOk:
      return "OK";
    case WireStatus::kInvalidArgument:
      return "INVALID_ARGUMENT";
    case WireStatus::kDeadlineExceeded:
      return "DEADLINE_EXCEEDED";
    case WireStatus::kOverloaded:
      return "OVERLOADED";
    case WireStatus::kReadOnly:
      return "READ_ONLY";
    case WireStatus::kQuarantined:
      return "QUARANTINED";
    case WireStatus::kUnsupported:
      return "UNSUPPORTED";
    case WireStatus::kInternal:
      return "INTERNAL";
    case WireStatus::kShuttingDown:
      return "SHUTTING_DOWN";
  }
  return "UNKNOWN";
}

WireStatus WireStatusFromStatus(const Status& st) {
  switch (st.code()) {
    case Status::Code::kOk:
      return WireStatus::kOk;
    case Status::Code::kReadOnly:
      return WireStatus::kReadOnly;
    case Status::Code::kQuarantined:
      return WireStatus::kQuarantined;
    case Status::Code::kResourceExhausted:
      return WireStatus::kOverloaded;
    case Status::Code::kInvalidArgument:
    case Status::Code::kOutOfRange:
      return WireStatus::kInvalidArgument;
    case Status::Code::kUnsupported:
      return WireStatus::kUnsupported;
    default:
      return WireStatus::kInternal;
  }
}

Status StatusFromWire(WireStatus status, const std::string& message) {
  switch (status) {
    case WireStatus::kOk:
      return Status::OK();
    case WireStatus::kInvalidArgument:
      return Status::InvalidArgument(message);
    case WireStatus::kDeadlineExceeded:
      return Status::ResourceExhausted("deadline exceeded: " + message);
    case WireStatus::kOverloaded:
      return Status::ResourceExhausted("server overloaded: " + message);
    case WireStatus::kReadOnly:
      return Status::ReadOnly(message);
    case WireStatus::kQuarantined:
      return Status::Quarantined(message);
    case WireStatus::kUnsupported:
      return Status::Unsupported(message);
    case WireStatus::kShuttingDown:
      return Status::ResourceExhausted("server shutting down: " + message);
    case WireStatus::kInternal:
      break;
  }
  return Status::Internal(message);
}

uint64_t FrameDigest(const uint8_t* header_bytes, const uint8_t* payload,
                     size_t payload_len) {
  XxHash64 h;
  h.Update(header_bytes, kFrameDigestedBytes);
  if (payload_len > 0) h.Update(payload, payload_len);
  return h.Digest();
}

void EncodeFrame(const FrameHeader& header, const uint8_t* payload,
                 size_t payload_len, std::vector<uint8_t>* out) {
  BSR_CHECK(payload_len == header.payload_len,
            "frame payload length mismatch");
  const size_t base = out->size();
  out->reserve(base + kFrameHeaderBytes + payload_len);
  out->resize(base + kFrameHeaderBytes);
  if (payload_len > 0) out->insert(out->end(), payload, payload + payload_len);
  SealFrame(header, out->data() + base);
}

void SealFrame(const FrameHeader& header, uint8_t* frame) {
  const uint32_t magic = kFrameMagic;
  std::memcpy(frame, &magic, 4);
  frame[4] = header.version;
  frame[5] = static_cast<uint8_t>(header.opcode);
  frame[6] = static_cast<uint8_t>(header.status);
  frame[7] = 0;  // reserved
  std::memcpy(frame + 8, &header.request_id, 8);
  std::memcpy(frame + 16, &header.budget_ms, 4);
  std::memcpy(frame + 20, &header.payload_len, 4);
  const uint64_t digest =
      FrameDigest(frame, frame + kFrameHeaderBytes, header.payload_len);
  std::memcpy(frame + 24, &digest, 8);
}

Status DecodeHeader(const uint8_t* data, size_t len, uint32_t max_payload,
                    DecodedHeader* out) {
  if (len < kFrameHeaderBytes) {
    return Status::InvalidArgument("short frame header");
  }
  if (GetU32(data) != kFrameMagic) {
    return Status::InvalidArgument("bad frame magic");
  }
  out->header.version = data[4];
  out->raw_opcode = data[5];
  if (OpcodeKnown(out->raw_opcode)) {
    out->header.opcode = static_cast<Opcode>(out->raw_opcode);
  }
  out->header.status = static_cast<WireStatus>(data[6]);
  if (data[7] != 0) {
    return Status::InvalidArgument("non-zero reserved byte in frame header");
  }
  out->header.request_id = GetU64(data + 8);
  out->header.budget_ms = GetU32(data + 16);
  out->header.payload_len = GetU32(data + 20);
  out->digest = GetU64(data + 24);
  if (out->header.version != kProtocolVersion) {
    return Status::Unsupported("unsupported protocol version");
  }
  if (out->header.payload_len > max_payload) {
    return Status::OutOfRange("frame payload exceeds the size limit");
  }
  return Status::OK();
}

void EncodeSampleRequest(const SampleRequest& req,
                         std::vector<uint8_t>* out) {
  PutU32(req.count, out);
  PutU64(req.seed, out);
  out->insert(out->end(), req.filter.begin(), req.filter.end());
}

Status DecodeSampleRequest(const uint8_t* data, size_t len,
                           SampleRequest* out) {
  if (len < 12) return Status::InvalidArgument("short SAMPLE payload");
  out->count = GetU32(data);
  out->seed = GetU64(data + 4);
  out->filter = ByteView(data + 12, len - 12);
  return Status::OK();
}

void EncodeReconstructRequest(const ReconstructRequest& req,
                              std::vector<uint8_t>* out) {
  PutU32(req.exact ? 1 : 0, out);
  out->insert(out->end(), req.filter.begin(), req.filter.end());
}

Status DecodeReconstructRequest(const uint8_t* data, size_t len,
                                ReconstructRequest* out) {
  if (len < 4) return Status::InvalidArgument("short RECONSTRUCT payload");
  out->exact = GetU32(data) != 0;
  out->filter = ByteView(data + 4, len - 4);
  return Status::OK();
}

void EncodeIdList(const std::vector<uint64_t>& ids,
                  std::vector<uint8_t>* out) {
  PutU32(static_cast<uint32_t>(ids.size()), out);
  for (uint64_t id : ids) PutU64(id, out);
}

Status DecodeIdList(const uint8_t* data, size_t len,
                    std::vector<uint64_t>* out) {
  if (len < 4) return Status::InvalidArgument("short id-list payload");
  const uint32_t n = GetU32(data);
  if (len != 4 + static_cast<size_t>(n) * 8) {
    return Status::InvalidArgument("id-list length mismatch");
  }
  out->clear();
  out->reserve(n);
  for (uint32_t i = 0; i < n; ++i) out->push_back(GetU64(data + 4 + i * 8));
  return Status::OK();
}

void EncodeDraws(const std::vector<std::optional<uint64_t>>& draws,
                 std::vector<uint8_t>* out) {
  PutU32(static_cast<uint32_t>(draws.size()), out);
  for (const auto& d : draws) PutU64(d.has_value() ? *d : kNullDraw, out);
}

Status DecodeDraws(const uint8_t* data, size_t len,
                   std::vector<std::optional<uint64_t>>* out) {
  if (len < 4) return Status::InvalidArgument("short draw payload");
  const uint32_t n = GetU32(data);
  if (len != 4 + static_cast<size_t>(n) * 8) {
    return Status::InvalidArgument("draw payload length mismatch");
  }
  out->clear();
  out->reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    const uint64_t v = GetU64(data + 4 + i * 8);
    if (v == kNullDraw) {
      out->push_back(std::nullopt);
    } else {
      out->push_back(v);
    }
  }
  return Status::OK();
}

}  // namespace server
}  // namespace bloomsample
