#include "src/server/client.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <thread>

namespace bloomsample {
namespace server {

namespace {

Status ErrnoStatus(const std::string& what) {
  return Status::Internal(what + ": " + std::strerror(errno))
      .WithErrno(errno);
}

/// connect(2) with a timeout: nonblocking connect, poll for writability,
/// then read SO_ERROR for the real verdict.
Status ConnectWithTimeout(int fd, const sockaddr* addr, socklen_t len,
                          std::chrono::milliseconds timeout) {
  const int flags = fcntl(fd, F_GETFL, 0);
  fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  if (connect(fd, addr, len) != 0) {
    if (errno != EINPROGRESS) return ErrnoStatus("connect");
    pollfd p{fd, POLLOUT, 0};
    const int n = poll(&p, 1, static_cast<int>(timeout.count()));
    if (n == 0) return Status::ResourceExhausted("connect timed out");
    if (n < 0) return ErrnoStatus("poll");
    int err = 0;
    socklen_t elen = sizeof(err);
    getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &elen);
    if (err != 0) {
      errno = err;
      return ErrnoStatus("connect");
    }
  }
  fcntl(fd, F_SETFL, flags);  // back to blocking; timeouts via SO_*TIMEO
  return Status::OK();
}

/// A request frame holding only its header slot, with room reserved for a
/// `payload_len`-byte payload: the codecs append the payload in place and
/// CallOnce seals the header, so the payload is copied once.
std::vector<uint8_t> NewFrame(size_t payload_len) {
  std::vector<uint8_t> frame;
  frame.reserve(kFrameHeaderBytes + payload_len);
  frame.resize(kFrameHeaderBytes);
  return frame;
}

}  // namespace

Result<std::unique_ptr<BsrClient>> BsrClient::Connect(std::string address,
                                                      ClientOptions options) {
  std::unique_ptr<BsrClient> c(
      new BsrClient(std::move(address), std::move(options)));
  const Status st = c->EnsureConnected();
  if (!st.ok()) return st;
  return c;
}

BsrClient::BsrClient(std::string address, ClientOptions options)
    : address_(std::move(address)), options_(std::move(options)) {}

BsrClient::~BsrClient() { Close(); }

void BsrClient::Close() {
  if (fd_ >= 0) {
    close(fd_);
    fd_ = -1;
  }
}

Status BsrClient::EnsureConnected() {
  if (fd_ >= 0) return Status::OK();
  int fd;
  Status st;
  if (address_.rfind("unix:", 0) == 0) {
    const std::string path = address_.substr(5);
    sockaddr_un addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof(addr.sun_path)) {
      return Status::InvalidArgument("unix socket path too long");
    }
    std::memcpy(addr.sun_path, path.data(), path.size());
    fd = socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) return ErrnoStatus("socket");
    st = ConnectWithTimeout(fd, reinterpret_cast<sockaddr*>(&addr),
                            sizeof(addr), options_.connect_timeout);
  } else {
    const size_t colon = address_.rfind(':');
    if (colon == std::string::npos) {
      return Status::InvalidArgument(
          "address must be unix:/path or host:port");
    }
    sockaddr_in addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    addr.sin_port = htons(
        static_cast<uint16_t>(std::atoi(address_.substr(colon + 1).c_str())));
    if (inet_pton(AF_INET, address_.substr(0, colon).c_str(),
                  &addr.sin_addr) != 1) {
      return Status::InvalidArgument("unparseable host in " + address_);
    }
    fd = socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) return ErrnoStatus("socket");
    const int one = 1;
    setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    st = ConnectWithTimeout(fd, reinterpret_cast<sockaddr*>(&addr),
                            sizeof(addr), options_.connect_timeout);
  }
  if (!st.ok()) {
    close(fd);
    return st;
  }
  timeval tv;
  tv.tv_sec = options_.request_timeout.count() / 1000;
  tv.tv_usec = (options_.request_timeout.count() % 1000) * 1000;
  setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
  fd_ = fd;
  return Status::OK();
}

Status BsrClient::SendAll(const uint8_t* data, size_t len) {
  size_t off = 0;
  while (off < len) {
    const ssize_t n = send(fd_, data + off, len - off, MSG_NOSIGNAL);
    if (n > 0) {
      off += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      return Status::ResourceExhausted("send timed out");
    }
    return ErrnoStatus("send");
  }
  return Status::OK();
}

Status BsrClient::RecvAll(uint8_t* data, size_t len) {
  size_t off = 0;
  while (off < len) {
    const ssize_t n = recv(fd_, data + off, len - off, 0);
    if (n > 0) {
      off += static_cast<size_t>(n);
      continue;
    }
    if (n == 0) return Status::Internal("connection closed by server");
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      return Status::ResourceExhausted("request timed out");
    }
    return ErrnoStatus("recv");
  }
  return Status::OK();
}

Status BsrClient::CallOnce(Opcode opcode, std::vector<uint8_t>* frame,
                           std::vector<uint8_t>* response_payload,
                           WireStatus* wire_status,
                           uint32_t* retry_after_ms) {
  *wire_status = WireStatus::kInternal;
  *retry_after_ms = 0;
  Status st = EnsureConnected();
  if (!st.ok()) return st;

  FrameHeader h;
  h.opcode = opcode;
  h.request_id = next_request_id_++;
  h.budget_ms = options_.deadline_ms;
  h.payload_len = static_cast<uint32_t>(frame->size() - kFrameHeaderBytes);
  SealFrame(h, frame->data());
  st = SendAll(frame->data(), frame->size());
  if (!st.ok()) {
    Close();  // transport state unknown; next attempt reconnects
    return st;
  }

  uint8_t header_bytes[kFrameHeaderBytes];
  st = RecvAll(header_bytes, sizeof(header_bytes));
  if (!st.ok()) {
    Close();
    return st;
  }
  DecodedHeader decoded;
  st = DecodeHeader(header_bytes, sizeof(header_bytes),
                    /*max_payload=*/256u << 20, &decoded);
  if (!st.ok()) {
    Close();
    return st;
  }
  std::vector<uint8_t> resp(decoded.header.payload_len);
  if (!resp.empty()) {
    st = RecvAll(resp.data(), resp.size());
    if (!st.ok()) {
      Close();
      return st;
    }
  }
  if (FrameDigest(header_bytes, resp.data(), resp.size()) != decoded.digest) {
    Close();
    return Status::Internal("response frame digest mismatch");
  }
  if (decoded.header.request_id != h.request_id) {
    Close();
    return Status::Internal("response for a different request id");
  }
  *wire_status = decoded.header.status;
  *retry_after_ms = decoded.header.budget_ms;
  if (decoded.header.status == WireStatus::kOk) {
    *response_payload = std::move(resp);
    return Status::OK();
  }
  return StatusFromWire(decoded.header.status,
                        std::string(resp.begin(), resp.end()));
}

Status BsrClient::Call(Opcode opcode, std::vector<uint8_t>* frame,
                       std::vector<uint8_t>* response_payload) {
  std::chrono::milliseconds backoff = options_.backoff_base;
  Status last;
  for (uint32_t attempt = 0;; ++attempt) {
    WireStatus ws;
    uint32_t retry_after_ms;
    last = CallOnce(opcode, frame, response_payload, &ws, &retry_after_ms);
    if (last.ok()) return last;
    if (attempt >= options_.max_retries) return last;

    // The retry gate. A definitive refusal (OVERLOADED/SHUTTING_DOWN)
    // means the server did NOT execute the request — safe for any op. A
    // transport failure leaves execution ambiguous — only idempotent ops
    // may re-ask; a mutation must hand the ambiguity to the caller.
    const bool refused = ws == WireStatus::kOverloaded ||
                         ws == WireStatus::kShuttingDown;
    const bool transport = ws == WireStatus::kInternal && !last.ok() &&
                           fd_ < 0;  // CallOnce closed the socket
    if (!refused && !(transport && OpcodeIdempotent(opcode))) return last;

    ++retries_;
    std::chrono::milliseconds wait = backoff;
    if (retry_after_ms > 0) {
      wait = std::max(wait, std::chrono::milliseconds(retry_after_ms));
    }
    std::this_thread::sleep_for(wait);
    backoff *= 2;
  }
}

Status BsrClient::Ping() {
  std::vector<uint8_t> frame = NewFrame(0), resp;
  return Call(Opcode::kPing, &frame, &resp);
}

Result<std::vector<std::optional<uint64_t>>> BsrClient::Sample(
    const std::vector<uint8_t>& filter, uint32_t count, uint64_t seed) {
  SampleRequest req;
  req.count = count;
  req.seed = seed;
  req.filter = filter;
  std::vector<uint8_t> frame = NewFrame(12 + filter.size()), resp;
  EncodeSampleRequest(req, &frame);
  const Status st = Call(Opcode::kSample, &frame, &resp);
  if (!st.ok()) return st;
  std::vector<std::optional<uint64_t>> draws;
  const Status dec = DecodeDraws(resp.data(), resp.size(), &draws);
  if (!dec.ok()) return dec;
  return draws;
}

Result<std::vector<uint64_t>> BsrClient::Reconstruct(
    const std::vector<uint8_t>& filter, bool exact) {
  ReconstructRequest req;
  req.exact = exact;
  req.filter = filter;
  std::vector<uint8_t> frame = NewFrame(4 + filter.size()), resp;
  EncodeReconstructRequest(req, &frame);
  const Status st = Call(Opcode::kReconstruct, &frame, &resp);
  if (!st.ok()) return st;
  std::vector<uint64_t> ids;
  const Status dec = DecodeIdList(resp.data(), resp.size(), &ids);
  if (!dec.ok()) return dec;
  return ids;
}

Status BsrClient::Insert(const std::vector<uint64_t>& ids) {
  std::vector<uint8_t> frame = NewFrame(4 + 8 * ids.size()), resp;
  EncodeIdList(ids, &frame);
  return Call(Opcode::kInsert, &frame, &resp);
}

Status BsrClient::Remove(const std::vector<uint64_t>& ids) {
  std::vector<uint8_t> frame = NewFrame(4 + 8 * ids.size()), resp;
  EncodeIdList(ids, &frame);
  return Call(Opcode::kRemove, &frame, &resp);
}

Result<std::string> BsrClient::Stats() {
  std::vector<uint8_t> frame = NewFrame(0), resp;
  const Status st = Call(Opcode::kStats, &frame, &resp);
  if (!st.ok()) return st;
  return std::string(resp.begin(), resp.end());
}

}  // namespace server
}  // namespace bloomsample
