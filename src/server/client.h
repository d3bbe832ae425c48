// BsrClient — the blocking client for the bsrd wire protocol, used by
// `bsr client`, the serve bench, and the fault-injection tests.
//
// Failure policy (the part worth reading): every call carries a connect
// timeout, a request timeout, and a bounded exponential-backoff retry
// budget — but retries are governed by SAFETY, not hope:
//   * IDEMPOTENT ops (PING, SAMPLE, RECONSTRUCT, STATS) retry on
//     OVERLOADED / SHUTTING_DOWN responses and on connect/transport
//     failures — re-executing them cannot change server state.
//   * MUTATIONS (INSERT, REMOVE) retry ONLY on an explicit OVERLOADED /
//     SHUTTING_DOWN response: the server refused the request before
//     executing it, so resending cannot double-apply. A transport
//     failure mid-request is AMBIGUOUS (the mutation may have committed
//     before the connection died) and is returned to the caller, never
//     retried blindly.
// An OVERLOADED response's retry-after hint stretches the backoff floor,
// so a shedding server shapes its own retry traffic.
#ifndef BLOOMSAMPLE_SERVER_CLIENT_H_
#define BLOOMSAMPLE_SERVER_CLIENT_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/server/protocol.h"
#include "src/util/status.h"

namespace bloomsample {
namespace server {

struct ClientOptions {
  std::chrono::milliseconds connect_timeout{1000};
  /// Covers one request/response round trip (send + recv budgets).
  std::chrono::milliseconds request_timeout{5000};
  /// Retry attempts AFTER the first try; 0 disables retries.
  uint32_t max_retries = 3;
  /// First backoff; doubles per retry, stretched to the server's
  /// retry-after hint when one arrives.
  std::chrono::milliseconds backoff_base{10};
  /// Deadline carried in every request frame (0 = none): the server
  /// answers DEADLINE_EXCEEDED instead of serving a stale reply.
  uint32_t deadline_ms = 0;
};

class BsrClient {
 public:
  /// Connects to "unix:/path" or "host:port".
  static Result<std::unique_ptr<BsrClient>> Connect(std::string address,
                                                    ClientOptions options);
  ~BsrClient();
  BsrClient(const BsrClient&) = delete;
  BsrClient& operator=(const BsrClient&) = delete;

  Status Ping();
  /// `filter` is SerializeBloomFilter bytes (the raw filter file).
  Result<std::vector<std::optional<uint64_t>>> Sample(
      const std::vector<uint8_t>& filter, uint32_t count, uint64_t seed);
  Result<std::vector<uint64_t>> Reconstruct(const std::vector<uint8_t>& filter,
                                            bool exact);
  /// Returns the number applied; a partial failure surfaces the server's
  /// applied-count message in the status.
  Status Insert(const std::vector<uint64_t>& ids);
  Status Remove(const std::vector<uint64_t>& ids);
  Result<std::string> Stats();

  /// Retries performed over this client's lifetime (tests assert on it).
  uint64_t retry_count() const { return retries_; }

  void Close();

 private:
  BsrClient(std::string address, ClientOptions options);

  /// One full op with the retry policy applied. `frame` is a header slot
  /// followed by the request payload; each attempt seals the header in
  /// place with a fresh request id. `response_payload` gets the payload
  /// of an OK response.
  Status Call(Opcode opcode, std::vector<uint8_t>* frame,
              std::vector<uint8_t>* response_payload);
  /// One attempt on the current connection (reconnecting if needed).
  Status CallOnce(Opcode opcode, std::vector<uint8_t>* frame,
                  std::vector<uint8_t>* response_payload,
                  WireStatus* wire_status, uint32_t* retry_after_ms);
  Status EnsureConnected();
  Status SendAll(const uint8_t* data, size_t len);
  Status RecvAll(uint8_t* data, size_t len);

  const std::string address_;
  const ClientOptions options_;
  int fd_ = -1;
  uint64_t next_request_id_ = 1;
  uint64_t retries_ = 0;
};

}  // namespace server
}  // namespace bloomsample

#endif  // BLOOMSAMPLE_SERVER_CLIENT_H_
