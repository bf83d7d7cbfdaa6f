// Length-prefixed frames with CRC-checked headers — the wire unit of the
// network substrate.
//
// Everything that crosses a socket is a frame:
//
//   offset  size  field
//        0     4  magic "MGNF"
//        4     2  protocol version
//        6     2  frame type
//        8     8  sequence number (request/response correlation)
//       16     4  payload size
//       20     4  payload CRC-32
//       24     4  header CRC-32 (over bytes [0, 24))
//       28     —  payload bytes
//
// The header CRC makes desync and truncation detectable before a byte of
// payload is trusted: a receiver that sees a bad magic or header CRC knows
// the stream is broken (not merely one message) and drops the connection.
// The payload CRC catches corruption of the body.  All integers are
// little-endian, matching support/bytes.
#pragma once

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <vector>

namespace mg::net {

enum class FrameType : std::uint16_t {
  Hello = 1,   ///< worker -> master: u64 pid, u64 connect attempt, f64 clock sample
  Work = 2,    ///< master -> worker: marshalled work unit
  Result = 3,  ///< worker -> master: marshalled result, same seq as the Work
  Error = 4,   ///< worker -> master: compute failed; payload = message text
  Bye = 5,     ///< orderly shutdown request

  // ---- solve-service job API (client <-> JobServer; see src/svc/) ----
  SubmitJob = 6,    ///< client -> server: marshalled JobSpec
  JobAccepted = 7,  ///< server -> client: JobTicket (accepted or Rejected), same seq
  JobStatus = 8,    ///< client -> server: u64 job id; server -> client: JobStatusInfo
  JobResult = 9,    ///< client -> server: u64 job id; server -> client: JobResultData
  CancelJob = 10,   ///< client -> server: u64 job id; server replies JobStatus

  // ---- keepalive (either direction) ----
  Ping = 11,  ///< payload echoed back verbatim in the Pong, same seq
  Pong = 12,  ///< reply to a Ping; also refreshes the server's idle clock

  // ---- live observability (client <-> JobServer) ----
  GetStats = 13,     ///< client -> server: empty payload
  StatsReport = 14,  ///< server -> client: marshalled ServiceStats, same seq
};

const char* to_string(FrameType t);

struct FrameHeader {
  static constexpr std::uint32_t kMagic = 0x4D474E46u;  // "MGNF" little-endian
  // v2: Hello grew a wall-clock sample, Work may carry a trace-context
  // prefix, Result may be a telemetry envelope, GetStats/StatsReport added.
  // v3: the Work payload lost the kernel policy and inner-thread count, and
  // the SubmitJob payload lost the same two fields.
  // v4: the StatsReport payload's fleet block shrank from six counters to
  // four (joins, leaves, crashes, duplicates).
  // v5: the Work payload lost the stage-cache and warm-start flags, and the
  // SubmitJob payload lost the per-job pipeline window.
  static constexpr std::uint16_t kVersion = 5;
  static constexpr std::size_t kWireSize = 28;

  std::uint16_t version = kVersion;
  FrameType type = FrameType::Hello;
  std::uint64_t seq = 0;
  std::uint32_t payload_size = 0;
  std::uint32_t payload_crc = 0;
};

struct Frame {
  FrameHeader header;
  std::vector<std::uint8_t> payload;
};

/// Thrown by the decoder on a broken stream (bad magic, failed CRC,
/// oversized payload).  Connection-fatal: framing cannot resynchronise.
class FrameError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Serialises one complete frame (header CRCs computed here).
std::vector<std::uint8_t> encode_frame(FrameType type, std::uint64_t seq,
                                       const std::uint8_t* payload, std::size_t payload_size);
std::vector<std::uint8_t> encode_frame(FrameType type, std::uint64_t seq,
                                       const std::vector<std::uint8_t>& payload);

/// Serialises only the 28-byte header for a payload that will travel as its
/// own buffer (scatter-gather send: header iovec + payload iovec, no
/// concatenation copy).  The payload bytes are still read here — both CRCs
/// cover them — but never copied.
std::vector<std::uint8_t> encode_frame_header(FrameType type, std::uint64_t seq,
                                              const std::uint8_t* payload,
                                              std::size_t payload_size);

/// Incremental frame reassembly over a byte stream.  feed() appends raw
/// received bytes; next() yields complete frames in order, or nullopt when
/// more bytes are needed.  Throws FrameError on a corrupt stream — the
/// connection must then be dropped.
class FrameDecoder {
 public:
  static constexpr std::size_t kDefaultMaxPayload = 256u << 20;  // 256 MiB

  explicit FrameDecoder(std::size_t max_payload = kDefaultMaxPayload)
      : max_payload_(max_payload) {}

  void feed(const std::uint8_t* data, std::size_t n);
  std::optional<Frame> next();

  std::size_t buffered() const { return buffer_.size() - consumed_; }

 private:
  std::size_t max_payload_;
  std::vector<std::uint8_t> buffer_;
  std::size_t consumed_ = 0;  ///< prefix already handed out as frames
};

}  // namespace mg::net
