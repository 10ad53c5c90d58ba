#ifndef BANKS_NET_WIRE_H_
#define BANKS_NET_WIRE_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "search/answer.h"
#include "search/metrics.h"
#include "search/options.h"
#include "search/searcher.h"
#include "serve/answer_sink.h"

namespace banks::net {

/// Wire protocol of the network front door (docs/NETWORK.md).
///
/// Every message is one frame: a fixed 16-byte header followed by
/// `payload_bytes` of type-specific payload. Like the repo's other
/// serialized formats (util/serialize.h, storage/paged_store.h) the
/// encoding is host-byte-order POD — a same-architecture interchange
/// format, not a portable archive — which keeps encode/decode a straight
/// memcpy on the hot answer path.
///
/// Frames are correlated by `request_id`: the client picks a nonzero id
/// per request; every response frame for that request carries it back.
/// Connection-level errors (malformed frame, missing Hello) use
/// request_id 0.

inline constexpr uint8_t kProtocolVersion = 2;

/// First payload word of a Hello request ("BKS1") — rejects random
/// connects and endianness mismatches before anything else is parsed.
inline constexpr uint32_t kHelloMagic = 0x31534B42u;

inline constexpr size_t kFrameHeaderBytes = 16;

/// Hard cap on a single frame's payload; frames announcing more are a
/// protocol error and close the connection (answer frames for realistic
/// k are a few KB).
inline constexpr size_t kDefaultMaxFrameBytes = 4u << 20;

enum class FrameType : uint8_t {
  // Client → server.
  kHello = 1,       // must be the first frame on a connection
  kQuery = 2,       // push-all: server-managed credit window
  kOpenStream = 3,  // pull: answers flow only against kNext credits
  kNext = 4,        // add pull credits to an open stream
  kSubscribe = 5,   // push subscription (window-credited like kQuery)
  kAddCredits = 6,  // extra delivery credits for any open request
  kCancel = 7,      // cancel an open request (terminal kCancelled follows)
  kPing = 8,        // liveness probe; payload echoed back in kPong

  // Server → client.
  kHelloOk = 32,  // Hello accepted; server + graph info
  kAnswer = 33,   // one serialized AnswerTree, in release order
  kFinal = 34,    // terminal status + SearchMetrics; last frame of a request
  kError = 35,    // protocol / request error (ErrorCode + message)
  kPong = 36,     // Ping echo
};

const char* FrameTypeName(FrameType type);

/// Error codes carried by kError frames. Codes < 32 are connection-fatal
/// (the server closes after sending); the rest leave the connection
/// usable and only fail the offending request.
enum class ErrorCode : uint16_t {
  kBadFrame = 1,           // header malformed / oversized / truncated payload
  kUnsupportedVersion = 2, // frame or hello version != kProtocolVersion
  kHelloRequired = 3,      // first frame was not kHello
  kBadMagic = 4,           // hello magic mismatch (wrong protocol/endianness)

  kBadPayload = 32,        // payload failed to decode for this frame type
  kUnknownType = 33,       // frame type the server does not handle
  kUnknownRequest = 34,    // kNext/kAddCredits/kCancel for an unknown id
  kDuplicateRequest = 35,  // request_id already open on this connection
  kShuttingDown = 36,      // server is draining; no new requests
};

struct FrameHeader {
  uint32_t payload_bytes = 0;
  uint8_t version = kProtocolVersion;
  uint8_t type = 0;
  uint16_t flags = 0;
  uint64_t request_id = 0;
};
static_assert(sizeof(FrameHeader) == kFrameHeaderBytes,
              "wire header must be exactly 16 bytes");

/// Append-only encoder over a std::string buffer.
class WireWriter {
 public:
  void U8(uint8_t v) { Raw(&v, 1); }
  void U16(uint16_t v) { Raw(&v, sizeof v); }
  void U32(uint32_t v) { Raw(&v, sizeof v); }
  void U64(uint64_t v) { Raw(&v, sizeof v); }
  void F32(float v) { Raw(&v, sizeof v); }
  void F64(double v) { Raw(&v, sizeof v); }
  void Str(const std::string& s) {
    U32(static_cast<uint32_t>(s.size()));
    buf_.append(s);
  }
  void Raw(const void* p, size_t n) {
    buf_.append(static_cast<const char*>(p), n);
  }

  const std::string& data() const { return buf_; }
  std::string Take() { return std::move(buf_); }

 private:
  std::string buf_;
};

/// Bounds-checked decoder over a byte span. Every Read* returns a value
/// and sets the sticky fail flag on underflow; callers check ok() once
/// at the end (failed reads return zero values).
class WireReader {
 public:
  WireReader(const char* data, size_t size) : p_(data), end_(data + size) {}
  explicit WireReader(const std::string& s) : WireReader(s.data(), s.size()) {}

  uint8_t U8() { return Pod<uint8_t>(); }
  uint16_t U16() { return Pod<uint16_t>(); }
  uint32_t U32() { return Pod<uint32_t>(); }
  uint64_t U64() { return Pod<uint64_t>(); }
  float F32() { return Pod<float>(); }
  double F64() { return Pod<double>(); }
  std::string Str() {
    uint32_t n = U32();
    if (!ok_ || n > remaining()) {
      ok_ = false;
      return {};
    }
    std::string s(p_, n);
    p_ += n;
    return s;
  }

  /// Element count for a following array of `elem_bytes`-sized items;
  /// fails if the announced count cannot fit in the remaining payload
  /// (the truncated-frame guard for vector fields).
  size_t Count(size_t elem_bytes) {
    uint32_t n = U32();
    if (!ok_ || static_cast<uint64_t>(n) * elem_bytes > remaining()) {
      ok_ = false;
      return 0;
    }
    return n;
  }

  size_t remaining() const { return static_cast<size_t>(end_ - p_); }
  bool ok() const { return ok_; }
  /// A fully-consumed, error-free payload.
  bool Done() const { return ok_ && p_ == end_; }

 private:
  template <typename T>
  T Pod() {
    if (sizeof(T) > remaining()) {
      ok_ = false;
      return T{};
    }
    T v;
    std::memcpy(&v, p_, sizeof(T));
    p_ += sizeof(T);
    return v;
  }

  const char* p_;
  const char* end_;
  bool ok_ = true;
};

/// One complete frame, header + payload, ready to write to a socket.
std::string EncodeFrame(FrameType type, uint64_t request_id,
                        const std::string& payload);

/// Decodes 16 header bytes. False when the version is unsupported or the
/// announced payload exceeds `max_payload`.
bool DecodeHeader(const char* data, size_t max_payload, FrameHeader* out);

// ---- Payload codecs ---------------------------------------------------------

struct HelloRequest {
  uint32_t magic = kHelloMagic;
  uint16_t version = kProtocolVersion;
  std::string client_name;
};

struct HelloReply {
  uint16_t version = kProtocolVersion;
  uint64_t nodes = 0;
  uint64_t edges = 0;
  uint64_t epoch = 0;
  std::string server_name;
};

/// Payload of kQuery / kOpenStream / kSubscribe: the search spec,
/// carrying every SearchOptions field.
struct SearchRequest {
  Algorithm algorithm = Algorithm::kBidirectional;
  SearchOptions options;
  /// Whole-request deadline in seconds (0 = none), enforced by the
  /// scheduler (SubscribeOptions::deadline_seconds).
  double deadline_seconds = 0;
  /// kOpenStream only: initial pull credits (kQuery/kSubscribe use the
  /// server's writability-granted window instead).
  uint64_t initial_credits = 0;
  std::vector<std::string> keywords;
};

struct ErrorReply {
  ErrorCode code = ErrorCode::kBadFrame;
  std::string message;
};

/// Payload of kFinal: terminal status + full metrics.
struct FinalReply {
  SubscribeStatus status = SubscribeStatus::kPending;
  SearchMetrics metrics;
};

void WriteHello(WireWriter* w, const HelloRequest& hello);
bool ReadHello(WireReader* r, HelloRequest* out);

void WriteHelloReply(WireWriter* w, const HelloReply& reply);
bool ReadHelloReply(WireReader* r, HelloReply* out);

void WriteSearchRequest(WireWriter* w, const SearchRequest& req);
bool ReadSearchRequest(WireReader* r, SearchRequest* out);

void WriteErrorReply(WireWriter* w, const ErrorReply& e);
bool ReadErrorReply(WireReader* r, ErrorReply* out);

void WriteAnswerTree(WireWriter* w, const AnswerTree& tree);
bool ReadAnswerTree(WireReader* r, AnswerTree* out);

void WriteMetrics(WireWriter* w, const SearchMetrics& m);
bool ReadMetrics(WireReader* r, SearchMetrics* out);

void WriteFinalReply(WireWriter* w, const FinalReply& f);
bool ReadFinalReply(WireReader* r, FinalReply* out);

}  // namespace banks::net

#endif  // BANKS_NET_WIRE_H_
