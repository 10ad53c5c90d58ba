#include "net/client.h"

#include <arpa/inet.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace banks::net {

Client::Client(int fd, ClientOptions options)
    : fd_(fd), options_(std::move(options)) {}

Client::~Client() { Close(); }

void Client::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

std::unique_ptr<Client> Client::Connect(const std::string& host, uint16_t port,
                                        const ClientOptions& options,
                                        std::string* error) {
  auto fail = [&](const std::string& what) -> std::unique_ptr<Client> {
    if (error != nullptr) *error = what + ": " + std::strerror(errno);
    return nullptr;
  };

  int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return fail("socket");
  if (options.recv_buffer_bytes > 0) {
    ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &options.recv_buffer_bytes,
                 sizeof options.recv_buffer_bytes);
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    // Not a literal address: resolve it.
    addrinfo hints{};
    hints.ai_family = AF_INET;
    hints.ai_socktype = SOCK_STREAM;
    addrinfo* res = nullptr;
    if (::getaddrinfo(host.c_str(), nullptr, &hints, &res) != 0 ||
        res == nullptr) {
      ::close(fd);
      errno = EINVAL;
      return fail("resolve(" + host + ")");
    }
    addr.sin_addr = reinterpret_cast<sockaddr_in*>(res->ai_addr)->sin_addr;
    ::freeaddrinfo(res);
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return fail("connect");
  }

  std::unique_ptr<Client> client(new Client(fd, options));
  WireWriter w;
  HelloRequest hello;
  hello.client_name = options.client_name;
  WriteHello(&w, hello);
  if (!client->SendFrame(FrameType::kHello, 0, w.data())) {
    if (error != nullptr) *error = client->error_;
    return nullptr;
  }
  // The HelloOk routes nowhere (request 0 is never an open request), so
  // read it directly.
  char header_bytes[kFrameHeaderBytes];
  if (!client->ReadExact(header_bytes, sizeof header_bytes)) {
    if (error != nullptr) *error = client->error_;
    return nullptr;
  }
  FrameHeader header;
  if (!DecodeHeader(header_bytes, kDefaultMaxFrameBytes, &header)) {
    if (error != nullptr) *error = "bad HelloOk header";
    return nullptr;
  }
  std::string payload(header.payload_bytes, '\0');
  if (!client->ReadExact(payload.data(), payload.size())) {
    if (error != nullptr) *error = client->error_;
    return nullptr;
  }
  WireReader r(payload);
  if (static_cast<FrameType>(header.type) == FrameType::kError) {
    ErrorReply e;
    ReadErrorReply(&r, &e);
    if (error != nullptr) *error = "server rejected hello: " + e.message;
    return nullptr;
  }
  if (static_cast<FrameType>(header.type) != FrameType::kHelloOk ||
      !ReadHelloReply(&r, &client->server_info_)) {
    if (error != nullptr) *error = "unexpected handshake reply";
    return nullptr;
  }
  return client;
}

bool Client::SendFrame(FrameType type, uint64_t request_id,
                       const std::string& payload) {
  if (fd_ < 0) return false;
  std::string frame = EncodeFrame(type, request_id, payload);
  size_t off = 0;
  while (off < frame.size()) {
    ssize_t n = ::send(fd_, frame.data() + off, frame.size() - off,
                       MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      Fail(std::string("send: ") + std::strerror(errno));
      return false;
    }
    off += static_cast<size_t>(n);
  }
  return true;
}

bool Client::ReadExact(char* buf, size_t n) {
  size_t off = 0;
  while (off < n) {
    if (options_.io_timeout_seconds > 0) {
      pollfd pfd{fd_, POLLIN, 0};
      int timeout_ms = static_cast<int>(options_.io_timeout_seconds * 1000);
      int pr = ::poll(&pfd, 1, timeout_ms);
      if (pr == 0) {
        Fail("read timeout");
        return false;
      }
      if (pr < 0 && errno != EINTR) {
        Fail(std::string("poll: ") + std::strerror(errno));
        return false;
      }
      if (pr < 0) continue;
    }
    ssize_t r = ::read(fd_, buf + off, n - off);
    if (r > 0) {
      off += static_cast<size_t>(r);
      continue;
    }
    if (r == 0) {
      Fail("connection closed by server");
      return false;
    }
    if (errno == EINTR) continue;
    Fail(std::string("read: ") + std::strerror(errno));
    return false;
  }
  return true;
}

void Client::Fail(const std::string& why) {
  if (error_.empty()) error_ = why;
  Close();
  // Terminate every open request so blocked consumers see a terminal
  // state instead of spinning on a dead socket.
  for (auto& [id, state] : requests_) {
    if (!state.final) {
      state.final = true;
      state.status = SubscribeStatus::kIoError;
    }
  }
}

bool Client::PumpOne() {
  char header_bytes[kFrameHeaderBytes];
  if (!ReadExact(header_bytes, sizeof header_bytes)) return false;
  FrameHeader header;
  if (!DecodeHeader(header_bytes, kDefaultMaxFrameBytes, &header)) {
    Fail("bad frame header from server");
    return false;
  }
  std::string payload(header.payload_bytes, '\0');
  if (!ReadExact(payload.data(), payload.size())) return false;
  WireReader r(payload);

  auto it = requests_.find(header.request_id);
  switch (static_cast<FrameType>(header.type)) {
    case FrameType::kAnswer: {
      AnswerTree tree;
      if (!ReadAnswerTree(&r, &tree)) {
        Fail("bad answer frame");
        return false;
      }
      if (it != requests_.end()) {
        if (it->second.pull && it->second.credits_outstanding > 0) {
          --it->second.credits_outstanding;
        }
        it->second.ready.push_back(std::move(tree));
      }
      return true;
    }
    case FrameType::kFinal: {
      FinalReply f;
      if (!ReadFinalReply(&r, &f)) {
        Fail("bad final frame");
        return false;
      }
      if (it != requests_.end()) {
        it->second.final = true;
        it->second.status = f.status;
        it->second.metrics = std::move(f.metrics);
      }
      return true;
    }
    case FrameType::kError: {
      ErrorReply e;
      ReadErrorReply(&r, &e);
      if (static_cast<uint16_t>(e.code) < 32) {
        // Connection-fatal class: the server closes after this.
        Fail("protocol error: " + e.message);
        return false;
      }
      if (it != requests_.end()) {
        it->second.final = true;
        it->second.status = SubscribeStatus::kIoError;
      }
      return true;
    }
    case FrameType::kPong:
      pongs_++;
      return true;
    default:
      Fail("unexpected frame type from server");
      return false;
  }
}

bool Client::Ping() {
  if (!SendFrame(FrameType::kPing, 0, "banks?")) return false;
  uint64_t seen = pongs_;
  while (fd_ >= 0 && pongs_ == seen) {
    if (!PumpOne()) return false;
  }
  return true;
}

ClientStream Client::Open(FrameType type,
                          const std::vector<std::string>& keywords,
                          Algorithm algorithm, const SearchOptions& options,
                          double deadline_seconds, uint64_t initial_credits) {
  uint64_t id = next_id_++;
  SearchRequest req;
  req.algorithm = algorithm;
  req.options = options;
  req.deadline_seconds = deadline_seconds;
  req.initial_credits = initial_credits;
  req.keywords = keywords;
  WireWriter w;
  WriteSearchRequest(&w, req);

  RequestState state;
  state.pull = type == FrameType::kOpenStream;
  state.credits_outstanding = state.pull ? initial_credits : 0;
  requests_.emplace(id, std::move(state));
  if (!SendFrame(type, id, w.data())) {
    // Fail() already marked the request terminal kIoError.
  }
  return ClientStream(this, id);
}

NetResult Client::Query(const std::vector<std::string>& keywords,
                        Algorithm algorithm, const SearchOptions& options,
                        double deadline_seconds) {
  return Open(FrameType::kQuery, keywords, algorithm, options,
              deadline_seconds, 0)
      .Drain();
}

ClientStream Client::OpenStream(const std::vector<std::string>& keywords,
                                Algorithm algorithm,
                                const SearchOptions& options,
                                double deadline_seconds,
                                uint64_t initial_credits) {
  return Open(FrameType::kOpenStream, keywords, algorithm, options,
              deadline_seconds, initial_credits);
}

ClientStream Client::Subscribe(const std::vector<std::string>& keywords,
                               Algorithm algorithm,
                               const SearchOptions& options,
                               double deadline_seconds) {
  return Open(FrameType::kQuery, keywords, algorithm, options,
              deadline_seconds, 0);
}

// ---- ClientStream -----------------------------------------------------------

std::optional<AnswerTree> ClientStream::Next() {
  if (client_ == nullptr) return std::nullopt;
  auto& requests = client_->requests_;
  auto it = requests.find(id_);
  if (it == requests.end()) return std::nullopt;

  for (;;) {
    Client::RequestState& state = it->second;
    if (!state.ready.empty()) {
      AnswerTree tree = std::move(state.ready.front());
      state.ready.pop_front();
      return tree;
    }
    if (state.final) return std::nullopt;
    // Pull stream out of credits: ask for exactly one more answer.
    if (state.pull && state.credits_outstanding == 0) {
      WireWriter w;
      w.U64(1);
      state.credits_outstanding = 1;
      if (!client_->SendFrame(FrameType::kNext, id_, w.data())) {
        return std::nullopt;
      }
    }
    if (!client_->PumpOne()) return std::nullopt;
  }
}

void ClientStream::AddCredits(uint64_t n) {
  if (client_ == nullptr || n == 0) return;
  auto it = client_->requests_.find(id_);
  if (it == client_->requests_.end() || it->second.final) return;
  WireWriter w;
  w.U64(n);
  if (it->second.pull) it->second.credits_outstanding += n;
  client_->SendFrame(FrameType::kNext, id_, w.data());
}

void ClientStream::Cancel() {
  if (client_ == nullptr) return;
  auto it = client_->requests_.find(id_);
  if (it == client_->requests_.end() || it->second.final) return;
  client_->SendFrame(FrameType::kCancel, id_, "");
}

NetResult ClientStream::Drain() {
  NetResult result;
  if (client_ == nullptr) {
    result.status = SubscribeStatus::kIoError;
    return result;
  }
  while (auto answer = Next()) result.answers.push_back(std::move(*answer));
  auto it = client_->requests_.find(id_);
  if (it != client_->requests_.end()) {
    result.status = it->second.status;
    result.metrics = std::move(it->second.metrics);
    client_->requests_.erase(it);
  } else {
    result.status = SubscribeStatus::kIoError;
  }
  return result;
}

bool ClientStream::done() const {
  if (client_ == nullptr) return true;
  auto it = client_->requests_.find(id_);
  return it == client_->requests_.end() ||
         (it->second.final && it->second.ready.empty());
}

SubscribeStatus ClientStream::status() const {
  if (client_ == nullptr) return SubscribeStatus::kIoError;
  auto it = client_->requests_.find(id_);
  return it == client_->requests_.end() ? SubscribeStatus::kIoError
                                        : it->second.status;
}

const SearchMetrics& ClientStream::metrics() const {
  static const SearchMetrics kEmpty;
  if (client_ == nullptr) return kEmpty;
  auto it = client_->requests_.find(id_);
  return it == client_->requests_.end() ? kEmpty : it->second.metrics;
}

}  // namespace banks::net
