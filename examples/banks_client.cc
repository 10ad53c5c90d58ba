// banks_client: CLI over banks::net::Client (docs/NETWORK.md).
//
//   banks_client [--host=H] [--port=N] [flags] ping
//   banks_client [--host=H] [--port=N] [flags] query KEYWORD...
//   banks_client [--host=H] [--port=N] [flags] stream KEYWORD...
//
// `query` drains one push-mode query; `stream` pulls answers one credit
// at a time (kOpenStream/kNext), printing each as it lands. Flags:
//   --algo=mi|si|bidir    algorithm           [default bidir]
//   --k=N                 answers             [default 5]
//   --bound=tight|loose   release policy      [default loose]
//   --deadline=SECONDS    scheduler deadline  [default none]
//
// Exit code: 0 on a kCompleted terminal status, 1 otherwise.

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "net/client.h"
#include "util/timer.h"

using namespace banks;

namespace {

bool FlagValue(const char* arg, const char* name, std::string* out) {
  size_t n = std::strlen(name);
  if (std::strncmp(arg, name, n) != 0 || arg[n] != '=') return false;
  *out = arg + n + 1;
  return true;
}

void PrintAnswer(size_t index, const AnswerTree& answer, double ms) {
  std::printf("-- answer %zu  score %.4f  (+%.1f ms) --\n", index,
              answer.score, ms);
  std::printf("   root %u", answer.root);
  for (const AnswerEdge& e : answer.edges) {
    std::printf("  %u->%u(%.2f)", e.parent, e.child, e.weight);
  }
  std::printf("\n   keywords at:");
  for (NodeId n : answer.keyword_nodes) std::printf(" %u", n);
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  std::string host = "127.0.0.1";
  uint16_t port = 7411;
  Algorithm algorithm = Algorithm::kBidirectional;
  SearchOptions options;
  options.k = 5;
  options.bound = BoundMode::kLoose;
  options.max_nodes_explored = 2'000'000;
  double deadline = 0;
  std::string mode;
  std::vector<std::string> keywords;

  for (int i = 1; i < argc; ++i) {
    std::string v;
    if (FlagValue(argv[i], "--host", &v)) host = v;
    else if (FlagValue(argv[i], "--port", &v))
      port = static_cast<uint16_t>(std::stoul(v));
    else if (FlagValue(argv[i], "--algo", &v))
      algorithm = v == "mi"   ? Algorithm::kBackwardMI
                  : v == "si" ? Algorithm::kBackwardSI
                              : Algorithm::kBidirectional;
    else if (FlagValue(argv[i], "--k", &v)) options.k = std::stoul(v);
    else if (FlagValue(argv[i], "--bound", &v))
      options.bound = v == "tight" ? BoundMode::kTight : BoundMode::kLoose;
    else if (FlagValue(argv[i], "--deadline", &v)) deadline = std::stod(v);
    else if (mode.empty()) mode = argv[i];
    else keywords.push_back(argv[i]);
  }
  if (mode.empty() || (mode != "ping" && keywords.empty())) {
    std::fprintf(stderr,
                 "usage: banks_client [flags] ping|query|stream KEYWORD...\n");
    return 2;
  }

  std::string error;
  auto client = net::Client::Connect(host, port, {}, &error);
  if (client == nullptr) {
    std::fprintf(stderr, "connect failed: %s\n", error.c_str());
    return 1;
  }
  const net::HelloReply& info = client->server_info();
  std::printf("connected to %s (%llu nodes, %llu edges, epoch %llu)\n",
              info.server_name.c_str(),
              static_cast<unsigned long long>(info.nodes),
              static_cast<unsigned long long>(info.edges),
              static_cast<unsigned long long>(info.epoch));

  if (mode == "ping") {
    Timer timer;
    if (!client->Ping()) {
      std::fprintf(stderr, "ping failed: %s\n", client->last_error().c_str());
      return 1;
    }
    std::printf("pong in %.2f ms\n", timer.ElapsedMillis());
    return 0;
  }

  Timer timer;
  net::NetResult result;
  if (mode == "stream") {
    net::ClientStream stream =
        client->OpenStream(keywords, algorithm, options, deadline);
    size_t count = 0;
    while (auto answer = stream.Next()) {
      PrintAnswer(++count, *answer, timer.ElapsedMillis());
      result.answers.push_back(std::move(*answer));
    }
    net::NetResult tail = stream.Drain();
    result.status = tail.status;
    result.metrics = std::move(tail.metrics);
  } else {
    result = client->Query(keywords, algorithm, options, deadline);
    for (size_t i = 0; i < result.answers.size(); ++i) {
      PrintAnswer(i + 1, result.answers[i], timer.ElapsedMillis());
    }
  }

  std::printf("%zu answers in %.1f ms, terminal %s "
              "(%llu nodes explored server-side)\n",
              result.answers.size(), timer.ElapsedMillis(),
              SubscribeStatusName(result.status),
              static_cast<unsigned long long>(result.metrics.nodes_explored));
  if (result.status != SubscribeStatus::kCompleted) {
    std::fprintf(stderr, "terminal status: %s%s%s\n",
                 SubscribeStatusName(result.status),
                 client->last_error().empty() ? "" : " — ",
                 client->last_error().c_str());
    return 1;
  }
  return 0;
}
