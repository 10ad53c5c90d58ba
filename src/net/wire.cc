#include "net/wire.h"

namespace banks::net {

const char* FrameTypeName(FrameType type) {
  switch (type) {
    case FrameType::kHello: return "Hello";
    case FrameType::kQuery: return "Query";
    case FrameType::kOpenStream: return "OpenStream";
    case FrameType::kNext: return "Next";
    case FrameType::kSubscribe: return "Subscribe";
    case FrameType::kAddCredits: return "AddCredits";
    case FrameType::kCancel: return "Cancel";
    case FrameType::kPing: return "Ping";
    case FrameType::kHelloOk: return "HelloOk";
    case FrameType::kAnswer: return "Answer";
    case FrameType::kFinal: return "Final";
    case FrameType::kError: return "Error";
    case FrameType::kPong: return "Pong";
  }
  return "?";
}

std::string EncodeFrame(FrameType type, uint64_t request_id,
                        const std::string& payload) {
  FrameHeader h;
  h.payload_bytes = static_cast<uint32_t>(payload.size());
  h.type = static_cast<uint8_t>(type);
  h.request_id = request_id;
  std::string frame;
  frame.reserve(kFrameHeaderBytes + payload.size());
  frame.append(reinterpret_cast<const char*>(&h), sizeof h);
  frame.append(payload);
  return frame;
}

bool DecodeHeader(const char* data, size_t max_payload, FrameHeader* out) {
  std::memcpy(out, data, sizeof(FrameHeader));
  return out->version == kProtocolVersion && out->payload_bytes <= max_payload;
}

void WriteHello(WireWriter* w, const HelloRequest& hello) {
  w->U32(hello.magic);
  w->U16(hello.version);
  w->Str(hello.client_name);
}

bool ReadHello(WireReader* r, HelloRequest* out) {
  out->magic = r->U32();
  out->version = r->U16();
  out->client_name = r->Str();
  return r->Done();
}

void WriteHelloReply(WireWriter* w, const HelloReply& reply) {
  w->U16(reply.version);
  w->U64(reply.nodes);
  w->U64(reply.edges);
  w->U64(reply.epoch);
  w->Str(reply.server_name);
}

bool ReadHelloReply(WireReader* r, HelloReply* out) {
  out->version = r->U16();
  out->nodes = r->U64();
  out->edges = r->U64();
  out->epoch = r->U64();
  out->server_name = r->Str();
  return r->Done();
}

void WriteSearchRequest(WireWriter* w, const SearchRequest& req) {
  w->U8(static_cast<uint8_t>(req.algorithm));
  const SearchOptions& o = req.options;
  w->U64(o.k);
  w->U32(o.dmax);
  w->F64(o.lambda);
  w->F64(o.mu);
  w->U8(static_cast<uint8_t>(o.combine));
  w->U8(static_cast<uint8_t>(o.bound));
  w->U8(static_cast<uint8_t>(o.edge_filter));
  w->U64(o.max_nodes_explored);
  w->U64(o.max_answers_generated);
  w->U32(o.bound_check_interval);
  w->U64(o.release_patience);
  w->F64(req.deadline_seconds);
  w->U64(req.initial_credits);
  w->U32(static_cast<uint32_t>(req.keywords.size()));
  for (const std::string& k : req.keywords) w->Str(k);
}

bool ReadSearchRequest(WireReader* r, SearchRequest* out) {
  uint8_t algo = r->U8();
  if (algo > static_cast<uint8_t>(Algorithm::kBidirectional)) return false;
  out->algorithm = static_cast<Algorithm>(algo);
  SearchOptions& o = out->options;
  o.k = r->U64();
  o.dmax = r->U32();
  o.lambda = r->F64();
  o.mu = r->F64();
  uint8_t combine = r->U8();
  uint8_t bound = r->U8();
  uint8_t filter = r->U8();
  if (combine > static_cast<uint8_t>(ActivationCombine::kSum) ||
      bound > static_cast<uint8_t>(BoundMode::kImmediate) ||
      filter > static_cast<uint8_t>(EdgeFilter::kBackwardOnly)) {
    return false;
  }
  o.combine = static_cast<ActivationCombine>(combine);
  o.bound = static_cast<BoundMode>(bound);
  o.edge_filter = static_cast<EdgeFilter>(filter);
  o.max_nodes_explored = r->U64();
  o.max_answers_generated = r->U64();
  o.bound_check_interval = r->U32();
  o.release_patience = r->U64();
  out->deadline_seconds = r->F64();
  out->initial_credits = r->U64();
  size_t n = r->Count(4);  // each keyword is at least its length prefix
  out->keywords.clear();
  out->keywords.reserve(n);
  for (size_t i = 0; i < n; ++i) out->keywords.push_back(r->Str());
  return r->Done();
}

void WriteErrorReply(WireWriter* w, const ErrorReply& e) {
  w->U16(static_cast<uint16_t>(e.code));
  w->Str(e.message);
}

bool ReadErrorReply(WireReader* r, ErrorReply* out) {
  out->code = static_cast<ErrorCode>(r->U16());
  out->message = r->Str();
  return r->Done();
}

void WriteAnswerTree(WireWriter* w, const AnswerTree& tree) {
  w->U32(tree.root);
  w->U32(static_cast<uint32_t>(tree.edges.size()));
  for (const AnswerEdge& e : tree.edges) {
    w->U32(e.parent);
    w->U32(e.child);
    w->F32(e.weight);
  }
  w->U32(static_cast<uint32_t>(tree.keyword_nodes.size()));
  for (NodeId n : tree.keyword_nodes) w->U32(n);
  w->U32(static_cast<uint32_t>(tree.keyword_distances.size()));
  for (double d : tree.keyword_distances) w->F64(d);
  w->F64(tree.edge_score_raw);
  w->F64(tree.node_prestige);
  w->F64(tree.score);
  w->F64(tree.generated_at);
  w->U64(tree.explored_at_generation);
  w->U64(tree.touched_at_generation);
}

bool ReadAnswerTree(WireReader* r, AnswerTree* out) {
  out->root = r->U32();
  size_t edges = r->Count(12);
  out->edges.clear();
  out->edges.reserve(edges);
  for (size_t i = 0; i < edges; ++i) {
    AnswerEdge e;
    e.parent = r->U32();
    e.child = r->U32();
    e.weight = r->F32();
    out->edges.push_back(e);
  }
  size_t kw = r->Count(4);
  out->keyword_nodes.clear();
  out->keyword_nodes.reserve(kw);
  for (size_t i = 0; i < kw; ++i) out->keyword_nodes.push_back(r->U32());
  size_t kd = r->Count(8);
  out->keyword_distances.clear();
  out->keyword_distances.reserve(kd);
  for (size_t i = 0; i < kd; ++i) out->keyword_distances.push_back(r->F64());
  out->edge_score_raw = r->F64();
  out->node_prestige = r->F64();
  out->score = r->F64();
  out->generated_at = r->F64();
  out->explored_at_generation = r->U64();
  out->touched_at_generation = r->U64();
  return r->ok();
}

void WriteMetrics(WireWriter* w, const SearchMetrics& m) {
  w->U64(m.nodes_explored);
  w->U64(m.nodes_touched);
  w->U64(m.edges_relaxed);
  w->U64(m.propagation_steps);
  w->U64(m.answers_generated);
  w->U64(m.answers_output);
  w->U64(m.page_hits);
  w->U64(m.page_misses);
  w->U64(m.page_waits);
  w->U64(m.io_errors);
  w->F64(m.elapsed_seconds);
  w->U32(static_cast<uint32_t>(m.generated_times.size()));
  for (double t : m.generated_times) w->F64(t);
  w->U32(static_cast<uint32_t>(m.output_times.size()));
  for (double t : m.output_times) w->F64(t);
  w->U8(m.budget_exhausted ? 1 : 0);
}

bool ReadMetrics(WireReader* r, SearchMetrics* out) {
  out->nodes_explored = r->U64();
  out->nodes_touched = r->U64();
  out->edges_relaxed = r->U64();
  out->propagation_steps = r->U64();
  out->answers_generated = r->U64();
  out->answers_output = r->U64();
  out->page_hits = r->U64();
  out->page_misses = r->U64();
  out->page_waits = r->U64();
  out->io_errors = r->U64();
  out->elapsed_seconds = r->F64();
  size_t gen = r->Count(8);
  out->generated_times.clear();
  out->generated_times.reserve(gen);
  for (size_t i = 0; i < gen; ++i) out->generated_times.push_back(r->F64());
  size_t rel = r->Count(8);
  out->output_times.clear();
  out->output_times.reserve(rel);
  for (size_t i = 0; i < rel; ++i) out->output_times.push_back(r->F64());
  out->budget_exhausted = r->U8() != 0;
  return r->ok();
}

void WriteFinalReply(WireWriter* w, const FinalReply& f) {
  w->U8(static_cast<uint8_t>(f.status));
  WriteMetrics(w, f.metrics);
}

bool ReadFinalReply(WireReader* r, FinalReply* out) {
  uint8_t status = r->U8();
  if (status > static_cast<uint8_t>(SubscribeStatus::kIoError)) return false;
  out->status = static_cast<SubscribeStatus>(status);
  return ReadMetrics(r, &out->metrics) && r->Done();
}

}  // namespace banks::net
