#include "cluster/coord_server.h"

#include "net/wire.h"
#include "obs/trace.h"

namespace tardis {
namespace cluster {

StatusOr<std::unique_ptr<CoordServer>> CoordServer::Start(
    TardisStore* store, TwoPhaseParticipant* participant,
    CoordServerOptions options) {
  std::unique_ptr<CoordServer> server(
      new CoordServer(store, participant, std::move(options)));
  CoordServer* raw = server.get();
  auto port = raw->server_.Listen(
      raw->options_.port, Splitter::Frame(),
      [raw](const ConnPtr& conn, std::string payload) {
        ReplMessage req;
        if (!DecodeReplMessage(Slice(payload), &req).ok()) {
          raw->server_.Reply(conn, "", /*close=*/true);
          return;
        }
        ReplMessage reply;
        raw->Dispatch(req, &reply);
        std::string frame;
        EncodeFrame(reply, &frame);
        raw->server_.Reply(conn, frame);
      });
  if (!port.ok()) return port.status();
  raw->listen_port_ = *port;
  raw->server_.Start();
  return server;
}

CoordServer::CoordServer(TardisStore* store, TwoPhaseParticipant* participant,
                         CoordServerOptions options)
    : store_(store),
      participant_(participant),
      options_(std::move(options)),
      server_(ConnServer::Options{
          options_.resolve_interval_ms,
          [this] { participant_->ResolveInDoubt(); }}) {}

std::string CoordServer::ApplyWriteSet(const ReplMessage& req) {
  // Exactly-once: a retried sessioned write answers from the dedup table
  // with the original commit's state instead of re-executing.
  if (req.session_id != 0) {
    GlobalStateId prior;
    if (store_->session_dedup()->Lookup(req.session_id, req.session_seq,
                                        &prior)) {
      return "OK STATE " + prior.ToString();
    }
  }
  auto session = store_->CreateSession();
  auto txn = store_->Begin(session.get());
  if (!txn.ok()) return "ERR " + txn.status().ToString();
  (*txn)->SetSessionTag(req.session_id, req.session_seq);
  for (const auto& [key, value] : req.commit.writes) {
    const Slice v = value ? Slice(*value) : Slice();
    Status s = (*txn)->Put(key, v);
    if (!s.ok()) {
      (*txn)->Abort();
      return "ERR " + s.ToString();
    }
  }
  Status s = (*txn)->Commit();
  if (!s.ok()) return "ERR " + s.ToString();
  if (req.session_id != 0 && session->last_commit() != nullptr) {
    return "OK STATE " + session->last_commit()->guid().ToString();
  }
  return "OK";
}

void CoordServer::Dispatch(const ReplMessage& req, ReplMessage* reply) {
  // Adopt the frame's trace context for the whole dispatch: the store /
  // 2PC / replication work below runs on this thread, so its spans (and
  // any frames it sends onward) join the router's trace.
  obs::TraceContext ctx{req.trace_id, req.trace_span, req.trace_sampled};
  obs::TraceContextScope bind(ctx);
  Status s;
  switch (req.type) {
    case ReplMessage::Type::kRoute: {
      TARDIS_TRACE_SPAN("coord", "route");
      reply->type = ReplMessage::Type::kRouteReply;
      reply->txn_id = req.txn_id;
      if (!req.commit.writes.empty()) {
        reply->text = ApplyWriteSet(req);
      } else if (options_.execute) {
        reply->text = options_.execute(req.text);
      } else {
        reply->text = "ERR no command executor";
      }
      return;
    }
    case ReplMessage::Type::kPrepare: {
      TARDIS_TRACE_SPAN("coord", "prepare");
      s = participant_->HandlePrepare(req, reply);
      break;
    }
    case ReplMessage::Type::kDecide: {
      TARDIS_TRACE_SPAN("coord", "decide");
      s = participant_->HandleDecide(req, reply);
      break;
    }
    case ReplMessage::Type::kTxnStatus:
      s = participant_->HandleTxnStatus(req, reply);
      break;
    default:
      s = Status::InvalidArgument("unexpected coordination frame");
      break;
  }
  if (!s.ok()) {
    // Always answer: the router's deadline handling is simpler when
    // errors come back as frames instead of silence.
    reply->type = ReplMessage::Type::kRouteReply;
    reply->txn_id = req.txn_id;
    reply->text = "ERR " + s.ToString();
  }
}

}  // namespace cluster
}  // namespace tardis
