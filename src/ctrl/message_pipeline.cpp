#include "ctrl/message_pipeline.hpp"

#include <algorithm>

#include "check/assert.hpp"
#include "obs/observability.hpp"

namespace tmg::ctrl {

const char* to_string(MessageType t) {
  switch (t) {
    case MessageType::PacketIn: return "packet-in";
    case MessageType::PortStatus: return "port-status";
    case MessageType::EchoReply: return "echo-reply";
    case MessageType::FlowRemoved: return "flow-removed";
    case MessageType::FlowStats: return "flow-stats";
    case MessageType::PortStats: return "port-stats";
    case MessageType::LldpObservation: return "lldp-observation";
    case MessageType::HostEvent: return "host-event";
    case MessageType::LinkRemoved: return "link-removed";
    case MessageType::FlowModOut: return "flow-mod-out";
  }
  return "?";
}

PipelineMessage PipelineMessage::from(std::uint32_t switch_index,
                                      const of::PacketIn& pi) {
  PipelineMessage m;
  m.type = MessageType::PacketIn;
  m.dpid = pi.dpid;
  m.switch_index = switch_index;
  m.packet_in = &pi;
  return m;
}

PipelineMessage PipelineMessage::from(of::Dpid dpid,
                                      std::uint32_t switch_index,
                                      const of::PortStatus& ps) {
  PipelineMessage m;
  m.type = MessageType::PortStatus;
  m.dpid = dpid;
  m.switch_index = switch_index;
  m.port_status = &ps;
  return m;
}

PipelineMessage PipelineMessage::from(of::Dpid dpid,
                                      std::uint32_t switch_index,
                                      const of::EchoReply& er) {
  PipelineMessage m;
  m.type = MessageType::EchoReply;
  m.dpid = dpid;
  m.switch_index = switch_index;
  m.echo_reply = &er;
  return m;
}

PipelineMessage PipelineMessage::from(of::Dpid dpid,
                                      std::uint32_t switch_index,
                                      const of::FlowRemoved& fr) {
  PipelineMessage m;
  m.type = MessageType::FlowRemoved;
  m.dpid = dpid;
  m.switch_index = switch_index;
  m.flow_removed = &fr;
  return m;
}

PipelineMessage PipelineMessage::from(of::Dpid dpid,
                                      std::uint32_t switch_index,
                                      const of::FlowStatsReply& fsr) {
  PipelineMessage m;
  m.type = MessageType::FlowStats;
  m.dpid = dpid;
  m.switch_index = switch_index;
  m.flow_stats = &fsr;
  return m;
}

PipelineMessage PipelineMessage::from(of::Dpid dpid,
                                      std::uint32_t switch_index,
                                      const of::PortStatsReply& psr) {
  PipelineMessage m;
  m.type = MessageType::PortStats;
  m.dpid = dpid;
  m.switch_index = switch_index;
  m.port_stats = &psr;
  return m;
}

PipelineMessage PipelineMessage::from(const LldpObservation& obs) {
  PipelineMessage m;
  m.type = MessageType::LldpObservation;
  m.dpid = obs.dst.dpid;
  m.lldp_observation = &obs;
  return m;
}

PipelineMessage PipelineMessage::from(const HostEvent& ev) {
  PipelineMessage m;
  m.type = MessageType::HostEvent;
  m.dpid = ev.new_loc.dpid;
  m.host_event = &ev;
  return m;
}

PipelineMessage PipelineMessage::from(const topo::Link& link) {
  PipelineMessage m;
  m.type = MessageType::LinkRemoved;
  m.dpid = link.a.dpid;
  m.link_removed = &link;
  return m;
}

PipelineMessage PipelineMessage::from(of::Dpid dpid, const of::FlowMod& fm) {
  PipelineMessage m;
  m.type = MessageType::FlowModOut;
  m.dpid = dpid;
  m.flow_mod = &fm;
  return m;
}

void MessagePipeline::insert(Entry entry) {
  // Deterministic duplicate-name resolution: the Nth registration of a
  // base name becomes "name#N" (N >= 2).
  std::size_t same = 0;
  const std::string base = entry.name;
  for (const Entry& e : chain_) {
    if (e.name == base ||
        (e.name.size() > base.size() && e.name.compare(0, base.size(), base) == 0 &&
         e.name[base.size()] == '#')) {
      ++same;
    }
  }
  if (same > 0) entry.name = base + "#" + std::to_string(same + 1);
  const auto pos = std::upper_bound(
      chain_.begin(), chain_.end(), entry, [](const Entry& a, const Entry& b) {
        if (a.priority != b.priority) return a.priority < b.priority;
        return a.name < b.name;
      });
  chain_.insert(pos, std::move(entry));
}

void MessagePipeline::add(int priority, MessageListener& listener) {
  Entry e;
  e.priority = priority;
  e.name = listener.name();
  e.listener = &listener;
  e.mask = listener.subscriptions();
  insert(std::move(e));
}

MessageListener& MessagePipeline::add_owned(
    int priority, std::unique_ptr<MessageListener> listener) {
  TMG_ASSERT(listener != nullptr, "MessagePipeline: null listener");
  MessageListener& ref = *listener;
  Entry e;
  e.priority = priority;
  e.name = ref.name();
  e.listener = &ref;
  e.owned = std::move(listener);
  e.mask = ref.subscriptions();
  insert(std::move(e));
  return ref;
}

void MessagePipeline::set_observability(obs::Observability* obs,
                                        const sim::EventLoop* loop) {
  obs_ = obs;
  obs_loop_ = obs == nullptr ? nullptr : loop;
  obs_parent_ = 0;
  if (obs_ != nullptr) {
    obs_dispatches_ = &obs_->metrics().counter("pipeline.dispatches");
    obs_queue_depth_ =
        &obs_->metrics().histogram("pipeline.queue_depth", 0.0, 4096.0, 64);
    obs_visited_ = &obs_->metrics().histogram("pipeline.visited", 0.0, 32.0, 32);
  } else {
    obs_dispatches_ = nullptr;
    obs_queue_depth_ = nullptr;
    obs_visited_ = nullptr;
  }
}

void MessagePipeline::reset_stats() {
  for (Entry& e : chain_) {
    e.dispatches = 0;
    e.stops = 0;
  }
}

obs::SpanId MessagePipeline::open_dispatch_span(const PipelineMessage& msg) {
  if (!obs_->trace_dispatch()) return 0;
  const sim::SimTime now =
      obs_loop_ != nullptr ? obs_loop_->now() : sim::SimTime::zero();
  return obs_->trace().begin_span(
      now, "pipeline", std::string("dispatch:") + to_string(msg.type),
      obs_parent_);
}

void MessagePipeline::close_listener_span(obs::SpanId span,
                                          const DispatchContext& ctx,
                                          Disposition d,
                                          Verdict verdict_before) {
  if (span == 0) return;
  obs::TraceLog& trace = obs_->trace();
  trace.annotate(span, "disposition",
                 d == Disposition::Stop ? "stop" : "continue");
  if (ctx.verdict != verdict_before) {
    trace.annotate(span, "verdict",
                   ctx.verdict == Verdict::Block ? "block" : "allow");
  }
  trace.end_span(span, obs_loop_ != nullptr ? obs_loop_->now()
                                            : sim::SimTime::zero());
}

void MessagePipeline::dispatch(const PipelineMessage& msg,
                               DispatchContext& ctx) {
  const std::uint32_t bit = mask_of(msg.type);
  // Observed dispatch: a span tree (dispatch -> per-listener children,
  // nested dispatches parent under the listener that published them) and
  // queue-depth/fanout histograms. obs_ == nullptr skips all of it; the
  // simulated walk below is identical either way.
  const bool observed = obs_ != nullptr;
  obs::SpanId dispatch_span = 0;
  obs::SpanId saved_parent = 0;
  if (observed) {
    dispatch_span = open_dispatch_span(msg);
    saved_parent = obs_parent_;
    if (dispatch_span != 0) obs_parent_ = dispatch_span;
    obs_dispatches_->inc();
    if (obs_loop_ != nullptr) {
      obs_queue_depth_->add(static_cast<double>(obs_loop_->live_events()));
    }
  }
  const std::size_t visited_at_entry = ctx.visited;

  // Indexed walk: dispatch re-enters when a service publishes a derived
  // event mid-chain, and registration during dispatch is forbidden, so
  // the vector is stable for the whole walk.
  for (std::size_t i = 0; i < chain_.size(); ++i) {
    Entry& e = chain_[i];
    if (!e.enabled || (e.mask & bit) == 0) continue;
    ++e.dispatches;
    ++ctx.visited;
    obs::SpanId listener_span = 0;
    const Verdict verdict_before = ctx.verdict;
    if (observed && dispatch_span != 0) {
      listener_span = obs_->trace().begin_span(
          obs_loop_ != nullptr ? obs_loop_->now() : sim::SimTime::zero(),
          "pipeline.listener", e.name, dispatch_span);
      if (listener_span != 0) obs_parent_ = listener_span;
    }
    const Disposition d = e.listener->on_message(msg, ctx);
    if (observed) {
      if (dispatch_span != 0) obs_parent_ = dispatch_span;
      close_listener_span(listener_span, ctx, d, verdict_before);
    }
    if (d == Disposition::Stop) {
      ++e.stops;
      ctx.stopped_by = e.name.c_str();
      break;
    }
  }

  if (observed) {
    obs_visited_->add(static_cast<double>(ctx.visited - visited_at_entry));
    if (dispatch_span != 0) {
      obs::TraceLog& trace = obs_->trace();
      trace.annotate(dispatch_span, "visited",
                     std::to_string(ctx.visited - visited_at_entry));
      if (ctx.stopped_by != nullptr) {
        trace.annotate(dispatch_span, "stopped_by", ctx.stopped_by);
      }
      trace.annotate(dispatch_span, "verdict",
                     ctx.verdict == Verdict::Block ? "block" : "allow");
      trace.end_span(dispatch_span, obs_loop_ != nullptr
                                        ? obs_loop_->now()
                                        : sim::SimTime::zero());
    }
    obs_parent_ = saved_parent;
  }
}

Verdict MessagePipeline::dispatch(const PipelineMessage& msg) {
  DispatchContext ctx;
  dispatch(msg, ctx);
  return ctx.verdict;
}

const MessagePipeline::Entry* MessagePipeline::find_entry(
    const std::string& name) const {
  for (const Entry& e : chain_) {
    if (e.name == name) return &e;
  }
  return nullptr;
}

bool MessagePipeline::set_enabled(const std::string& name, bool enabled) {
  for (Entry& e : chain_) {
    if (e.name == name) {
      e.enabled = enabled;
      return true;
    }
  }
  return false;
}

bool MessagePipeline::is_enabled(const std::string& name) const {
  const Entry* e = find_entry(name);
  return e != nullptr && e->enabled;
}

std::vector<MessagePipeline::ListenerStats> MessagePipeline::stats() const {
  std::vector<ListenerStats> out;
  out.reserve(chain_.size());
  for (const Entry& e : chain_) {
    ListenerStats s;
    s.name = e.name;
    s.priority = e.priority;
    s.enabled = e.enabled;
    s.subscriptions = e.mask;
    s.dispatches = e.dispatches;
    s.stops = e.stops;
    out.push_back(std::move(s));
  }
  return out;
}

std::vector<std::string> MessagePipeline::chain_names() const {
  std::vector<std::string> out;
  out.reserve(chain_.size());
  for (const Entry& e : chain_) out.push_back(e.name);
  return out;
}

std::vector<std::string> MessagePipeline::audit() const {
  std::vector<std::string> out;
  for (std::size_t i = 0; i + 1 < chain_.size(); ++i) {
    const Entry& a = chain_[i];
    const Entry& b = chain_[i + 1];
    if (a.priority > b.priority ||
        (a.priority == b.priority && a.name >= b.name)) {
      out.push_back("chain not sorted at " + a.name + " -> " + b.name);
    }
  }
  for (std::size_t i = 0; i < chain_.size(); ++i) {
    for (std::size_t j = i + 1; j < chain_.size(); ++j) {
      if (chain_[i].name == chain_[j].name) {
        out.push_back("duplicate listener name " + chain_[i].name);
      }
    }
    if (chain_[i].stops > chain_[i].dispatches) {
      out.push_back(chain_[i].name + " stopped more dispatches than it saw");
    }
    if (chain_[i].mask == 0) {
      out.push_back(chain_[i].name + " subscribes to nothing");
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace tmg::ctrl
