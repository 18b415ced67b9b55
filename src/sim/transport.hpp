// transport.hpp — separation of protocol logic from network endpoints.
//
// A `component` is a protocol state machine (quorum access functions, a
// register, consensus, ...) that communicates through an abstract
// `transport`. A `single_host` is a simulation node hosting one component
// over the flooding layer.
#pragma once

#include <memory>
#include <stdexcept>
#include <vector>

#include "sim/flooding.hpp"

namespace gqs {

/// What a protocol component may do to the outside world. Unicast and
/// broadcast are flooding-routed (transitive connectivity, per the paper's
/// WLOG assumption); a unicast over a healthy channel is one direct
/// message. Timers are one-shot.
class transport {
 public:
  virtual ~transport() = default;
  virtual void unicast(process_id dest, const message_ptr& payload) = 0;
  virtual void broadcast(const message_ptr& payload) = 0;
  virtual int set_timer(sim_time delay) = 0;
  virtual process_id self() const = 0;
  virtual process_id size() const = 0;
  virtual sim_time now() const = 0;
  /// The host's observability surface; nullptr when the transport has none
  /// (bespoke test transports need not care). Components self-register
  /// instruments and open spans through it.
  virtual obs_bundle* obs() const { return nullptr; }
};

/// A protocol building block, bound to a transport by its host.
class component {
 public:
  virtual ~component() = default;

  void bind(transport& t) { tr_ = &t; }

  /// Called once at simulation start (time 0).
  virtual void start() {}
  /// A payload originated by `origin` arrived (possibly relayed).
  virtual void deliver(process_id origin, const message_ptr& payload) = 0;
  /// A timer armed by this component fired.
  virtual void on_timeout(int timer_id) { (void)timer_id; }

 protected:
  process_id id() const { return tr().self(); }
  process_id system_size() const { return tr().size(); }
  sim_time now() const { return tr().now(); }
  void unicast(process_id dest, const message_ptr& m) {
    tr().unicast(dest, m);
  }
  void broadcast(const message_ptr& m) { tr().broadcast(m); }
  int set_timer(sim_time delay) { return tr().set_timer(delay); }

  /// Null-safe observability accessor (nullptr before bind() too).
  obs_bundle* obs() const { return tr_ ? tr_->obs() : nullptr; }

 private:
  friend class targeted_round;  // sends and arms timers for its owner

  transport& tr() const {
    if (!tr_) throw std::logic_error("component used before bind()");
    return *tr_;
  }
  transport* tr_ = nullptr;
};

/// Simulation node hosting exactly one component. Object facades that
/// wrap a protocol component into a node (snapshot_node over the keyed
/// quorum service, for example) derive from it.
class single_host : public flooding_node, private transport {
 public:
  explicit single_host(std::unique_ptr<component> c) : comp_(std::move(c)) {
    if (!comp_) throw std::invalid_argument("single_host: null component");
    comp_->bind(*this);
  }

  /// Typed access to the hosted component.
  template <class C>
  C& as() {
    return dynamic_cast<C&>(*comp_);
  }

 protected:
  void on_start() override { comp_->start(); }
  void on_timer(int timer_id) override { comp_->on_timeout(timer_id); }
  void on_deliver(process_id origin, const message_ptr& payload) override {
    comp_->deliver(origin, payload);
  }

 private:
  void unicast(process_id dest, const message_ptr& m) override {
    flood_send(dest, m);
  }
  void broadcast(const message_ptr& m) override { flood_broadcast(m); }
  int set_timer(sim_time delay) override { return node::set_timer(delay); }
  process_id self() const override { return node::id(); }
  process_id size() const override { return node::system_size(); }
  sim_time now() const override { return node::now(); }
  obs_bundle* obs() const override { return &node::sim().obs(); }

  std::unique_ptr<component> comp_;
};

}  // namespace gqs
