// qaf_classical.hpp — quorum access functions for a *classical* quorum
// system (paper Figure 2).
//
// The protocol at process p_i:
//
//   quorum_get():                          quorum_set(u):
//     seq++                                  seq++
//     send GET_REQ(seq) to all               send SET_REQ(seq, u) to all
//     wait for GET_RESP(seq, s_j)            wait for SET_RESP(seq)
//       from all of some R ∈ R                from all of some W ∈ W
//     return {s_j}
//
//   on GET_REQ(k) from p_j:                on SET_REQ(k, u) from p_j:
//     send GET_RESP(k, state) to p_j         state ← u(state)
//                                            send SET_RESP(k) to p_j
//
// Liveness relies on the classical Availability condition (fully correct
// read and write quorums) plus reliable channels between correct
// processes. Under generalized failure patterns (channel failures), the
// request/response pattern can wait forever — exactly the motivation for
// Figure 3; bench E6 demonstrates this.
#pragma once

#include <utility>

#include "quorum/qaf_core.hpp"

namespace gqs {

template <class S>
class classical_qaf : public quorum_access<S> {
 public:
  using typename quorum_access<S>::update_fn;
  using typename quorum_access<S>::get_callback;
  using typename quorum_access<S>::set_callback;

  classical_qaf(quorum_config config, S initial)
      : config_(std::move(config)), state_(std::move(initial)) {
    config_.validate();
  }

  void quorum_get(get_callback done) override {
    const std::uint64_t seq = ++seq_;
    gets_.emplace(seq, pending_get{{}, std::move(done)});
    this->broadcast(make_message<get_req>(seq));
  }

  void quorum_set(update_fn u, set_callback done) override {
    const std::uint64_t seq = ++seq_;
    sets_.emplace(seq, pending_set{{}, std::move(done)});
    this->broadcast(make_message<set_req>(seq, std::move(u)));
  }

  const S& local_state() const override { return state_; }

 protected:
  void deliver(process_id origin, const message_ptr& payload) override {
    if (const auto* m = message_cast<get_req>(payload)) {
      this->unicast(origin, make_message<get_resp>(m->seq, state_));
    } else if (const auto* m = message_cast<set_req>(payload)) {
      state_ = m->update(state_);
      this->unicast(origin, make_message<set_resp>(m->seq));
    } else if (const auto* m = message_cast<get_resp>(payload)) {
      on_get_resp(origin, *m);
    } else if (const auto* m = message_cast<set_resp>(payload)) {
      on_set_resp(origin, *m);
    }
  }

 private:
  struct get_req : message {
    std::uint64_t seq;
    explicit get_req(std::uint64_t k) : seq(k) {}
    std::size_t wire_size() const override { return 16; }
  };
  struct get_resp : message {
    std::uint64_t seq;
    S state;
    get_resp(std::uint64_t k, S s) : seq(k), state(std::move(s)) {}
    std::size_t wire_size() const override { return 8 + sizeof(S); }
  };
  struct set_req : message {
    std::uint64_t seq;
    typename quorum_access<S>::update_fn update;
    set_req(std::uint64_t k, typename quorum_access<S>::update_fn u)
        : seq(k), update(std::move(u)) {}
  };
  struct set_resp : message {
    std::uint64_t seq;
    explicit set_resp(std::uint64_t k) : seq(k) {}
  };

  struct pending_get {
    quorum_response_collector<S> responses;
    get_callback done;
  };
  struct pending_set {
    quorum_cover_tracker responders;
    set_callback done;
  };

  void on_get_resp(process_id from, const get_resp& m) {
    const auto it = gets_.find(m.seq);
    if (it == gets_.end()) return;
    const auto quorum = it->second.responses.add(from, m.state,
                                                 config_.reads);
    if (!quorum) return;
    std::vector<S> states = it->second.responses.gather(*quorum);
    auto done = std::move(it->second.done);
    gets_.erase(it);  // erase before invoking: callback may start a new op
    done(std::move(states));
  }

  void on_set_resp(process_id from, const set_resp& m) {
    const auto it = sets_.find(m.seq);
    if (it == sets_.end()) return;
    if (!it->second.responders.add(from, config_.writes)) return;
    auto done = std::move(it->second.done);
    sets_.erase(it);
    done();
  }

  quorum_config config_;
  S state_;
  std::uint64_t seq_ = 0;
  std::map<std::uint64_t, pending_get> gets_;
  std::map<std::uint64_t, pending_set> sets_;
};

}  // namespace gqs
