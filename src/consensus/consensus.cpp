#include "consensus/consensus.hpp"

namespace gqs {

consensus_node::consensus_node(quorum_config config, consensus_options options)
    : config_(std::move(config)),
      options_(options),
      schedule_(options_.view_duration_unit) {
  config_.validate();
  options_.validate();
}

void consensus_node::propose(value_type x, propose_callback done) {
  if (my_val_.has_value())
    throw std::logic_error("consensus: propose invoked twice");
  my_val_ = x;
  if (decision_) {
    done(*decision_);
    return;
  }
  waiters_.push_back(std::move(done));
  // The leader may already hold 1B messages from a read quorum in which
  // nobody accepted anything; with my_val now set it can propose
  // (the "wait" at line 11 is re-evaluated).
  try_lead();
}

void consensus_node::start() {
  if (options_.startup_delay == 0) {
    advance_view();
    return;
  }
  startup_timer_ = set_timer(options_.startup_delay);
}

void consensus_node::on_timeout(int timer_id) {
  if (timer_id == startup_timer_) {
    startup_timer_ = -1;
    advance_view();
    return;
  }
  if (timer_id != view_timer_) return;  // stale timer
  advance_view();
}

// Figure 6, lines 27-31.
void consensus_node::advance_view() {
  schedule_.enter(schedule_.view() + 1, now());
  view_timer_ = set_timer(schedule_.duration());
  const std::uint64_t view = schedule_.view();
  // The schedule is monotone, so the promise never refuses.
  const auto rec = acceptor_.promise(view);
  unicast(leader_of(view), make_message<msg_1b>(view, rec->aview, rec->val));
  phase_ = phase_t::enter;  // line 31 — even after deciding
  // Messages for this view may already be buffered.
  try_lead();
  try_accept();
  try_decide();
  // Garbage-collect buffers of strictly lower views: the protocol ignores
  // them from now on.
  one_bs_.erase(one_bs_.begin(), one_bs_.lower_bound(view));
  two_as_.erase(two_as_.begin(), two_as_.lower_bound(view));
  two_bs_.erase(two_bs_.begin(), two_bs_.lower_bound(view));
}

void consensus_node::deliver(process_id origin, const message_ptr& payload) {
  if (const auto* m = message_cast<msg_1b>(payload)) {
    if (m->view < current_view()) return;  // out of date
    one_bs_[m->view][origin] = accepted_rec<value_type>{m->aview, m->val};
    try_lead();
  } else if (const auto* m = message_cast<msg_2a>(payload)) {
    if (m->view < current_view()) return;
    two_as_.emplace(m->view, m->x);  // one leader per view ⇒ one 2A value
    try_accept();
  } else if (const auto* m = message_cast<msg_2b>(payload)) {
    if (m->view < current_view()) return;
    two_bs_[m->view][origin] = m->x;
    try_decide();
  }
}

// Figure 6, lines 8-16: the leader gathers 1Bs from a read quorum.
void consensus_node::try_lead() {
  if (phase_ != phase_t::enter) return;
  const std::uint64_t view = current_view();
  if (leader_of(view) != id()) return;
  const auto it = one_bs_.find(view);
  if (it == one_bs_.end()) return;
  process_set responders;
  for (const auto& [p, e] : it->second) responders.insert(p);
  const auto quorum = covered_quorum(config_.reads, responders);
  if (!quorum) return;

  // Pick the value accepted in the highest view among the quorum, if any
  // (the shared adoption rule — acceptor_core.hpp).
  std::vector<accepted_rec<value_type>> reports;
  reports.reserve(static_cast<std::size_t>(quorum->size()));
  for (process_id p : *quorum) reports.push_back(it->second.at(p));
  std::optional<value_type> pick = adopt_highest(reports);
  if (!pick) {
    if (!my_val_.has_value()) return;  // line 11: skip this turn
    pick = my_val_;
  }
  broadcast(make_message<msg_2a>(view, *pick));
  phase_ = phase_t::propose;
}

// Figure 6, lines 17-22.
void consensus_node::try_accept() {
  if (phase_ != phase_t::enter && phase_ != phase_t::propose) return;
  const std::uint64_t view = current_view();
  const auto it = two_as_.find(view);
  if (it == two_as_.end()) return;
  acceptor_.accept(view, it->second);  // the view was promised on entry
  broadcast(make_message<msg_2b>(view, it->second));
  phase_ = phase_t::accept;
}

// Figure 6, lines 23-26.
void consensus_node::try_decide() {
  if (phase_ == phase_t::decide) return;
  const std::uint64_t view = current_view();
  const auto it = two_bs_.find(view);
  if (it == two_bs_.end()) return;
  // Group matching 2Bs by value (in fact all 2Bs of a view match, because
  // its unique leader sent one 2A).
  for (const auto& [p, x] : it->second) {
    process_set matching;
    for (const auto& [q, y] : it->second)
      if (y == x) matching.insert(q);
    if (covered_quorum(config_.writes, matching)) {
      acceptor_.accept(view, x);
      phase_ = phase_t::decide;
      decision_ = x;
      settle_waiters();
      return;
    }
  }
}

void consensus_node::settle_waiters() {
  auto waiters = std::move(waiters_);
  waiters_.clear();
  for (auto& done : waiters) done(*decision_);
  auto learners = std::move(learners_);
  learners_.clear();
  for (auto& learn : learners) learn(*decision_);
}

}  // namespace gqs
