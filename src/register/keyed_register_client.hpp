// keyed_register_client.hpp — drives keyed register operations in a
// simulation and records per-key invocation/response histories for the
// linearizability checkers.
//
// The multi-key analogue of register_client: every operation is tagged
// with its key, and history_of(key) projects the recorded run onto one
// key — each projection must independently linearize against MWMR register
// semantics (operations on different keys never interact).
//
// Well-formedness contract: a process may run many concurrent operations
// (the service pipelines them), but not two concurrent operations on the
// same key — see keyed_register.hpp.
#pragma once

#include <vector>

#include "lincheck/register_history.hpp"
#include "register/keyed_register.hpp"
#include "sim/simulation.hpp"

namespace gqs {

template <class Node>
class keyed_register_client {
 public:
  keyed_register_client(simulation& sim, std::vector<Node*> nodes)
      : sim_(&sim), nodes_(std::move(nodes)) {}

  /// Schedules write(key, x) at process p (at the current instant);
  /// returns the history index of the operation.
  std::size_t invoke_write(process_id p, service_key key, reg_value x) {
    const std::size_t idx = history_.size();
    keyed_register_op rec;
    rec.key = key;
    rec.op.kind = reg_op_kind::write;
    rec.op.proc = p;
    rec.op.value = x;
    rec.op.invoked_at = sim_->now();
    history_.push_back(rec);
    sim_->post(p, [this, idx, p, key, x] {
      history_[idx].op.invoked_at = sim_->now();
      history_[idx].op.invoked_stamp = sim_->take_stamp();
      nodes_[p]->write(key, x, [this, idx](reg_version installed) {
        history_[idx].op.returned_at = sim_->now();
        history_[idx].op.returned_stamp = sim_->take_stamp();
        history_[idx].op.version = installed;
      });
    });
    return idx;
  }

  /// Schedules read(key) at process p; returns the history index.
  std::size_t invoke_read(process_id p, service_key key) {
    const std::size_t idx = history_.size();
    keyed_register_op rec;
    rec.key = key;
    rec.op.kind = reg_op_kind::read;
    rec.op.proc = p;
    rec.op.invoked_at = sim_->now();
    history_.push_back(rec);
    sim_->post(p, [this, idx, p, key] {
      history_[idx].op.invoked_at = sim_->now();
      history_[idx].op.invoked_stamp = sim_->take_stamp();
      nodes_[p]->read(key, [this, idx](reg_value v, reg_version observed) {
        history_[idx].op.returned_at = sim_->now();
        history_[idx].op.returned_stamp = sim_->take_stamp();
        history_[idx].op.value = v;
        history_[idx].op.version = observed;
      });
    });
    return idx;
  }

  bool complete(std::size_t idx) const {
    return history_.at(idx).op.complete();
  }

  bool all_complete() const {
    for (const keyed_register_op& rec : history_)
      if (!rec.op.complete()) return false;
    return true;
  }

  std::size_t pending_count() const {
    std::size_t n = 0;
    for (const keyed_register_op& rec : history_) n += !rec.op.complete();
    return n;
  }

  /// The run projected onto one key, in invocation order.
  register_history history_of(service_key key) const {
    register_history h;
    for (const keyed_register_op& rec : history_)
      if (rec.key == key) h.push_back(rec.op);
    return h;
  }

  const std::vector<keyed_register_op>& history() const noexcept {
    return history_;
  }

 private:
  simulation* sim_;
  std::vector<Node*> nodes_;
  std::vector<keyed_register_op> history_;
};

}  // namespace gqs
