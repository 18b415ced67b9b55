#include "sim/simulation.hpp"

#include <algorithm>
#include <stdexcept>

namespace gqs {

simulation::simulation(process_id n, network_options net, fault_plan faults,
                       std::uint64_t seed)
    : n_(n),
      net_(net),
      faults_(std::move(faults)),
      epochs_(faults_),
      rng_(seed),
      nodes_(n) {
  if (n == 0) throw std::invalid_argument("simulation: empty system");
  if (faults_.system_size() != n)
    throw std::invalid_argument("simulation: fault plan size mismatch");
  net_.validate();
  channels_ = link_network(n, net_.channel);
  // The delay bound in force: with gst == 0 every send is timely.
  wheel_.configure(net_.gst == 0 ? net_.delta
                                 : std::max(net_.max_delay, net_.delta));
  if (net_.telemetry) obs_.metrics.enable();
  if (net_.record_spans) obs_.tracer.start_recording();
  if (net_.sample_period > 0) obs_.sampler.configure(net_.sample_period);
  register_obs_bridges();
}

void simulation::register_obs_bridges() {
  obs_.metrics.observe_counters("sim.", metrics_);
  if (obs_.sampler.enabled() && channels_.enabled()) {
    obs_.sampler.add_probe(
        "net.max_link_queue_depth",
        [this] {
          return static_cast<std::int64_t>(channels_.max_queue_depth());
        },
        timeseries_sampler::agg::max);
  }
}

simulation::~simulation() = default;

void simulation::set_node(process_id p, std::unique_ptr<node> nd) {
  if (p >= n_) throw std::out_of_range("simulation: process out of range");
  if (!nd) throw std::invalid_argument("simulation: null node");
  if (started_)
    throw std::logic_error("simulation: set_node after start");
  nd->attach(this, p);
  nd->on_attach();
  nodes_[p] = std::move(nd);
}

node& simulation::node_at(process_id p) {
  if (p >= n_ || !nodes_[p])
    throw std::out_of_range("simulation: no node at process");
  return *nodes_[p];
}

void simulation::start() {
  if (started_) throw std::logic_error("simulation: started twice");
  for (process_id p = 0; p < n_; ++p)
    if (!nodes_[p])
      throw std::logic_error("simulation: node missing at process " +
                             std::to_string(p));
  started_ = true;
  for (process_id p = 0; p < n_; ++p) {
    const std::uint32_t slot = alloc_record();
    event_record& e = slab_[slot];
    e.kind = event_kind::start;
    e.a = p;
    push_entry(0, slot);
  }
}

std::uint32_t simulation::alloc_record() {
  if (!free_slots_.empty()) {
    const std::uint32_t slot = free_slots_.back();
    free_slots_.pop_back();
    return slot;
  }
  slab_.emplace_back();
  return static_cast<std::uint32_t>(slab_.size() - 1);
}

void simulation::push_entry(sim_time at, std::uint32_t slot) {
  wheel_.push(heap_entry{at, next_seq_++, slot});
}

simulation::heap_entry simulation::pop_entry() { return wheel_.pop(); }

// ---- event_wheel ----

void simulation::event_wheel::configure(sim_time delay_bound) {
  // Bucket width: the smallest power of two giving the wheel a span of
  // roughly four delay bounds, so virtually every message lands inside
  // the window and only long timers take the overflow path.
  width_shift_ = 0;
  const sim_time target =
      std::max<sim_time>(1, delay_bound / (kBuckets / 4));
  while ((sim_time{1} << width_shift_) < target) ++width_shift_;
}

void simulation::event_wheel::push(heap_entry e) {
  if (size_ == 0) {
    base_ = (e.at >> width_shift_) << width_shift_;
    cursor_ = index_of(e.at);
    active_.clear();
    active_.push_back(e);
    size_ = 1;
    return;
  }
  ++size_;
  const sim_time width = sim_time{1} << width_shift_;
  if (e.at < base_ + width) {
    // Belongs to the bucket being drained (usually a post at the current
    // instant): keep active_ sorted descending, min at the back.
    active_.insert(
        std::lower_bound(active_.begin(), active_.end(), e, entry_later{}),
        e);
  } else if (e.at - base_ < static_cast<sim_time>(kBuckets) * width) {
    buckets_[index_of(e.at)].push_back(e);
    ++in_buckets_;
  } else {
    overflow_.push_back(e);
    std::push_heap(overflow_.begin(), overflow_.end(), entry_later{});
  }
}

simulation::heap_entry simulation::event_wheel::pop() {
  const heap_entry top = active_.back();
  active_.pop_back();
  --size_;
  if (active_.empty() && size_ > 0) refill();
  return top;
}

void simulation::event_wheel::refill() {
  const sim_time width = sim_time{1} << width_shift_;
  if (in_buckets_ == 0) {
    // The window is empty — everything pending is in the overflow heap.
    // Jump the window straight to the earliest entry.
    base_ = (overflow_.front().at >> width_shift_) << width_shift_;
    cursor_ = index_of(overflow_.front().at);
    migrate_overflow();
    activate();
    return;
  }
  // Advance bucket by bucket; entries in buckets always lie within the
  // next kBuckets steps, so this terminates.
  for (;;) {
    base_ += width;
    cursor_ = (cursor_ + 1) & (kBuckets - 1);
    migrate_overflow();
    if (!buckets_[cursor_].empty()) {
      activate();
      return;
    }
  }
}

void simulation::event_wheel::migrate_overflow() {
  const sim_time horizon =
      base_ + (static_cast<sim_time>(kBuckets) << width_shift_);
  while (!overflow_.empty() && overflow_.front().at < horizon) {
    std::pop_heap(overflow_.begin(), overflow_.end(), entry_later{});
    const heap_entry e = overflow_.back();
    overflow_.pop_back();
    buckets_[index_of(e.at)].push_back(e);
    ++in_buckets_;
  }
}

void simulation::event_wheel::activate() {
  in_buckets_ -= buckets_[cursor_].size();
  active_.swap(buckets_[cursor_]);  // old active_ is empty; keeps capacity
  std::sort(active_.begin(), active_.end(), entry_later{});
}

sim_time simulation::draw_delay() {
  const sim_time hi = now_ >= net_.gst ? net_.delta : net_.max_delay;
  std::uniform_int_distribution<sim_time> d(net_.min_delay, hi);
  return d(rng_);
}

void simulation::trace_net(const char* name, process_id at,
                           const message* m) {
  obs_.tracer.leaf(name, "net", at, m ? m->trace_span : span_ref{}, now_);
}

void simulation::send(process_id from, process_id to, const message_ptr& m,
                      std::size_t framing) {
  if (from >= n_ || to >= n_)
    throw std::out_of_range("simulation::send: process out of range");
  if (from == to)
    throw std::invalid_argument("simulation::send: self-send (use post_local)");
  if (!m) throw std::invalid_argument("simulation::send: null message");
  const std::size_t epoch = current_epoch();
  if (!epochs_.alive(epoch, from)) return;  // crashed sender takes no steps
  ++metrics_.messages_sent;
  const bool traced = obs_.tracer.recording();
  if (traced) trace_net("net.send", from, m.get());
  if (!epochs_.channel_up(epoch, from, to)) {
    ++metrics_.dropped_disconnected;
    if (traced) trace_net("net.drop_channel", from, m.get());
    return;
  }
  // The propagation delay is drawn before the channel layer is consulted
  // so the RNG stream is identical whether or not channels are enabled:
  // with the channel layer disabled this function is byte-for-byte the
  // legacy independent-delay model.
  sim_time arrival = now_ + draw_delay();
  std::size_t bytes = 0;
  if (channels_.enabled()) {
    bytes = framing + m->wire_size();
    const auto admitted =
        channels_.transmit(from, to, bytes, now_, arrival - now_);
    metrics_.bytes_sent += bytes;
    if (metrics_.max_link_queue_depth < channels_.max_queue_depth())
      metrics_.max_link_queue_depth = channels_.max_queue_depth();
    if (obs_.tracer.recording() && m->trace_span.valid()) {
      // Decompose the wire time under the message's causal span: FIFO
      // wait behind the serializer, then occupancy of the serializer.
      if (admitted.serialize_start > now_)
        obs_.tracer.span("net.queue", "net", from, m->trace_span, now_,
                         admitted.serialize_start);
      obs_.tracer.span("net.serialize", "net", from, m->trace_span,
                       admitted.serialize_start, admitted.depart);
    }
    arrival = admitted.arrival;
  }
  const std::uint32_t slot = alloc_record();
  event_record& e = slab_[slot];
  e.kind = event_kind::deliver;
  e.a = from;
  e.b = to;
  e.bytes = bytes;
  e.msg = m;
  push_entry(arrival, slot);
}

void simulation::post(process_id p, std::function<void()> fn) {
  post_after(p, 0, std::move(fn));
}

void simulation::post_local(process_id p, message_ptr m) {
  if (p >= n_) throw std::out_of_range("simulation::post_local: out of range");
  if (!m) throw std::invalid_argument("simulation::post_local: null message");
  const std::uint32_t slot = alloc_record();
  event_record& e = slab_[slot];
  e.kind = event_kind::local;
  e.a = p;
  e.msg = std::move(m);
  push_entry(now_, slot);
}

void simulation::post_after(process_id p, sim_time delay,
                            std::function<void()> fn) {
  if (p >= n_) throw std::out_of_range("simulation::post: out of range");
  if (delay < 0) throw std::invalid_argument("simulation: negative delay");
  const std::uint32_t slot = alloc_record();
  event_record& e = slab_[slot];
  e.kind = event_kind::post;
  e.a = p;
  e.fn = std::move(fn);
  push_entry(now_ + delay, slot);
}

int simulation::set_timer(process_id p, sim_time delay) {
  if (p >= n_) throw std::out_of_range("simulation::set_timer: out of range");
  if (delay < 0) throw std::invalid_argument("simulation: negative delay");
  const int id = next_timer_++;
  const std::uint32_t slot = alloc_record();
  event_record& e = slab_[slot];
  e.kind = event_kind::timer;
  e.a = p;
  e.timer_id = id;
  push_entry(now_ + delay, slot);
  return id;
}

bool simulation::pop_and_dispatch(sim_time horizon) {
  if (wheel_.empty() || wheel_.front().at > horizon) return false;
  const heap_entry top = pop_entry();
  if (top.at < now_)
    throw std::logic_error("simulation: time went backwards");
  now_ = top.at;
  if (now_ >= obs_.sampler.next_due()) obs_.sampler.sample_due(now_);
  // Move the payload out before dispatching: the handler may schedule new
  // events, which can both reuse the freed slot and grow the slab
  // (invalidating references into it). Only the fields the event kind
  // actually uses are touched — in particular the std::function member
  // stays untouched unless this is a post.
  event_record& rec = slab_[top.slot];
  const event_kind kind = rec.kind;
  const process_id a = rec.a;
  const process_id b = rec.b;
  const int timer_id = rec.timer_id;
  const std::size_t bytes = rec.bytes;
  message_ptr msg = std::move(rec.msg);
  const std::size_t epoch = current_epoch();
  switch (kind) {
    case event_kind::start:
      free_slots_.push_back(top.slot);
      if (epochs_.alive(epoch, a)) nodes_[a]->on_start();
      break;
    case event_kind::deliver:
      free_slots_.push_back(top.slot);
      if (!epochs_.alive(epoch, b)) {
        ++metrics_.dropped_receiver_crashed;
        if (obs_.tracer.recording())
          trace_net("net.drop_crashed", a, msg.get());
      } else {
        ++metrics_.messages_delivered;
        metrics_.bytes_delivered += bytes;  // 0 without the channel layer
        if (obs_.tracer.recording())
          trace_net("net.deliver", b, msg.get());
        nodes_[b]->on_message(a, msg);
      }
      break;
    case event_kind::local:
      free_slots_.push_back(top.slot);
      if (epochs_.alive(epoch, a)) nodes_[a]->on_message(a, msg);
      break;
    case event_kind::timer:
      free_slots_.push_back(top.slot);
      if (epochs_.alive(epoch, a)) {
        ++metrics_.timers_fired;
        if (obs_.tracer.recording()) trace_net("net.timer", a, nullptr);
        nodes_[a]->on_timer(timer_id);
      }
      break;
    case event_kind::post: {
      std::function<void()> fn = std::move(rec.fn);
      free_slots_.push_back(top.slot);
      if (epochs_.alive(epoch, a)) fn();
      break;
    }
  }
  ++metrics_.events_processed;
  return true;
}

std::uint64_t simulation::run_until(sim_time horizon) {
  std::uint64_t processed = 0;
  while (pop_and_dispatch(horizon)) ++processed;
  if (now_ < horizon) now_ = horizon;
  return processed;
}

bool simulation::run_until_condition(const std::function<bool()>& done,
                                     sim_time horizon) {
  if (done()) return true;
  while (pop_and_dispatch(horizon))
    if (done()) return true;
  if (now_ < horizon) now_ = horizon;
  return done();
}

bool simulation::idle_before(sim_time horizon) const {
  return wheel_.empty() || wheel_.front().at > horizon;
}

}  // namespace gqs
