#include "stream/sink.hpp"

namespace streamha {

Sink::Sink(Simulator& sim, Machine& machine)
    : sim_(sim),
      machine_(machine),
      ack_timer_(sim, kAckFlushInterval,
                 [this] { input_.flushAcks(watermarks_); }) {
  input_.setArrivalListener([this] { drain(); });
}

void Sink::subscribe(StreamId stream) { input_.subscribe(stream); }

void Sink::start() { ack_timer_.start(); }

void Sink::stop() { ack_timer_.stop(); }

void Sink::drain() {
  while (!input_.empty()) {
    const Element e = input_.front();
    input_.pop();
    ++received_;
    checksum_ = checksum_ * 1099511628211ULL + e.value;
    watermarks_[e.stream] = e.seq;
    series_.emplace_back(sim_.now(), toMillis(sim_.now() - e.sourceTs));
  }
}

SampleSet Sink::delays() const {
  SampleSet out;
  out.reserve(series_.size());
  for (const auto& [when, delay] : series_) out.add(delay);
  return out;
}

double Sink::meanDelayBetween(SimTime from, SimTime to) const {
  double total = 0;
  std::size_t count = 0;
  for (const auto& [when, delay] : series_) {
    if (when >= from && when < to) {
      total += delay;
      ++count;
    }
  }
  return count == 0 ? 0.0 : total / static_cast<double>(count);
}

void Sink::resetStats() {
  series_.clear();
  received_ = 0;
  checksum_ = 0;
}

}  // namespace streamha
