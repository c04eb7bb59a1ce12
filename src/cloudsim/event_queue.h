// Discrete-event queue for the prototype-fidelity engine.
//
// Events are (time, callback) pairs executed in time order; ties break by
// insertion order so runs are deterministic.

#ifndef MACARON_SRC_CLOUDSIM_EVENT_QUEUE_H_
#define MACARON_SRC_CLOUDSIM_EVENT_QUEUE_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "src/common/sim_time.h"

namespace macaron {

class EventQueue {
 public:
  using Callback = std::function<void(SimTime)>;

  // Schedules `cb` at absolute time `when` (must not be before `now()`).
  void Schedule(SimTime when, Callback cb);

  // Runs the earliest event; returns false when empty.
  bool RunNext();
  // Drains every event.
  void RunAll();
  // Runs events with time <= `until`.
  void RunUntil(SimTime until);

  bool empty() const { return heap_.empty(); }
  size_t size() const { return heap_.size(); }
  SimTime now() const { return now_; }
  // Time of the earliest pending event; only valid when !empty().
  SimTime PeekTime() const { return heap_.front().time; }

 private:
  struct Event {
    SimTime time;
    uint64_t seq;
    Callback cb;
    bool operator>(const Event& other) const {
      if (time != other.time) {
        return time > other.time;
      }
      return seq > other.seq;
    }
  };

  // A min-heap under std::greater, kept with std::push_heap/pop_heap rather
  // than std::priority_queue so RunNext can move the popped event out of
  // back() instead of copying its callback from top().
  std::vector<Event> heap_;
  uint64_t next_seq_ = 0;
  SimTime now_ = 0;
};

}  // namespace macaron

#endif  // MACARON_SRC_CLOUDSIM_EVENT_QUEUE_H_
