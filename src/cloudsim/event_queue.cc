#include "src/cloudsim/event_queue.h"

#include <algorithm>

#include "src/common/check.h"

namespace macaron {

void EventQueue::Schedule(SimTime when, Callback cb) {
  MACARON_CHECK(when >= now_);
  heap_.push_back(Event{when, next_seq_++, std::move(cb)});
  std::push_heap(heap_.begin(), heap_.end(), std::greater<>{});
}

bool EventQueue::RunNext() {
  if (heap_.empty()) {
    return false;
  }
  // (time, seq) is a strict order, so the pop order does not depend on the
  // heap's layout.
  std::pop_heap(heap_.begin(), heap_.end(), std::greater<>{});
  Event ev = std::move(heap_.back());
  heap_.pop_back();
  now_ = ev.time;
  ev.cb(now_);
  return true;
}

void EventQueue::RunAll() {
  while (RunNext()) {
  }
}

void EventQueue::RunUntil(SimTime until) {
  while (!heap_.empty() && heap_.front().time <= until) {
    RunNext();
  }
  if (until > now_) {
    now_ = until;
  }
}

}  // namespace macaron
