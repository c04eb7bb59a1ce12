// In-flight request tracking.
//
// When uncached data is accessed again before the first remote fetch
// completes, Macaron's cache engine delays the duplicate instead of issuing
// a second egress-charged fetch (§5.2). The delayed request still
// experiences remote-access latency. This table tracks outstanding fetch
// completion times per object for the engines; the ALC mini-simulation
// keeps the same completion times, with the same Pending/Insert/Erase
// semantics, in its per-slot rows (alc_bank.h) — the "false positive hit"
// fix of Fig 5b.
//
// Coalescing is only correct while the cached object the fill targets still
// exists: if the object is deleted or evicted before the fetch completes,
// later accesses must issue a fresh fetch rather than piggyback on a fill
// whose result will be discarded. Two mechanisms enforce that:
//
//   * Invalidate(id) drops the entry when the serving engine evicts or
//     expires the object mid-flight (wired to the OSC evict observer and the
//     TTL shadow's evict callback);
//   * Insert returns a fill ticket, and ClaimTicket(id, ticket) succeeds
//     only if the entry still carries that ticket — the event engine's
//     deferred-admission event claims its ticket at completion time, so a
//     DELETE (or invalidation) between fetch start and completion cancels
//     the admission instead of resurrecting a dead object.
//
// In the sharded engines each shard owns one table, but because requests are
// partitioned by object id (shard_router.h), a given object only ever lands
// in one shard's table: the per-shard tables jointly behave as a single
// global coalescer.

#ifndef MACARON_SRC_CACHE_INFLIGHT_H_
#define MACARON_SRC_CACHE_INFLIGHT_H_

#include <optional>
#include <unordered_map>

#include "src/common/sim_time.h"
#include "src/obs/metrics.h"
#include "src/trace/request.h"

namespace macaron {

class InflightTable {
 public:
  // Records a fetch for `id` completing at `completion`; returns the fill
  // ticket identifying this fetch.
  uint64_t Insert(ObjectId id, SimTime completion) {
    const uint64_t ticket = next_ticket_++;
    auto [it, inserted] = pending_.try_emplace(id, Entry{completion, ticket});
    if (!inserted && completion > it->second.completion) {
      it->second = {completion, ticket};
    }
    if (m_inserts_ != nullptr) {
      m_inserts_->Inc();
    }
    return it->second.ticket;
  }

  // If a fetch for `id` is still outstanding at `now`, returns its
  // completion time; otherwise clears any stale entry and returns nullopt.
  std::optional<SimTime> Pending(ObjectId id, SimTime now) {
    const auto it = pending_.find(id);
    if (it == pending_.end()) {
      return std::nullopt;
    }
    if (it->second.completion <= now) {
      pending_.erase(it);
      return std::nullopt;
    }
    if (m_coalesced_ != nullptr) {
      m_coalesced_->Inc();
    }
    return it->second.completion;
  }

  void Erase(ObjectId id) { pending_.erase(id); }

  // Drops the entry because the object it was filling no longer exists
  // (deleted, evicted, or TTL-expired mid-flight). Returns true if an entry
  // was actually outstanding.
  bool Invalidate(ObjectId id) {
    const bool removed = pending_.erase(id) > 0;
    if (removed && m_invalidated_ != nullptr) {
      m_invalidated_->Inc();
    }
    return removed;
  }

  // Consumes the entry for `id` iff it still carries `ticket` (i.e. no
  // delete/invalidation/newer fetch superseded it since Insert).
  bool ClaimTicket(ObjectId id, uint64_t ticket) {
    const auto it = pending_.find(id);
    if (it == pending_.end() || it->second.ticket != ticket) {
      return false;
    }
    pending_.erase(it);
    return true;
  }

  size_t size() const { return pending_.size(); }

  // Drops entries completed before `now` (periodic housekeeping so the table
  // does not grow with trace length).
  void Sweep(SimTime now) {
    size_t removed = 0;
    for (auto it = pending_.begin(); it != pending_.end();) {
      if (it->second.completion <= now) {
        it = pending_.erase(it);
        ++removed;
      } else {
        ++it;
      }
    }
    if (m_swept_ != nullptr) {
      m_swept_->Inc(removed);
    }
  }

  // Attaches coalescing counters; nullptr (the default) detaches, so an
  // unregistered table's request-path cost stays a null check.
  void RegisterMetrics(obs::MetricsRegistry* registry) {
    if (registry == nullptr) {
      m_inserts_ = nullptr;
      m_coalesced_ = nullptr;
      m_swept_ = nullptr;
      m_invalidated_ = nullptr;
      return;
    }
    m_inserts_ = registry->counter("inflight", "inserts");
    m_coalesced_ = registry->counter("inflight", "coalesced");
    m_swept_ = registry->counter("inflight", "swept");
    m_invalidated_ = registry->counter("inflight", "invalidated");
  }

 private:
  struct Entry {
    SimTime completion;
    uint64_t ticket;
  };

  std::unordered_map<ObjectId, Entry> pending_;
  uint64_t next_ticket_ = 1;
  obs::Counter* m_inserts_ = nullptr;
  obs::Counter* m_coalesced_ = nullptr;
  obs::Counter* m_swept_ = nullptr;
  obs::Counter* m_invalidated_ = nullptr;
};

}  // namespace macaron

#endif  // MACARON_SRC_CACHE_INFLIGHT_H_
