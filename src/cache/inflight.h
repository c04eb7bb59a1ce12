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
//
// Layout: a FlatIndex maps each id to a row of a dense {id, completion,
// ticket} vector, and reads the row's id as the key it compares; erased
// rows go on a free list and are reused, so a table that stopped growing
// allocates nothing per request. The Prehashed forms
// take the engines' ingest-time h, which must be exactly Mix64(id): the
// plain forms hash with Mix64, and Sweep recomputes it for the rows it
// erases. Sweep walks the rows in slot order; since it only erases, that
// order never reaches an output.

#ifndef MACARON_SRC_CACHE_INFLIGHT_H_
#define MACARON_SRC_CACHE_INFLIGHT_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "src/cache/flat_index.h"
#include "src/common/check.h"
#include "src/common/hash.h"
#include "src/common/sim_time.h"
#include "src/obs/metrics.h"
#include "src/trace/request.h"

namespace macaron {

class InflightTable {
 public:
  // Records a fetch for `id` completing at `completion`; returns the fill
  // ticket identifying this fetch.
  uint64_t Insert(ObjectId id, SimTime completion) {
    return InsertPrehashed(id, Mix64(id), completion);
  }
  uint64_t InsertPrehashed(ObjectId id, uint64_t h, SimTime completion) {
    MACARON_DCHECK(h == Mix64(id));
    const uint64_t ticket = next_ticket_++;
    uint32_t r = index_.FindPrehashed(id, h, RowKeys{&rows_});
    if (r == FlatIndex::kEmpty) {
      r = AllocateRow();
      rows_[r] = Row{id, completion, ticket};
      index_.EmplacePrehashed(h, r);
    } else if (completion > rows_[r].completion) {
      rows_[r].completion = completion;
      rows_[r].ticket = ticket;
    }
    if (m_inserts_ != nullptr) {
      m_inserts_->Inc();
    }
    return rows_[r].ticket;
  }

  // If a fetch for `id` is still outstanding at `now`, returns its
  // completion time; otherwise clears any stale entry and returns nullopt.
  std::optional<SimTime> Pending(ObjectId id, SimTime now) {
    return PendingPrehashed(id, Mix64(id), now);
  }
  std::optional<SimTime> PendingPrehashed(ObjectId id, uint64_t h, SimTime now) {
    MACARON_DCHECK(h == Mix64(id));
    const uint32_t r = index_.FindPrehashed(id, h, RowKeys{&rows_});
    if (r == FlatIndex::kEmpty) {
      return std::nullopt;
    }
    if (rows_[r].completion <= now) {
      EraseRow(r, h);
      return std::nullopt;
    }
    if (m_coalesced_ != nullptr) {
      m_coalesced_->Inc();
    }
    return rows_[r].completion;
  }

  void Erase(ObjectId id) { ErasePrehashed(id, Mix64(id)); }
  void ErasePrehashed(ObjectId id, uint64_t h) { Remove(id, h); }

  // Drops the entry because the object it was filling no longer exists
  // (deleted, evicted, or TTL-expired mid-flight). Returns true if an entry
  // was actually outstanding.
  bool Invalidate(ObjectId id) { return InvalidatePrehashed(id, Mix64(id)); }
  bool InvalidatePrehashed(ObjectId id, uint64_t h) {
    const bool removed = Remove(id, h);
    if (removed && m_invalidated_ != nullptr) {
      m_invalidated_->Inc();
    }
    return removed;
  }

  // Consumes the entry for `id` iff it still carries `ticket` (i.e. no
  // delete/invalidation/newer fetch superseded it since Insert).
  bool ClaimTicket(ObjectId id, uint64_t ticket) {
    return ClaimTicketPrehashed(id, Mix64(id), ticket);
  }
  bool ClaimTicketPrehashed(ObjectId id, uint64_t h, uint64_t ticket) {
    MACARON_DCHECK(h == Mix64(id));
    const uint32_t r = index_.FindPrehashed(id, h, RowKeys{&rows_});
    if (r == FlatIndex::kEmpty || rows_[r].ticket != ticket) {
      return false;
    }
    EraseRow(r, h);
    return true;
  }

  size_t size() const { return index_.size(); }

  // Drops entries completed before `now` (periodic housekeeping so the table
  // does not grow with trace length).
  void Sweep(SimTime now) {
    size_t removed = 0;
    for (uint32_t r = 0; r < rows_.size(); ++r) {
      if (rows_[r].ticket != kFreeRow && rows_[r].completion <= now) {
        EraseRow(r, Mix64(rows_[r].id));
        ++removed;
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
  struct Row {
    ObjectId id;
    SimTime completion;
    uint64_t ticket;  // kFreeRow while the row is on the free list
  };
  static constexpr uint64_t kFreeRow = 0;  // tickets start at 1

  // The index's key source: its values are rows, and a row holds its id.
  struct RowKeys {
    const std::vector<Row>* rows;
    ObjectId operator()(uint32_t r) const { return (*rows)[r].id; }
  };

  uint32_t AllocateRow() {
    if (!free_rows_.empty()) {
      const uint32_t r = free_rows_.back();
      free_rows_.pop_back();
      return r;
    }
    MACARON_CHECK(rows_.size() < FlatIndex::kEmpty);
    rows_.emplace_back();
    return static_cast<uint32_t>(rows_.size() - 1);
  }

  // Removes `r`, which the index maps `rows_[r].id` (hash `h`) to.
  void EraseRow(uint32_t r, uint64_t h) {
    index_.ErasePrehashed(rows_[r].id, h, RowKeys{&rows_});
    rows_[r].ticket = kFreeRow;
    free_rows_.push_back(r);
  }

  bool Remove(ObjectId id, uint64_t h) {
    MACARON_DCHECK(h == Mix64(id));
    const uint32_t r = index_.FindPrehashed(id, h, RowKeys{&rows_});
    if (r == FlatIndex::kEmpty) {
      return false;
    }
    EraseRow(r, h);
    return true;
  }

  FlatIndex index_;  // id -> row
  std::vector<Row> rows_;
  std::vector<uint32_t> free_rows_;
  uint64_t next_ticket_ = 1;
  obs::Counter* m_inserts_ = nullptr;
  obs::Counter* m_coalesced_ = nullptr;
  obs::Counter* m_swept_ = nullptr;
  obs::Counter* m_invalidated_ = nullptr;
};

}  // namespace macaron

#endif  // MACARON_SRC_CACHE_INFLIGHT_H_
