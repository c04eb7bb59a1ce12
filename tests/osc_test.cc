// Unit tests for the Object Storage Cache: packing, lazy eviction, GC,
// capacity/garbage accounting (§6.1, Fig 6).

#include <gtest/gtest.h>

#include "src/osc/osc.h"

namespace macaron {
namespace {

PackingConfig SmallBlocks() {
  PackingConfig cfg;
  cfg.block_bytes = 100;
  cfg.max_objects_per_block = 4;
  return cfg;
}

TEST(OscTest, MissOnEmpty) {
  ObjectStorageCache osc(SmallBlocks());
  EXPECT_FALSE(osc.Lookup(1));
  EXPECT_FALSE(osc.Contains(1));
}

TEST(OscTest, AdmitThenHit) {
  ObjectStorageCache osc(SmallBlocks());
  osc.Admit(1, 10);
  EXPECT_TRUE(osc.Contains(1));
  EXPECT_TRUE(osc.Lookup(1));
  EXPECT_EQ(osc.live_bytes(), 10u);
}

TEST(OscTest, PackingFlushesAtObjectLimit) {
  ObjectStorageCache osc(SmallBlocks());
  for (ObjectId id = 1; id <= 4; ++id) {
    osc.Admit(id, 10);
  }
  const auto ops = osc.TakeOps();
  EXPECT_EQ(ops.puts, 1u);  // one block write for 4 objects
}

TEST(OscTest, PackingFlushesAtByteLimit) {
  ObjectStorageCache osc(SmallBlocks());
  osc.Admit(1, 60);
  osc.Admit(2, 60);  // 120 >= 100 -> flush
  EXPECT_EQ(osc.TakeOps().puts, 1u);
}

TEST(OscTest, PartialBlockFlushedExplicitly) {
  ObjectStorageCache osc(SmallBlocks());
  osc.Admit(1, 10);
  EXPECT_EQ(osc.TakeOps().puts, 0u);
  osc.FlushOpenBlock();
  EXPECT_EQ(osc.TakeOps().puts, 1u);
}

TEST(OscTest, PackingDisabledWritesPerObject) {
  PackingConfig cfg = SmallBlocks();
  cfg.packing_enabled = false;
  ObjectStorageCache osc(cfg);
  for (ObjectId id = 1; id <= 4; ++id) {
    osc.Admit(id, 10);
  }
  EXPECT_EQ(osc.TakeOps().puts, 4u);
}

TEST(OscTest, PackingCutsWriteOpsByPackFactor) {
  // §6.1: packing achieves up to max_objects_per_block x op reduction.
  PackingConfig packed = SmallBlocks();
  PackingConfig unpacked = SmallBlocks();
  unpacked.packing_enabled = false;
  ObjectStorageCache a(packed);
  ObjectStorageCache b(unpacked);
  for (ObjectId id = 1; id <= 400; ++id) {
    a.Admit(id, 10);
    b.Admit(id, 10);
  }
  a.FlushOpenBlock();
  EXPECT_EQ(a.TakeOps().puts * 4, b.TakeOps().puts);
}

TEST(OscTest, LookupCountsGetOps) {
  ObjectStorageCache osc(SmallBlocks());
  osc.Admit(1, 10);
  osc.Lookup(1);
  osc.Lookup(1);
  osc.Lookup(2);  // miss does not count
  EXPECT_EQ(osc.TakeOps().gets, 2u);
}

TEST(OscTest, DeleteCreatesGarbage) {
  ObjectStorageCache osc(SmallBlocks());
  osc.Admit(1, 10);
  osc.Admit(2, 10);
  osc.FlushOpenBlock();
  osc.Delete(1);
  EXPECT_FALSE(osc.Contains(1));
  EXPECT_EQ(osc.live_bytes(), 10u);
  EXPECT_EQ(osc.garbage_bytes(), 10u);
  EXPECT_EQ(osc.stored_bytes(), 20u);
}

TEST(OscTest, DeleteUnknownIsNoOp) {
  ObjectStorageCache osc(SmallBlocks());
  osc.Delete(42);
  EXPECT_EQ(osc.stored_bytes(), 0u);
}

TEST(OscTest, GcReclaimsMostlyDeadBlocks) {
  ObjectStorageCache osc(SmallBlocks());
  for (ObjectId id = 1; id <= 4; ++id) {
    osc.Admit(id, 10);  // one full block
  }
  osc.TakeOps();
  osc.Delete(1);
  osc.Delete(2);  // 50% dead -> GC eligible
  osc.RunGc();
  EXPECT_EQ(osc.garbage_bytes(), 0u);
  EXPECT_TRUE(osc.Contains(3));
  EXPECT_TRUE(osc.Contains(4));
  const auto ops = osc.TakeOps();
  EXPECT_EQ(ops.gc_block_reads, 1u);
}

TEST(OscTest, GcNotTriggeredBelowThreshold) {
  ObjectStorageCache osc(SmallBlocks());
  for (ObjectId id = 1; id <= 4; ++id) {
    osc.Admit(id, 10);
  }
  osc.Delete(1);  // only 25% dead
  osc.RunGc();
  EXPECT_EQ(osc.garbage_bytes(), 10u);
  EXPECT_EQ(osc.TakeOps().gc_block_reads, 0u);
}

TEST(OscTest, GcSurvivorsKeepRecencyOrder) {
  ObjectStorageCache osc(SmallBlocks());
  for (ObjectId id = 1; id <= 4; ++id) {
    osc.Admit(id, 10);
  }
  osc.Admit(5, 10);  // new open block; 5 is MRU
  osc.Delete(1);
  osc.Delete(2);
  osc.RunGc();  // 3 and 4 rewritten, but recency must not jump over 5
  std::vector<ObjectId> order;
  osc.ForEachMruToLru([&](ObjectId id, uint64_t) {
    order.push_back(id);
    return true;
  });
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], 5u);
}

TEST(OscTest, EvictToCapacityMarksLruVictims) {
  ObjectStorageCache osc(SmallBlocks());
  for (ObjectId id = 1; id <= 8; ++id) {
    osc.Admit(id, 10);
  }
  osc.Lookup(1);  // promote 1
  osc.EvictToCapacity(30);
  EXPECT_LE(osc.live_bytes(), 30u);
  EXPECT_TRUE(osc.Contains(1));  // recently used survives
  EXPECT_FALSE(osc.Contains(2));
}

TEST(OscTest, EvictToCapacityNoOpWhenUnder) {
  ObjectStorageCache osc(SmallBlocks());
  osc.Admit(1, 10);
  osc.EvictToCapacity(1000);
  EXPECT_TRUE(osc.Contains(1));
}

TEST(OscTest, EvictionGarbageGcCycleReclaims) {
  ObjectStorageCache osc(SmallBlocks());
  for (ObjectId id = 1; id <= 40; ++id) {
    osc.Admit(id, 10);
  }
  osc.FlushOpenBlock();
  EXPECT_EQ(osc.live_bytes(), 400u);
  osc.EvictToCapacity(100);
  EXPECT_LE(osc.live_bytes(), 100u);
  // All fully-dead blocks are collected; garbage only in mixed blocks.
  EXPECT_LE(osc.garbage_bytes(), 40u);
  EXPECT_EQ(osc.stored_bytes(), osc.live_bytes() + osc.garbage_bytes());
}

TEST(OscTest, ReAdmissionAfterEviction) {
  ObjectStorageCache osc(SmallBlocks());
  for (ObjectId id = 1; id <= 4; ++id) {
    osc.Admit(id, 10);
  }
  osc.EvictToCapacity(0);
  EXPECT_FALSE(osc.Contains(1));
  osc.Admit(1, 10);
  EXPECT_TRUE(osc.Contains(1));
  EXPECT_EQ(osc.live_bytes(), 10u);
}

TEST(OscTest, AdmitExistingLiveRefreshesWithoutRewrite) {
  ObjectStorageCache osc(SmallBlocks());
  osc.Admit(1, 10);
  osc.Admit(2, 10);
  osc.FlushOpenBlock();
  osc.TakeOps();
  osc.Admit(1, 10);  // already live: recency refresh only
  osc.FlushOpenBlock();
  EXPECT_EQ(osc.TakeOps().puts, 0u);
  EXPECT_EQ(osc.live_bytes(), 20u);
}

TEST(OscTest, StoredBytesInvariantUnderChurn) {
  ObjectStorageCache osc(SmallBlocks());
  for (int round = 0; round < 50; ++round) {
    for (ObjectId id = 1; id <= 20; ++id) {
      osc.Admit(id * 31 + static_cast<ObjectId>(round), 7);
    }
    osc.EvictToCapacity(300);
    ASSERT_EQ(osc.stored_bytes(), osc.live_bytes() + osc.garbage_bytes());
    ASSERT_LE(osc.live_bytes(), 400u);
  }
}

TEST(OscTest, PrimeOrderIteration) {
  ObjectStorageCache osc(SmallBlocks());
  osc.Admit(1, 10);
  osc.Admit(2, 10);
  osc.Lookup(1);
  std::vector<ObjectId> order;
  osc.ForEachMruToLru([&](ObjectId id, uint64_t) {
    order.push_back(id);
    return true;
  });
  EXPECT_EQ(order, (std::vector<ObjectId>{1, 2}));
}

TEST(OscTest, NumLiveObjectsAndBlocks) {
  ObjectStorageCache osc(SmallBlocks());
  for (ObjectId id = 1; id <= 10; ++id) {
    osc.Admit(id, 10);
  }
  osc.FlushOpenBlock();
  EXPECT_EQ(osc.num_live_objects(), 10u);
  EXPECT_EQ(osc.num_blocks(), 3u);  // 4 + 4 + 2
}

// --- Dead-copy re-admission (evict → re-fetch → delete) ---
//
// When an Evicted object is re-fetched, its new row points at the open
// block while the stale copy keeps its dead_bytes/dead_objects in the old
// block. These regressions pin down that the global garbage counter,
// the per-block dead counters, and GC scheduling all count each physical
// copy exactly once through the full evict → re-fetch → delete → GC cycle.

// Σ per-block dead bytes must always equal the global garbage counter.
uint64_t SumBlockDeadBytes(const ObjectStorageCache& osc) {
  uint64_t dead = 0;
  for (const ObjectStorageCache::BlockDebug& b : osc.DebugBlocks()) {
    dead += b.dead_bytes;
  }
  return dead;
}

TEST(OscReadmissionTest, EvictRefetchDeleteClosedBlockCopy) {
  ObjectStorageCache osc(SmallBlocks());
  for (ObjectId id = 1; id <= 4; ++id) {
    osc.Admit(id, 10);  // flushes one closed block of 40 bytes
  }
  osc.EvictToCapacity(30);  // evicts id 1 (LRU): 10 bytes dead, below GC threshold
  EXPECT_EQ(osc.live_bytes(), 30u);
  EXPECT_EQ(osc.garbage_bytes(), 10u);
  EXPECT_EQ(osc.gc_pending_blocks(), 0u);

  osc.Admit(1, 10);  // re-fetch: new copy in the open block
  EXPECT_TRUE(osc.Contains(1));
  EXPECT_EQ(osc.live_bytes(), 40u);
  EXPECT_EQ(osc.garbage_bytes(), 10u);  // stale copy still garbage, counted once
  EXPECT_EQ(SumBlockDeadBytes(osc), osc.garbage_bytes());

  osc.Delete(1);  // kills the *new* copy; the stale one must not double-count
  EXPECT_EQ(osc.live_bytes(), 30u);
  EXPECT_EQ(osc.garbage_bytes(), 20u);
  EXPECT_EQ(SumBlockDeadBytes(osc), osc.garbage_bytes());
  // Each block carries exactly one dead copy of object 1.
  for (const ObjectStorageCache::BlockDebug& b : osc.DebugBlocks()) {
    EXPECT_EQ(b.dead_objects, 1u);
    EXPECT_EQ(b.dead_bytes, 10u);
  }

  // Push the closed block over the GC threshold and collect: both dead
  // copies leave, survivors are rewritten, nothing is counted twice.
  osc.Delete(2);  // closed block now 20/40 dead -> scheduled
  EXPECT_EQ(osc.gc_pending_blocks(), 1u);
  osc.TakeOps();
  osc.RunGc();
  EXPECT_EQ(osc.gc_pending_blocks(), 0u);
  EXPECT_EQ(osc.live_bytes(), 20u);  // ids 3 and 4 survive
  EXPECT_EQ(SumBlockDeadBytes(osc), osc.garbage_bytes());
  EXPECT_EQ(osc.TakeOps().gc_block_reads, 1u);  // the closed block, once
  EXPECT_TRUE(osc.Contains(3));
  EXPECT_TRUE(osc.Contains(4));
  EXPECT_FALSE(osc.Contains(1));
  // Drain the remaining stale copy of 1 (the open re-admission block).
  osc.FlushOpenBlock();
  osc.Delete(3);
  osc.Delete(4);
  osc.RunGc();
  EXPECT_EQ(osc.garbage_bytes(), 0u);
  EXPECT_EQ(osc.live_bytes(), 0u);
  EXPECT_EQ(SumBlockDeadBytes(osc), 0u);
}

TEST(OscReadmissionTest, EvictRefetchDeleteWithinOpenBlock) {
  // The stale copy and the re-admitted copy share the still-open block:
  // members lists the id twice, and both physical copies must be accounted.
  ObjectStorageCache osc(SmallBlocks());
  osc.Admit(1, 10);
  osc.Admit(2, 10);
  osc.EvictToCapacity(10);  // evicts id 1 inside the open block
  EXPECT_EQ(osc.garbage_bytes(), 10u);
  EXPECT_EQ(osc.gc_pending_blocks(), 0u);  // open blocks are never scheduled

  osc.Admit(1, 10);  // re-fetch into the same open block
  EXPECT_EQ(osc.live_bytes(), 20u);
  EXPECT_EQ(osc.garbage_bytes(), 10u);
  osc.Delete(1);
  EXPECT_EQ(osc.live_bytes(), 10u);
  EXPECT_EQ(osc.garbage_bytes(), 20u);  // two dead copies, one per admission
  EXPECT_EQ(SumBlockDeadBytes(osc), osc.garbage_bytes());

  osc.Admit(3, 10);  // fourth member: block flushes, 20/40 dead -> scheduled
  EXPECT_EQ(osc.gc_pending_blocks(), 1u);
  osc.TakeOps();
  osc.RunGc();
  EXPECT_EQ(osc.gc_pending_blocks(), 0u);
  EXPECT_EQ(osc.garbage_bytes(), 0u);
  EXPECT_EQ(osc.live_bytes(), 20u);
  EXPECT_EQ(SumBlockDeadBytes(osc), 0u);
  EXPECT_EQ(osc.TakeOps().gc_block_reads, 1u);
  EXPECT_TRUE(osc.Contains(2));
  EXPECT_TRUE(osc.Contains(3));
  EXPECT_FALSE(osc.Contains(1));
  EXPECT_EQ(osc.num_live_objects(), 2u);
}

TEST(OscReadmissionTest, RefetchedCopySurvivesGcOfStaleBlock) {
  // GC of the old block must skip the id (its meta points at the new
  // block) without disturbing the live re-admitted copy. Deletes leave the
  // block on the GC list without collecting it (the TTL-shadow eviction
  // path: GC only runs at window boundaries), opening the window where a
  // re-fetch races a scheduled GC.
  ObjectStorageCache osc(SmallBlocks());
  for (ObjectId id = 1; id <= 4; ++id) {
    osc.Admit(id, 10);
  }
  osc.Delete(1);
  osc.Delete(2);  // 20/40 dead -> scheduled, not yet collected
  EXPECT_EQ(osc.gc_pending_blocks(), 1u);
  osc.Admit(1, 10);  // re-fetch before the GC runs
  osc.RunGc();
  EXPECT_TRUE(osc.Contains(1));
  EXPECT_TRUE(osc.Contains(3));
  EXPECT_TRUE(osc.Contains(4));
  EXPECT_FALSE(osc.Contains(2));
  EXPECT_EQ(osc.live_bytes(), 30u);
  EXPECT_EQ(osc.garbage_bytes(), 0u);
  EXPECT_EQ(SumBlockDeadBytes(osc), 0u);
  // The re-admitted copy must still hit.
  EXPECT_TRUE(osc.Lookup(1));
}

TEST(OscReadmissionTest, ChurnWithRefetchHoldsGarbageInvariant) {
  // Random-ish evict/re-fetch/delete churn: the block-level dead counters
  // must stay exactly in sync with the global garbage counter throughout.
  ObjectStorageCache osc(SmallBlocks());
  for (int round = 0; round < 40; ++round) {
    for (ObjectId id = 1; id <= 12; ++id) {
      osc.Admit(id, 7 + (id % 3));  // re-admits anything evicted last round
    }
    osc.EvictToCapacity(60);
    if (round % 3 == 0) {
      osc.Delete(static_cast<ObjectId>(1 + round % 12));
    }
    ASSERT_EQ(SumBlockDeadBytes(osc), osc.garbage_bytes()) << "round " << round;
    ASSERT_EQ(osc.stored_bytes(), osc.live_bytes() + osc.garbage_bytes());
  }
}

}  // namespace
}  // namespace macaron
