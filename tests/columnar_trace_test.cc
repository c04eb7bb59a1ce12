// Unit tests for the MCTC chunked columnar trace format (columnar_io.h):
// round trips (materialized and chunk-by-chunk against the in-memory
// TraceSource adapter), footer-derived SourceInfo fidelity, a TraceSource
// built on precomputed stats matching one that computes its own, the content
// identity hash, the writer's pinned bytes, and the rejection paths —
// foreign files, truncation, a corrupt footer, a checksummed footer whose
// chunk directory does not tile the file or steps back in time, corrupt or
// forged chunk payloads (which must throw at FillNext, never replay
// silently, and leave no rows), and a seeded mutation pass over all of it.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <climits>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/cache/replay_batch.h"
#include "src/common/hash.h"
#include "src/trace/columnar_io.h"
#include "src/trace/request_source.h"
#include "src/trace/trace.h"

namespace macaron {
namespace {

// Deterministic mixed-op trace with irregular time gaps (including zero
// deltas) so the delta-varint time column sees repeated and large steps.
Trace MakeTrace(size_t n) {
  Trace t;
  t.name = "columnar-test";
  t.requests.reserve(n);
  uint64_t x = 0x9e3779b97f4a7c15ull;
  SimTime time = 0;
  for (size_t i = 0; i < n; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    time += static_cast<SimTime>(x % 97);  // 0 mod 97 => duplicate timestamps
    const Op op = x % 11 == 0 ? Op::kPut : (x % 29 == 0 ? Op::kDelete : Op::kGet);
    t.requests.push_back(
        Request{time, x % 5000, 1 + x % (1ull << 22), op});
  }
  return t;
}

std::string TempPath(const char* stem) { return testing::TempDir() + "/" + stem; }

std::string ReadFileBytes(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr) << path;
  std::string bytes;
  char buf[4096];
  size_t got;
  while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    bytes.append(buf, got);
  }
  std::fclose(f);
  return bytes;
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr) << path;
  ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  std::fclose(f);
}

void AppendU64(std::string& out, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

// Drains both sources in step; every chunk must match column for column,
// ingest hashes included. Counts the chunks into *chunks.
void ExpectSameChunks(RequestSource& got, RequestSource& want, size_t* chunks) {
  ReplayBatch a;
  ReplayBatch b;
  *chunks = 0;
  for (;;) {
    const bool got_more = got.FillNext(&a);
    const bool want_more = want.FillNext(&b);
    ASSERT_EQ(got_more, want_more) << "sources disagree on stream length";
    if (!got_more) {
      return;
    }
    ASSERT_FALSE(a.empty());
    EXPECT_EQ(a.times, b.times) << "chunk " << *chunks;
    EXPECT_EQ(a.ids, b.ids) << "chunk " << *chunks;
    EXPECT_EQ(a.sizes, b.sizes) << "chunk " << *chunks;
    EXPECT_EQ(a.ops, b.ops) << "chunk " << *chunks;
    EXPECT_EQ(a.hashes, b.hashes) << "chunk " << *chunks;
    for (size_t i = 0; i < a.size(); ++i) {
      ASSERT_EQ(a.hashes[i], Mix64(a.ids[i])) << "hash-once contract";
    }
    ++*chunks;
  }
}

void ExpectSameInfo(const SourceInfo& got, const SourceInfo& expected) {
  EXPECT_EQ(got.name, expected.name);
  EXPECT_EQ(got.num_requests, expected.num_requests);
  EXPECT_EQ(got.start_time, expected.start_time);
  EXPECT_EQ(got.end_time, expected.end_time);
  EXPECT_EQ(got.stats.num_requests, expected.stats.num_requests);
  EXPECT_EQ(got.stats.num_gets, expected.stats.num_gets);
  EXPECT_EQ(got.stats.num_puts, expected.stats.num_puts);
  EXPECT_EQ(got.stats.num_deletes, expected.stats.num_deletes);
  EXPECT_EQ(got.stats.get_bytes, expected.stats.get_bytes);
  EXPECT_EQ(got.stats.put_bytes, expected.stats.put_bytes);
  EXPECT_EQ(got.stats.unique_objects, expected.stats.unique_objects);
  EXPECT_EQ(got.stats.unique_bytes, expected.stats.unique_bytes);
  EXPECT_EQ(got.stats.unique_get_bytes, expected.stats.unique_get_bytes);
  EXPECT_EQ(got.stats.median_object_bytes, expected.stats.median_object_bytes);
  // The doubles must be bit-identical (Setup derives configuration from
  // them; any drift would change engine outputs across sources).
  EXPECT_EQ(got.stats.compulsory_miss_ratio, expected.stats.compulsory_miss_ratio);
  EXPECT_EQ(got.stats.zipf_alpha, expected.stats.zipf_alpha);
  EXPECT_EQ(got.stats.mean_request_rate, expected.stats.mean_request_rate);
}

struct CraftedChunk {
  uint64_t offset;
  uint64_t bytes;
  uint64_t count;
  SimTime min_time = 0;
  SimTime max_time = 0;
  uint64_t fnv = 0;
};

// A structurally valid MCTC file around `data`, the chunk bytes: correct
// header, a footer declaring `chunks` with a matching record total (and
// stats that count every record as a GET), and a trailer whose checksum
// covers that footer — so Open can only object to the directory itself,
// and FillNext only to the chunks.
std::string CraftMctc(const std::string& data, const std::vector<CraftedChunk>& chunks) {
  std::string file = "MCTC";
  file.append("\x02\x00\x00\x00", 4);
  file += data;
  std::string footer;
  AppendU64(footer, chunks.size());
  uint64_t records = 0;
  for (const CraftedChunk& c : chunks) {
    for (const uint64_t v : {c.offset, c.bytes, c.count, static_cast<uint64_t>(c.min_time),
                             static_cast<uint64_t>(c.max_time), c.fnv}) {
      AppendU64(footer, v);
    }
    records += c.count;
  }
  AppendU64(footer, records);  // num_requests
  AppendU64(footer, chunks.empty() ? 0 : static_cast<uint64_t>(chunks.front().min_time));
  AppendU64(footer, chunks.empty() ? 0 : static_cast<uint64_t>(chunks.back().max_time));
  AppendU64(footer, records);  // TraceStats: num_requests, num_gets
  AppendU64(footer, records);
  for (int i = 0; i < 11; ++i) {
    AppendU64(footer, 0);  // the rest of TraceStats
  }
  AppendU64(footer, 0);  // empty name
  file += footer;
  AppendU64(file, footer.size());
  AppendU64(file, Fnv1a(footer));
  file.append("MCTCEND2", 8);
  return file;
}

// A one-chunk file holding `payload`, checksummed, with the given times.
std::string CraftOneChunk(const std::string& payload, uint64_t count, SimTime min_time,
                          SimTime max_time) {
  return CraftMctc(payload, {{8, payload.size(), count, min_time, max_time, Fnv1a(payload)}});
}

void AppendVarint(std::string& out, uint64_t v) {
  for (; v >= 0x80; v >>= 7) {
    out.push_back(static_cast<char>((v & 0x7f) | 0x80));
  }
  out.push_back(static_cast<char>(v));
}

// A chunk payload as the writer encodes it: zigzag first time (all times
// here are non-negative, so 2t), then the given deltas; one varint per id
// and size; one op byte per record.
std::string ChunkPayload(SimTime first, const std::vector<uint64_t>& deltas,
                         const std::vector<uint64_t>& ids, const std::vector<uint64_t>& sizes,
                         const std::string& ops) {
  std::string payload;
  AppendVarint(payload, static_cast<uint64_t>(first) * 2);
  for (const uint64_t d : deltas) {
    AppendVarint(payload, d);
  }
  for (const uint64_t id : ids) {
    AppendVarint(payload, id);
  }
  for (const uint64_t size : sizes) {
    AppendVarint(payload, size);
  }
  return payload + ops;
}

// Reads `bytes` as an MCTC file; on failure returns the error and checks
// that no rows were delivered.
std::string ReadError(const std::string& path, const std::string& bytes, Trace* back) {
  WriteFileBytes(path, bytes);
  std::string error;
  if (ReadTraceColumnar(path, back, &error)) {
    return "";
  }
  EXPECT_FALSE(error.empty());
  EXPECT_TRUE(back->empty());
  return error;
}

TEST(ColumnarIoTest, RoundTripMaterializes) {
  const size_t n = 20000;
  const Trace t = MakeTrace(n);
  const std::string path = TempPath("roundtrip.mctc");
  std::string error;
  ASSERT_TRUE(WriteTraceColumnar(t, path, &error, /*chunk_records=*/4096)) << error;
  Trace back;
  ASSERT_TRUE(ReadTraceColumnar(path, &back, &error)) << error;
  EXPECT_EQ(back.name, t.name);
  ASSERT_EQ(back.requests.size(), n);
  for (size_t i = 0; i < n; ++i) {
    ASSERT_EQ(back.requests[i], t.requests[i]) << i;
  }
  std::remove(path.c_str());
}

TEST(ColumnarIoTest, ChunksMatchTraceSourceByteForByte) {
  // The file reader must deliver the exact ReplayBatch columns (hashes
  // included) the in-memory adapter produces at the same chunk size: the
  // engines' bit-identity across sources rests on this.
  const Trace t = MakeTrace(10000);
  const std::string path = TempPath("columns.mctc");
  ASSERT_TRUE(WriteTraceColumnar(t, path, nullptr, /*chunk_records=*/1024));
  auto file_source = ColumnarTraceSource::Open(path);
  ASSERT_NE(file_source, nullptr);
  TraceSource mem_source(t, /*chunk_records=*/1024);
  size_t chunks = 0;
  ExpectSameChunks(*file_source, mem_source, &chunks);
  EXPECT_EQ(chunks, (t.size() + 1023) / 1024);
  std::remove(path.c_str());
}

TEST(ColumnarIoTest, InfoMatchesMaterializedStats) {
  const Trace t = MakeTrace(5000);
  const std::string path = TempPath("info.mctc");
  ASSERT_TRUE(WriteTraceColumnar(t, path));
  auto source = ColumnarTraceSource::Open(path);
  ASSERT_NE(source, nullptr);
  ExpectSameInfo(source->Info(), MakeSourceInfo(t));
  std::remove(path.c_str());
}

// The sweep builds every engine job's TraceSource on its trace's one shared
// stats pass; such a source must be indistinguishable from one that runs
// the pass itself.
TEST(TraceSourceTest, GivenStatsMatchOwnPass) {
  const Trace t = MakeTrace(10000);
  TraceSource own(t, /*chunk_records=*/1024);
  TraceSource given(t, ComputeStats(t), /*chunk_records=*/1024);
  ExpectSameInfo(given.Info(), own.Info());
  size_t chunks = 0;
  ExpectSameChunks(given, own, &chunks);
  EXPECT_EQ(chunks, (t.size() + 1023) / 1024);
}

TEST(ColumnarIoTest, ResetRewindsToFirstChunk) {
  const Trace t = MakeTrace(3000);
  const std::string path = TempPath("reset.mctc");
  ASSERT_TRUE(WriteTraceColumnar(t, path, nullptr, /*chunk_records=*/512));
  auto source = ColumnarTraceSource::Open(path);
  ASSERT_NE(source, nullptr);
  ReplayBatch chunk;
  std::vector<ObjectId> first_pass;
  while (source->FillNext(&chunk)) {
    first_pass.insert(first_pass.end(), chunk.ids.begin(), chunk.ids.end());
  }
  EXPECT_EQ(first_pass.size(), t.size());
  source->Reset();
  std::vector<ObjectId> second_pass;
  while (source->FillNext(&chunk)) {
    second_pass.insert(second_pass.end(), chunk.ids.begin(), chunk.ids.end());
  }
  EXPECT_EQ(second_pass, first_pass);
  std::remove(path.c_str());
}

TEST(ColumnarIoTest, EmptyTraceRoundTrips) {
  Trace t;
  t.name = "empty";
  const std::string path = TempPath("empty.mctc");
  std::string error;
  ASSERT_TRUE(WriteTraceColumnar(t, path, &error)) << error;
  auto source = ColumnarTraceSource::Open(path, &error);
  ASSERT_NE(source, nullptr) << error;
  EXPECT_TRUE(source->Info().empty());
  ReplayBatch chunk;
  EXPECT_FALSE(source->FillNext(&chunk));
  Trace back;
  ASSERT_TRUE(ReadTraceColumnar(path, &back, &error)) << error;
  EXPECT_TRUE(back.empty());
  std::remove(path.c_str());
}

TEST(ColumnarIoTest, WriterRejectsOutOfOrderAdd) {
  const std::string path = TempPath("unordered.mctc");
  ColumnarTraceWriter w(path, "unordered");
  w.Add(Request{100, 1, 10, Op::kGet});
  w.Add(Request{50, 2, 10, Op::kGet});  // time went backwards
  EXPECT_FALSE(w.ok());
  EXPECT_FALSE(w.Finish());
  EXPECT_FALSE(w.error().empty());
  std::remove(path.c_str());
}

TEST(ColumnarIoTest, IdentityIsStableAndContentSensitive) {
  Trace t = MakeTrace(2000);
  const std::string path_a = TempPath("ident_a.mctc");
  const std::string path_b = TempPath("ident_b.mctc");
  ASSERT_TRUE(WriteTraceColumnar(t, path_a));
  ASSERT_TRUE(WriteTraceColumnar(t, path_b));
  uint64_t a[2] = {0, 0};
  uint64_t b[2] = {0, 0};
  ASSERT_TRUE(ColumnarTraceIdentity(path_a, a));
  ASSERT_TRUE(ColumnarTraceIdentity(path_b, b));
  EXPECT_EQ(a[0], b[0]);
  EXPECT_EQ(a[1], b[1]);

  t.requests[1000].size += 1;  // one byte of one record
  const std::string path_c = TempPath("ident_c.mctc");
  ASSERT_TRUE(WriteTraceColumnar(t, path_c));
  uint64_t c[2] = {0, 0};
  ASSERT_TRUE(ColumnarTraceIdentity(path_c, c));
  EXPECT_TRUE(a[0] != c[0] || a[1] != c[1]) << "identity ignored a content change";
  std::remove(path_a.c_str());
  std::remove(path_b.c_str());
  std::remove(path_c.c_str());
}

// A seeded trace whose PUTs change object sizes and whose DELETEs name both
// live ids and ids no GET or PUT ever touches: every branch of the stats
// pass that feeds the footer, plus the chunk encoders, in five chunks.
Trace MakePinnedTrace() {
  constexpr uint64_t kObjects = 700;
  Trace t;
  t.name = "mctc-pin";
  std::vector<uint64_t> size(kObjects);
  for (uint64_t id = 0; id < kObjects; ++id) {
    size[id] = 1000 + (id * 37) % 4096;
  }
  uint64_t x = 0x2545f4914f6cdd1dull;
  SimTime time = 1000;
  for (uint64_t i = 0; i < 5000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    time += static_cast<SimTime>(x % 251);
    const uint64_t id = x % kObjects;
    switch ((x >> 20) % 16) {
      case 0:
      case 1:  // a PUT, which resizes the object two times in three
        size[id] += (x >> 32) % 3 * 512;
        t.requests.push_back({time, id, size[id], Op::kPut});
        break;
      case 2:
        t.requests.push_back({time, id, size[id], Op::kDelete});
        break;
      case 3:
        t.requests.push_back({time, (1ull << 40) + i, 64 + (x >> 40) % 8, Op::kDelete});
        break;
      default:
        t.requests.push_back({time, id, size[id], Op::kGet});
    }
  }
  return t;
}

// The MCTC bytes, footer stats included, are part of every cached perfbench
// input and every converted trace, so they must not move with the writer
// or the stats pass. The constant is the whole file's FNV-1a.
TEST(ColumnarIoTest, WriterBytesArePinned) {
  const Trace t = MakePinnedTrace();
  const std::string path = TempPath("pinned.mctc");
  std::string error;
  ASSERT_TRUE(WriteTraceColumnar(t, path, &error, /*chunk_records=*/1024)) << error;
  const std::string bytes = ReadFileBytes(path);
  auto source = ColumnarTraceSource::Open(path, &error);
  ASSERT_NE(source, nullptr) << error;
  const TraceStats& s = source->Info().stats;
  EXPECT_GT(s.num_puts, 0u);
  EXPECT_GT(s.num_deletes, 0u);
  EXPECT_EQ(s.unique_objects, 698u);  // two ids are only ever deleted
  EXPECT_EQ(bytes.size(), 33125u);
  EXPECT_EQ(Fnv1a(bytes), 0xb29aa20b6df48135ull);
  std::remove(path.c_str());
}

TEST(ColumnarIoTest, OpenRejectsForeignFile) {
  const std::string path = TempPath("foreign.mctc");
  WriteFileBytes(path, "this is not a columnar trace, not even close");
  std::string error;
  EXPECT_EQ(ColumnarTraceSource::Open(path, &error), nullptr);
  EXPECT_FALSE(error.empty());
  uint64_t identity[2];
  EXPECT_FALSE(ColumnarTraceIdentity(path, identity, &error));
  std::remove(path.c_str());
}

TEST(ColumnarIoTest, OpenRejectsMissingFile) {
  std::string error;
  EXPECT_EQ(ColumnarTraceSource::Open(TempPath("never_written.mctc"), &error), nullptr);
  EXPECT_FALSE(error.empty());
}

TEST(ColumnarIoTest, OpenRejectsTruncatedFile) {
  const Trace t = MakeTrace(4000);
  const std::string path = TempPath("truncated.mctc");
  ASSERT_TRUE(WriteTraceColumnar(t, path, nullptr, /*chunk_records=*/512));
  const std::string whole = ReadFileBytes(path);
  // A torn trailer and a half-written file must both be rejected at Open.
  for (const size_t keep : {whole.size() - 1, whole.size() / 2, size_t{10}}) {
    WriteFileBytes(path, whole.substr(0, keep));
    std::string error;
    EXPECT_EQ(ColumnarTraceSource::Open(path, &error), nullptr) << "kept " << keep;
    EXPECT_FALSE(error.empty());
    Trace back;
    EXPECT_FALSE(ReadTraceColumnar(path, &back, &error)) << "kept " << keep;
  }
  std::remove(path.c_str());
}

TEST(ColumnarIoTest, OpenRejectsCorruptFooter) {
  const Trace t = MakeTrace(4000);
  const std::string path = TempPath("badfooter.mctc");
  ASSERT_TRUE(WriteTraceColumnar(t, path, nullptr, /*chunk_records=*/512));
  std::string bytes = ReadFileBytes(path);
  // The trailer is the last 24 bytes; flip a byte just inside the footer.
  ASSERT_GT(bytes.size(), size_t{64});
  bytes[bytes.size() - 24 - 5] ^= 0x40;
  WriteFileBytes(path, bytes);
  std::string error;
  EXPECT_EQ(ColumnarTraceSource::Open(path, &error), nullptr);
  EXPECT_FALSE(error.empty());
  uint64_t identity[2];
  EXPECT_FALSE(ColumnarTraceIdentity(path, identity, &error));
  std::remove(path.c_str());
}

// A footer with a valid checksum may still declare chunks the file does not
// hold. Open must reject every directory that does not tile the bytes
// between header and footer exactly, before anything is sized from the
// declared extents — a 2^32-record chunk in a 244-byte file used to reach
// requests.reserve(2^32) and throw std::bad_alloc out of ReadTraceColumnar.
TEST(ColumnarIoTest, OpenRejectsChunkExtentBeyondFile) {
  constexpr uint64_t kHeader = 8;
  constexpr uint64_t kData = 20;
  const std::string path = TempPath("extent.mctc");

  // Control: a directory that tiles the data opens (decoding would fail
  // the chunk checksum, but Open only validates structure).
  const std::string data(kData, '\x5a');
  WriteFileBytes(path, CraftMctc(data, {{kHeader, kData, 1}}));
  std::string error;
  EXPECT_NE(ColumnarTraceSource::Open(path, &error), nullptr) << error;

  const std::vector<std::vector<CraftedChunk>> bad = {
      {{kHeader, 1ull << 32, 1ull << 32}},      // the 2^32-record chunk
      {{kHeader + 4, kData, 1}},                // starts past the header
      {{kHeader, kData + 1, 1}},                // ends inside the footer
      {{kHeader, kData - 4, 1}},                // stops short of the footer
      {{kHeader, 12, 1}, {kHeader + 4, 8, 1}},  // overlaps its predecessor
      {{~0ull - 3, 8, 1}},                      // offset + bytes wraps past 2^64
  };
  for (size_t i = 0; i < bad.size(); ++i) {
    const std::string bytes = CraftMctc(data, bad[i]);
    if (i == 0) {
      EXPECT_EQ(bytes.size(), size_t{244});
    }
    WriteFileBytes(path, bytes);
    error.clear();
    EXPECT_EQ(ColumnarTraceSource::Open(path, &error), nullptr) << "case " << i;
    EXPECT_NE(error.find("chunk extent beyond file"), std::string::npos)
        << "case " << i << ": " << error;
    Trace back;
    error.clear();
    EXPECT_FALSE(ReadTraceColumnar(path, &back, &error)) << "case " << i;
    EXPECT_NE(error.find("chunk extent beyond file"), std::string::npos)
        << "case " << i << ": " << error;
    EXPECT_TRUE(back.empty());
  }
  std::remove(path.c_str());
}

TEST(ColumnarIoTest, CorruptChunkThrowsAtFillNext) {
  const Trace t = MakeTrace(4000);
  const std::string path = TempPath("badchunk.mctc");
  ASSERT_TRUE(WriteTraceColumnar(t, path, nullptr, /*chunk_records=*/512));
  std::string bytes = ReadFileBytes(path);
  // Flip a byte in the first chunk payload (chunks start right after the
  // 8-byte header). The footer still validates, so Open succeeds — the
  // damage must surface as a throw when that chunk decodes.
  bytes[9] ^= 0x01;
  WriteFileBytes(path, bytes);
  std::string error;
  auto source = ColumnarTraceSource::Open(path, &error);
  ASSERT_NE(source, nullptr) << error;
  ReplayBatch chunk;
  EXPECT_THROW(source->FillNext(&chunk), std::runtime_error);
  // The materializing reader must report the same damage as a clean error.
  Trace back;
  EXPECT_FALSE(ReadTraceColumnar(path, &back, &error));
  EXPECT_FALSE(error.empty());
  std::remove(path.c_str());
}

// The decoder sees chunk bytes before their checksum is settled, and a
// checksummed chunk may still be hostile: it must reject, never wrap.
// Before, a delta of 2^63 after time 100 read back as -9223372036854775708
// and ReadTraceColumnar returned an unsorted trace.
TEST(ColumnarIoTest, DecodeRejectsTimeOverflow) {
  const std::string path = TempPath("overflow.mctc");
  const std::vector<uint64_t> ids = {1, 2, 3};
  const std::vector<uint64_t> sizes = {10, 10, 10};
  const std::string ops(3, '\0');
  const uint64_t big = 1ull << 63;
  // {100, 100 + 2^63, ...}: the last row wraps to a value below the first,
  // or (second case) back to 200, inside the directory's [100, 200].
  const std::vector<std::pair<std::vector<uint64_t>, SimTime>> cases = {
      {{big, 100}, 300},
      {{big, big + 100}, 200},
  };
  for (const auto& [deltas, max_time] : cases) {
    const std::string payload = ChunkPayload(100, deltas, ids, sizes, ops);
    Trace back;
    const std::string error = ReadError(path, CraftOneChunk(payload, 3, 100, max_time), &back);
    EXPECT_NE(error.find("chunk 0 decode failed"), std::string::npos) << error;
  }
  // Control: the largest delta that fits decodes.
  const uint64_t fits = static_cast<uint64_t>(INT64_MAX) - 100;
  const std::string payload = ChunkPayload(100, {fits, 0}, ids, sizes, ops);
  Trace back;
  EXPECT_EQ(ReadError(path, CraftOneChunk(payload, 3, 100, INT64_MAX), &back), "");
  ASSERT_EQ(back.size(), 3u);
  EXPECT_EQ(back.requests[2].time, INT64_MAX);
  std::remove(path.c_str());
}

// A varint's tenth byte holds bit 63 only; anything above 1 there used to
// be dropped, so [0x81, 0x80 x8, 0x02] read as 1, like [0x01].
TEST(ColumnarIoTest, DecodeRejectsOverlongVarint) {
  const std::string path = TempPath("overlong.mctc");
  const std::string prefix = ChunkPayload(5, {}, {}, {}, "");
  const auto file_with_id = [&](const std::string& id_bytes) {
    std::string payload = prefix + id_bytes;
    AppendVarint(payload, 10);  // size
    payload.push_back('\0');    // op
    return CraftOneChunk(payload, 1, 5, 5);
  };
  const std::string nine_continuations = "\x81\x80\x80\x80\x80\x80\x80\x80\x80";
  for (const char tenth : {'\x02', '\x7f', '\x81'}) {
    Trace back;
    const std::string error = ReadError(path, file_with_id(nine_continuations + tenth), &back);
    EXPECT_NE(error.find("chunk 0 decode failed"), std::string::npos)
        << static_cast<int>(tenth) << ": " << error;
  }
  // Control: a tenth byte of 1 is bit 63, the writer's encoding of 2^63 + 1.
  Trace back;
  EXPECT_EQ(ReadError(path, file_with_id(nine_continuations + '\x01'), &back), "");
  ASSERT_EQ(back.size(), 1u);
  EXPECT_EQ(back.requests[0].id, (1ull << 63) + 1);
  std::remove(path.c_str());
}

// A Request holds a 56-bit size. A chunk whose size varint is 2^56, its
// checksum and the footer resealed, must fail by name instead of reaching
// the engines as a truncated size; 2^56 - 1 is the largest size that
// decodes.
TEST(ColumnarIoTest, DecodeRejectsSizePastRequestBound) {
  const std::string path = TempPath("bigsize.mctc");
  const auto file_with_size = [](uint64_t size) {
    return CraftOneChunk(ChunkPayload(5, {}, {7}, {size}, std::string(1, '\0')), 1, 5, 5);
  };
  Trace back;
  const std::string error = ReadError(path, file_with_size(1ull << 56), &back);
  EXPECT_NE(error.find("chunk 0 decode failed"), std::string::npos) << error;
  // Control: the bound itself decodes, whole.
  EXPECT_EQ(ReadError(path, file_with_size(kMaxRequestBytes), &back), "");
  ASSERT_EQ(back.size(), 1u);
  EXPECT_EQ(back.requests[0].size, kMaxRequestBytes);
  std::remove(path.c_str());
}

// Each chunk's first and last times must be its directory's min_time and
// max_time, and the directory's times must not step backwards; together
// they keep rows in time order across chunk boundaries.
TEST(ColumnarIoTest, ChunkTimesMustMatchDirectory) {
  const std::string path = TempPath("times.mctc");
  const std::string payload = ChunkPayload(100, {50, 50}, {1, 2, 3}, {10, 10, 10},
                                           std::string(3, '\0'));
  for (const auto& [min_time, max_time] :
       std::vector<std::pair<SimTime, SimTime>>{{99, 200}, {100, 199}, {100, 250}}) {
    Trace back;
    const std::string error =
        ReadError(path, CraftOneChunk(payload, 3, min_time, max_time), &back);
    EXPECT_NE(error.find("chunk 0 decode failed"), std::string::npos) << error;
  }
  Trace back;
  EXPECT_EQ(ReadError(path, CraftOneChunk(payload, 3, 100, 200), &back), "");
  EXPECT_TRUE(back.IsSorted());

  // Two chunks of the same bytes: the second starts before the first ends.
  const uint64_t fnv = Fnv1a(payload);
  const uint64_t n = payload.size();
  const std::vector<std::vector<CraftedChunk>> bad = {
      {{8, n, 3, 100, 200, fnv}, {8 + n, n, 3, 100, 200, fnv}},
      {{8, n, 3, 200, 100, fnv}, {8 + n, n, 3, 300, 400, fnv}},  // min past max
  };
  for (const auto& chunks : bad) {
    WriteFileBytes(path, CraftMctc(payload + payload, chunks));
    std::string error;
    EXPECT_EQ(ColumnarTraceSource::Open(path, &error), nullptr);
    EXPECT_NE(error.find("chunk times step backwards"), std::string::npos) << error;
  }
  std::remove(path.c_str());
}

// A chunk that fails to decode is reported as "decode failed" when its
// checksum holds and as "checksum mismatch" when it does not, as when the
// checksum ran first. Either way the batch is left empty, so a caller that
// catches the error holds no half-decoded rows.
TEST(ColumnarIoTest, FailedChunkDeliversNoRows) {
  const std::string path = TempPath("norows.mctc");
  // Valid times, ids and sizes, then an op byte out of range.
  const std::string payload =
      ChunkPayload(100, {1, 1}, {1, 2, 3}, {10, 10, 10}, std::string("\0\0\x07", 3));
  std::string bytes = CraftOneChunk(payload, 3, 100, 102);
  for (const bool resealed : {true, false}) {
    if (!resealed) {
      bytes[8] ^= 0x04;  // a byte of the first time: the FNV-1a breaks too
    }
    WriteFileBytes(path, bytes);
    std::string error;
    auto source = ColumnarTraceSource::Open(path, &error);
    ASSERT_NE(source, nullptr) << error;
    ReplayBatch chunk;
    chunk.times.push_back(1);
    try {
      source->FillNext(&chunk);
      ADD_FAILURE() << "no throw";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(resealed ? "decode failed" : "checksum mismatch"),
                std::string::npos)
          << e.what();
    }
    EXPECT_TRUE(chunk.empty());
  }
  std::remove(path.c_str());
}

// --- Deterministic mutation test ---

uint64_t GetU64(const std::string& bytes, size_t at) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(static_cast<unsigned char>(bytes[at + i])) << (8 * i);
  }
  return v;
}

void PutU64(std::string& bytes, size_t at, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    bytes[at + i] = static_cast<char>((v >> (8 * i)) & 0xff);
  }
}

// Where things are in a well-formed MCTC file: the footer, and per chunk
// its directory entry and the byte ranges of its four columns.
struct MctcLayout {
  size_t footer_begin = 0;
  struct Chunk {
    size_t entry;  // file offset of the directory entry
    size_t begin;
    size_t end;
    size_t column_begin[5];  // times, ids, sizes, ops, end
  };
  std::vector<Chunk> chunks;
};

MctcLayout LayoutOf(const std::string& file) {
  MctcLayout layout;
  layout.footer_begin = file.size() - 24 - GetU64(file, file.size() - 24);
  const uint64_t n = GetU64(file, layout.footer_begin);
  for (uint64_t i = 0; i < n; ++i) {
    MctcLayout::Chunk c;
    c.entry = layout.footer_begin + 8 + 48 * i;
    c.begin = GetU64(file, c.entry);
    c.end = c.begin + GetU64(file, c.entry + 8);
    const uint64_t count = GetU64(file, c.entry + 16);
    size_t p = c.begin;
    for (int column = 0; column < 3; ++column) {
      c.column_begin[column] = p;
      for (uint64_t r = 0; r < count; ++r) {
        while (static_cast<unsigned char>(file[p]) & 0x80) {
          ++p;
        }
        ++p;
      }
    }
    c.column_begin[3] = p;
    c.column_begin[4] = c.end;
    layout.chunks.push_back(c);
  }
  return layout;
}

// Recomputes every chunk checksum in the directory and the footer checksum
// in the trailer, as a forger would, so only the decoder's own checks and
// Open's structural checks stand between the bytes and the replay.
void Reseal(std::string& file, const MctcLayout& layout) {
  for (const MctcLayout::Chunk& c : layout.chunks) {
    PutU64(file, c.entry + 40,
           Fnv1a(std::string_view(file).substr(c.begin, c.end - c.begin)));
  }
  const size_t trailer = file.size() - 24;
  PutU64(file, trailer + 8,
         Fnv1a(std::string_view(file).substr(layout.footer_begin,
                                             trailer - layout.footer_begin)));
}

// The footer's start and end times must be its directory's first min_time
// and last max_time. A forged end time of INT64_MAX, with the footer
// checksum recomputed, used to replay: billing ran to the declared end
// ($193,690,812 instead of $0.000776 on a 2,000-request trace) and the
// engines' final boundary at end_time + 1 overflowed.
TEST(ColumnarIoTest, OpenRejectsForgedTimeSpan) {
  const Trace t = MakeTrace(600);
  const std::string path = TempPath("span.mctc");
  ASSERT_TRUE(WriteTraceColumnar(t, path, nullptr, /*chunk_records=*/128));
  const std::string original = ReadFileBytes(path);
  const MctcLayout layout = LayoutOf(original);
  const size_t span = layout.footer_begin + 8 + 48 * layout.chunks.size() + 8;
  for (const size_t field : {span, span + 8}) {
    for (const SimTime forged : {SimTime{0}, t.requests.back().time + 1, SimTime{INT64_MAX}}) {
      std::string bytes = original;
      PutU64(bytes, field, static_cast<uint64_t>(forged));
      Reseal(bytes, layout);
      WriteFileBytes(path, bytes);
      std::string error;
      EXPECT_EQ(ColumnarTraceSource::Open(path, &error), nullptr) << forged;
      EXPECT_NE(error.find("time span does not match chunk directory"), std::string::npos)
          << error;
    }
  }
  std::remove(path.c_str());
}

// Set-up sizes buffers from the footer's stats (latency samples from
// num_gets, each shard's OSC slab from unique_objects), so Open bounds them
// by the record count. A 2,000-request file declaring 2^50 GETs, footer
// checksum recomputed, used to open and make ReplayEngine::Run throw
// std::bad_alloc from Setup. Each forged field fails by name, including
// counts chosen so the op-count sum wraps to num_requests.
TEST(ColumnarIoTest, OpenRejectsForgedStats) {
  const Trace t = MakeTrace(2000);
  const std::string path = TempPath("stats.mctc");
  ASSERT_TRUE(WriteTraceColumnar(t, path, nullptr, /*chunk_records=*/128));
  const std::string original = ReadFileBytes(path);
  const MctcLayout layout = LayoutOf(original);
  std::string error;
  const auto source = ColumnarTraceSource::Open(path, &error);
  ASSERT_NE(source, nullptr) << error;
  const TraceStats s = source->Info().stats;
  ASSERT_GT(s.num_puts, 0u);
  ASSERT_GT(s.num_deletes, 0u);
  const size_t stats = layout.footer_begin + 8 + 48 * layout.chunks.size() + 24;
  const size_t requests = stats, gets = stats + 8, puts = stats + 16, deletes = stats + 24,
               unique = stats + 48;
  ASSERT_EQ(GetU64(original, requests), 2000u);
  ASSERT_EQ(GetU64(original, unique), s.unique_objects);
  const auto open_forged = [&](const std::vector<std::pair<size_t, uint64_t>>& fields) {
    std::string bytes = original;
    for (const auto& [at, v] : fields) {
      PutU64(bytes, at, v);
    }
    Reseal(bytes, layout);
    WriteFileBytes(path, bytes);
    error.clear();
    return ColumnarTraceSource::Open(path, &error) != nullptr;
  };
  struct Forgery {
    std::vector<std::pair<size_t, uint64_t>> fields;
    const char* error;
  };
  const char* kCount = "stats num_requests does not match the record count";
  const char* kOps = "stats op counts do not sum to num_requests";
  const char* kUnique = "stats unique_objects exceeds num_gets + num_puts";
  const std::vector<Forgery> forgeries = {
      {{{requests, 2001}}, kCount},
      {{{requests, 1999}}, kCount},
      {{{gets, 1ull << 50}}, kOps},
      {{{gets, s.num_gets + 1}}, kOps},
      {{{deletes, s.num_deletes - 1}}, kOps},
      // Two that wrap the 64-bit sum gets + puts + deletes to num_requests.
      {{{gets, ~0ull}, {puts, s.num_gets + s.num_puts + 1}}, kOps},
      {{{deletes, ~0ull}, {puts, s.num_puts + s.num_deletes + 1}}, kOps},
      {{{unique, s.num_gets + s.num_puts + 1}}, kUnique},
      {{{unique, 1ull << 63}}, kUnique},
  };
  for (size_t i = 0; i < forgeries.size(); ++i) {
    EXPECT_FALSE(open_forged(forgeries[i].fields)) << "forgery " << i;
    EXPECT_NE(error.find(forgeries[i].error), std::string::npos) << "forgery " << i << ": " << error;
  }
  // The bounds are bounds: counts that still sum and fit open.
  EXPECT_TRUE(open_forged({{unique, s.num_gets + s.num_puts}})) << error;
  EXPECT_TRUE(open_forged({{gets, s.num_gets - 1}, {puts, s.num_puts + 1}})) << error;
  std::remove(path.c_str());
}

// About 2,000 mutants of a five-chunk file from one fixed seed: bit flips
// in each column and in the footer, varint continuation-bit edits,
// truncations, and swapped chunks. A mutant whose checksums were not
// recomputed must read back as the original rows or fail "checksum
// mismatch" (an edit inside a chunk always changes its FNV-1a) or, for a
// cut file, with Open's error. A resealed mutant must read back in time
// order or fail "decode failed" or with Open's error. Either way a failed
// read returns no rows. Runs under the asan and ubsan labels.
TEST(ColumnarMutationTest, HostileChunkBytesFailByName) {
  const Trace t = MakeTrace(600);
  const std::string path = TempPath("mutant.mctc");
  ASSERT_TRUE(WriteTraceColumnar(t, path, nullptr, /*chunk_records=*/128));
  const std::string original = ReadFileBytes(path);
  const MctcLayout layout = LayoutOf(original);
  ASSERT_EQ(layout.chunks.size(), 5u);
  uint64_t x = 0x51f0c0ffeeull;  // the fixed seed
  const auto next = [&x](uint64_t bound) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x % bound;
  };
  size_t decoded_resealed = 0;
  for (int m = 0; m < 2000; ++m) {
    std::string bytes = original;
    const MctcLayout::Chunk& c = layout.chunks[next(layout.chunks.size())];
    const int column = static_cast<int>(next(4));
    const size_t in_column =
        c.column_begin[column] + next(c.column_begin[column + 1] - c.column_begin[column]);
    bool reseal = next(2) == 0;
    bool truncated = false;
    MctcLayout swapped;
    const MctcLayout* seal = &layout;
    switch (m % 5) {
      case 0:  // a bit flip in one column
      case 1:
        bytes[in_column] ^= static_cast<char>(1 << next(8));
        break;
      case 2:  // a varint continuation-bit edit (the ops column has none)
        bytes[column == 3 ? c.column_begin[0] : in_column] ^= '\x80';
        break;
      case 3:  // a flip in the directory or the stats after it
        bytes[layout.footer_begin + next(bytes.size() - 24 - layout.footer_begin)] ^=
            static_cast<char>(1 << next(8));
        break;
      case 4:
        if (next(2) == 0) {
          bytes.resize(next(bytes.size()));
          truncated = true;
          reseal = false;
        } else {
          // Swap two adjacent chunks' bytes; a resealed swap moves their
          // directory entries too, so only the chunk times are out of order.
          const size_t i = next(layout.chunks.size() - 1);
          const MctcLayout::Chunk& a = layout.chunks[i];
          const MctcLayout::Chunk& b = layout.chunks[i + 1];
          const std::string first = original.substr(a.begin, a.end - a.begin);
          const std::string second = original.substr(b.begin, b.end - b.begin);
          bytes.replace(a.begin, first.size() + second.size(), second + first);
          if (reseal) {
            std::string entry_a = original.substr(a.entry, 48);
            std::string entry_b = original.substr(b.entry, 48);
            PutU64(entry_b, 0, a.begin);
            PutU64(entry_a, 0, a.begin + second.size());
            bytes.replace(a.entry, 96, entry_b + entry_a);
            swapped = LayoutOf(bytes);
            seal = &swapped;
          }
        }
        break;
    }
    if (reseal) {
      Reseal(bytes, *seal);
    }
    SCOPED_TRACE("mutant " + std::to_string(m) + (reseal ? " resealed" : ""));
    Trace back;
    const std::string error = ReadError(path, bytes, &back);
    if (error.empty()) {
      ASSERT_TRUE(back.IsSorted());
      ASSERT_EQ(back.size(), t.size());
      if (!reseal) {
        ASSERT_EQ(back.requests, t.requests);
      } else {
        ++decoded_resealed;
      }
      continue;
    }
    ASSERT_EQ(error.rfind("mctc: ", 0), 0u) << error;
    const bool chunk_error = error.find(": chunk ") != std::string::npos &&
                             error.find("chunk extent") == std::string::npos &&
                             error.find("chunk times") == std::string::npos &&
                             error.find("chunk count") == std::string::npos &&
                             error.find("chunk directory") == std::string::npos;
    if (truncated) {
      ASSERT_FALSE(chunk_error) << error;  // a cut file loses its trailer
    } else if (!reseal) {
      ASSERT_NE(error.find("checksum mismatch"), std::string::npos) << error;
    } else if (chunk_error) {
      ASSERT_NE(error.find("decode failed"), std::string::npos) << error;
    }
  }
  // Some resealed mutants (a flipped id or size bit) still decode.
  EXPECT_GT(decoded_resealed, 0u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace macaron
