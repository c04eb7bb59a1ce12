// Unit tests for the MCTC chunked columnar trace format (columnar_io.h):
// round trips (materialized and chunk-by-chunk against the in-memory
// TraceSource adapter), footer-derived SourceInfo fidelity, a TraceSource
// built on precomputed stats matching one that computes its own, the content
// identity hash, and the rejection paths — foreign files, truncation, a
// corrupt footer, a checksummed footer whose chunk directory does not tile
// the file, and a corrupt chunk payload (which must throw at FillNext,
// never replay silently).

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <string>
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
};

// A structurally valid MCTC file around `data_bytes` bytes of (meaningless)
// chunk data: correct header, a footer declaring `chunks` with a matching
// record total, and a trailer whose checksum covers that footer — so Open
// can only object to the extents themselves.
std::string CraftMctc(size_t data_bytes, const std::vector<CraftedChunk>& chunks) {
  std::string file = "MCTC";
  file.append("\x02\x00\x00\x00", 4);
  file.append(data_bytes, '\x5a');
  std::string footer;
  AppendU64(footer, chunks.size());
  uint64_t records = 0;
  for (const CraftedChunk& c : chunks) {
    for (const uint64_t v : {c.offset, c.bytes, c.count, uint64_t{0}, uint64_t{0}, uint64_t{0}}) {
      AppendU64(footer, v);
    }
    records += c.count;
  }
  AppendU64(footer, records);  // num_requests
  AppendU64(footer, 0);        // start time
  AppendU64(footer, 0);        // end time
  for (int i = 0; i < 13; ++i) {
    AppendU64(footer, 0);  // TraceStats
  }
  AppendU64(footer, 0);  // empty name
  file += footer;
  AppendU64(file, footer.size());
  AppendU64(file, Fnv1a(footer));
  file.append("MCTCEND2", 8);
  return file;
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
  WriteFileBytes(path, CraftMctc(kData, {{kHeader, kData, 1}}));
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
    const std::string bytes = CraftMctc(kData, bad[i]);
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

}  // namespace
}  // namespace macaron
