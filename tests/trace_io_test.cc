// Unit tests for the CSV trace reader and writer: the bulk-flush round
// trip, and the from_chars parser's rejection of malformed rows, missing
// headers and rows that run backwards in time.

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "src/trace/trace.h"
#include "src/trace/trace_io.h"

namespace macaron {
namespace {

Trace MakeBigTrace(size_t n) {
  Trace t;
  t.name = "big";
  t.requests.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const Op op = i % 7 == 0 ? Op::kPut : (i % 31 == 0 ? Op::kDelete : Op::kGet);
    t.requests.push_back(Request{static_cast<SimTime>(i * 13),
                                 static_cast<ObjectId>(i * 2654435761u),
                                 1000 + (i % 4096) * 7, op});
  }
  return t;
}

std::string TempPath(const char* stem) { return testing::TempDir() + "/" + stem; }

void WriteFile(const std::string& path, const std::string& contents) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fwrite(contents.data(), 1, contents.size(), f), contents.size());
  std::fclose(f);
}

TEST(TraceIoBulkTest, CsvRoundTripAcrossFlushBoundary) {
  // ~40 bytes/row * 40000 rows > the 1 MB flush buffer.
  const size_t n = 40000;
  const Trace t = MakeBigTrace(n);
  const std::string path = TempPath("bulk_csv.csv");
  ASSERT_TRUE(WriteTraceCsv(t, path));
  Trace back;
  ASSERT_TRUE(ReadTraceCsv(path, &back));
  ASSERT_EQ(back.requests.size(), n);
  for (size_t i : {size_t{0}, n / 2, n - 1}) {
    EXPECT_EQ(back.requests[i], t.requests[i]) << i;
  }
  std::remove(path.c_str());
}

struct CsvCase {
  const char* label;
  const char* body;  // rows after the header
  bool ok;
  const char* error = ": line ";  // expected in the message of a rejection
};

TEST(TraceIoBulkTest, CsvMalformedInputs) {
  const CsvCase cases[] = {
      {"valid", "100,GET,7,2048\n", true},
      {"valid_crlf", "100,GET,7,2048\r\n", true},
      {"valid_no_trailing_newline", "100,GET,7,2048", true},
      {"negative_time", "-5,GET,7,2048\n", true},
      {"unknown_op", "100,POST,7,2048\n", false, "line 2: malformed row"},
      {"lowercase_op", "100,get,7,2048\n", false},
      {"missing_field", "100,GET,7\n", false},
      {"extra_field", "100,GET,7,2048,9\n", false},
      {"empty_time", ",GET,7,2048\n", false},
      {"non_numeric_id", "100,GET,abc,2048\n", false},
      {"trailing_junk", "100,GET,7,2048x\n", false},
      {"negative_size", "100,GET,7,-1\n", false},
      {"size_overflow", "100,GET,7,99999999999999999999999\n", false},
      // A Request holds sizes up to 2^56 - 1 (kMaxRequestBytes).
      {"size_past_request_bound", "100,GET,7,72057594037927936\n", false, "line 2: malformed row"},
      {"size_at_request_bound", "100,GET,7,72057594037927935\n", true},
      {"blank_trailing_line", "100,GET,7,2048\n\n", true},
      // Time may not run backwards: the engines would skip the interval
      // and under-bill. Equal times are legal (SplitObjects emits them).
      {"out_of_order", "100,GET,7,2048\n200,GET,8,2048\n150,GET,9,2048\n", false,
       "line 4: time 150 is earlier than the previous row's 200"},
      {"equal_times", "100,GET,7,2048\n100,PUT,8,2048\n", true},
  };
  for (const CsvCase& c : cases) {
    const std::string path = TempPath("malformed.csv");
    WriteFile(path, std::string("time_ms,op,object_id,size_bytes\n") + c.body);
    Trace t;
    std::string error;
    EXPECT_EQ(ReadTraceCsv(path, &t, &error), c.ok) << c.label;
    if (!c.ok) {
      EXPECT_NE(error.find(c.error), std::string::npos) << c.label << ": " << error;
    }
    std::remove(path.c_str());
  }
}

TEST(TraceIoBulkTest, CsvEmptyFileFails) {
  const std::string path = TempPath("empty.csv");
  WriteFile(path, "");
  Trace t;
  EXPECT_FALSE(ReadTraceCsv(path, &t));  // no header
  std::remove(path.c_str());
}

TEST(TraceIoBulkTest, CsvHeaderlessFileFails) {
  // Read as if it had a header, the file would lose its first request.
  const std::string path = TempPath("headerless.csv");
  WriteFile(path, "100,GET,7,2048\n200,GET,8,2048\n");
  Trace t;
  std::string error;
  EXPECT_FALSE(ReadTraceCsv(path, &t, &error));
  EXPECT_NE(error.find("line 1 is not the header time_ms,op,object_id,size_bytes"),
            std::string::npos)
      << error;
  WriteFile(path, "time,op,id,size\n100,GET,7,2048\n");
  EXPECT_FALSE(ReadTraceCsv(path, &t));
  // A CRLF header is the same header.
  WriteFile(path, "time_ms,op,object_id,size_bytes\r\n100,GET,7,2048\r\n");
  EXPECT_TRUE(ReadTraceCsv(path, &t));
  EXPECT_EQ(t.size(), 1u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace macaron
