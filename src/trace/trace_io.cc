#include "src/trace/trace_io.h"

#include <cerrno>
#include <charconv>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string_view>

namespace macaron {

namespace {

constexpr char kCsvHeader[] = "time_ms,op,object_id,size_bytes";

struct FileCloser {
  void operator()(std::FILE* f) const {
    if (f != nullptr) {
      std::fclose(f);
    }
  }
};
using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

void SetError(std::string* error, const std::string& message) {
  if (error != nullptr) {
    *error = message;
  }
}

// Parses one CSV field as an integer, advancing `p` past the field and the
// trailing delimiter. Rejects empty/malformed/overflowing fields.
template <typename Int>
bool ParseIntField(const char*& p, const char* end, char delim, Int* out) {
  const auto [next, ec] = std::from_chars(p, end, *out);
  if (ec != std::errc() || next == p) {
    return false;
  }
  p = next;
  if (delim != '\0') {
    if (p == end || *p != delim) {
      return false;
    }
    ++p;
  }
  return true;
}

// End of the text of a line read by fgets, before its trailing CR/LF.
const char* LineEnd(const char* line) {
  const char* end = line + std::strlen(line);
  while (end > line && (end[-1] == '\n' || end[-1] == '\r')) {
    --end;
  }
  return end;
}

// Parses one row (line ending already stripped) into `r`.
bool ParseCsvRow(const char* p, const char* end, Request* r) {
  if (!ParseIntField(p, end, ',', &r->time)) {
    return false;
  }
  const char* comma = static_cast<const char*>(std::memchr(p, ',', end - p));
  if (comma == nullptr) {
    return false;
  }
  const std::string_view op(p, static_cast<size_t>(comma - p));
  if (op == "GET") {
    r->op = Op::kGet;
  } else if (op == "PUT") {
    r->op = Op::kPut;
  } else if (op == "DELETE") {
    r->op = Op::kDelete;
  } else {
    return false;
  }
  p = comma + 1;
  uint64_t size = 0;
  if (!ParseIntField(p, end, ',', &r->id) || !ParseIntField(p, end, '\0', &size) || p != end ||
      size > kMaxRequestBytes) {
    return false;
  }
  r->size = size;
  return true;
}

}  // namespace

bool WriteTraceCsv(const Trace& trace, const std::string& path) {
  FilePtr f(std::fopen(path.c_str(), "w"));
  if (f == nullptr) {
    return false;
  }
  // Rows are formatted into a buffer and flushed in bulk; snprintf into
  // memory is much cheaper than fprintf's per-call locking and flushing.
  std::string buf;
  buf.reserve(1 << 20);
  buf.append(kCsvHeader).append("\n");
  char row[96];
  for (const Request& r : trace.requests) {
    const int len = std::snprintf(row, sizeof(row), "%" PRId64 ",%s,%" PRIu64 ",%" PRIu64 "\n",
                                  r.time, OpName(r.op), r.id, r.size);
    if (len < 0 || static_cast<size_t>(len) >= sizeof(row)) {
      return false;
    }
    buf.append(row, static_cast<size_t>(len));
    if (buf.size() >= (1 << 20) - sizeof(row)) {
      if (std::fwrite(buf.data(), 1, buf.size(), f.get()) != buf.size()) {
        return false;
      }
      buf.clear();
    }
  }
  if (!buf.empty() && std::fwrite(buf.data(), 1, buf.size(), f.get()) != buf.size()) {
    return false;
  }
  return true;
}

bool ReadTraceCsv(const std::string& path, Trace* out, std::string* error) {
  FilePtr f(std::fopen(path.c_str(), "r"));
  if (f == nullptr) {
    SetError(error, path + ": " + std::strerror(errno));
    return false;
  }
  out->requests.clear();
  size_t line_no = 1;
  const auto fail = [&](const std::string& what) {
    SetError(error, path + ": line " + std::to_string(line_no) + what);
    return false;
  };
  char line[256];
  // A headerless file would silently lose its first request.
  if (std::fgets(line, sizeof(line), f.get()) == nullptr ||
      std::string_view(line, static_cast<size_t>(LineEnd(line) - line)) != kCsvHeader) {
    return fail(std::string(" is not the header ") + kCsvHeader);
  }
  while (std::fgets(line, sizeof(line), f.get()) != nullptr) {
    ++line_no;
    const char* end = LineEnd(line);
    if (end == line) {
      continue;  // tolerate a trailing blank line
    }
    Request r;
    if (!ParseCsvRow(line, end, &r)) {
      return fail(std::string(": malformed row (want ") + kCsvHeader + ")");
    }
    // The engines integrate cost over time and skip intervals that run
    // backwards, so an unsorted file would under-bill instead of failing.
    // Equal times are legal: SplitObjects emits one row per block.
    if (!out->requests.empty() && r.time < out->requests.back().time) {
      return fail(": time " + std::to_string(r.time) + " is earlier than the previous row's " +
                  std::to_string(out->requests.back().time));
    }
    out->requests.push_back(r);
  }
  return true;
}

}  // namespace macaron
