#include "src/trace/trace_io.h"

#include <charconv>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string_view>
#include <vector>

#include "src/common/hash.h"

namespace macaron {

namespace {

constexpr char kMagic[4] = {'M', 'C', 'T', 'R'};
// v1: raw packed records. v2: each staging chunk framed with its record
// count and FNV-1a checksum. The writer emits v2; the reader accepts both.
constexpr uint32_t kLegacyVersion = 1;
constexpr uint32_t kVersion = 2;

struct PackedRecord {
  int64_t time;
  uint64_t id;
  uint64_t size;
  uint8_t op;
  uint8_t pad[7];
};
static_assert(sizeof(PackedRecord) == 32);

// Records are staged through one contiguous buffer and moved with a single
// fread/fwrite per chunk; per-record stdio calls dominated profile time on
// multi-million-request traces.
constexpr size_t kChunkRecords = 1 << 16;

struct FileCloser {
  void operator()(std::FILE* f) const {
    if (f != nullptr) {
      std::fclose(f);
    }
  }
};
using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

// The packed bytes of the first `n` staged records, as the chunk checksum
// sees them.
std::string_view RecordBytes(const std::vector<PackedRecord>& chunk, size_t n) {
  return {reinterpret_cast<const char*>(chunk.data()), n * sizeof(PackedRecord)};
}

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

}  // namespace

bool WriteTraceBinary(const Trace& trace, const std::string& path) {
  FilePtr f(std::fopen(path.c_str(), "wb"));
  if (f == nullptr) {
    return false;
  }
  if (std::fwrite(kMagic, 1, 4, f.get()) != 4) {
    return false;
  }
  const uint32_t version = kVersion;
  const uint64_t count = trace.requests.size();
  if (std::fwrite(&version, sizeof(version), 1, f.get()) != 1 ||
      std::fwrite(&count, sizeof(count), 1, f.get()) != 1) {
    return false;
  }
  std::vector<PackedRecord> chunk(std::min<size_t>(kChunkRecords, trace.requests.size()));
  size_t done = 0;
  while (done < trace.requests.size()) {
    const size_t n = std::min(kChunkRecords, trace.requests.size() - done);
    for (size_t i = 0; i < n; ++i) {
      const Request& r = trace.requests[done + i];
      PackedRecord rec{};
      rec.time = r.time;
      rec.id = r.id;
      rec.size = r.size;
      rec.op = static_cast<uint8_t>(r.op);
      chunk[i] = rec;
    }
    // v2 chunk frame: record count + checksum of the packed bytes, so a
    // reader can pinpoint the first damaged chunk instead of reading short.
    const uint32_t chunk_count = static_cast<uint32_t>(n);
    const uint64_t chunk_fnv = Fnv1a(RecordBytes(chunk, n));
    if (std::fwrite(&chunk_count, sizeof(chunk_count), 1, f.get()) != 1 ||
        std::fwrite(&chunk_fnv, sizeof(chunk_fnv), 1, f.get()) != 1 ||
        std::fwrite(chunk.data(), sizeof(PackedRecord), n, f.get()) != n) {
      return false;
    }
    done += n;
  }
  return true;
}

namespace {

// Appends `n` validated records from the staging chunk.
bool AppendRecords(const std::vector<PackedRecord>& chunk, size_t n, Trace* out,
                   std::string* error) {
  for (size_t i = 0; i < n; ++i) {
    const PackedRecord& rec = chunk[i];
    if (rec.op > static_cast<uint8_t>(Op::kDelete)) {
      SetError(error, "mctr: op byte out of range (corrupt record)");
      return false;
    }
    out->requests.push_back(Request{rec.time, rec.id, rec.size, static_cast<Op>(rec.op)});
  }
  return true;
}

}  // namespace

bool ReadTraceBinary(const std::string& path, Trace* out, std::string* error) {
  FilePtr f(std::fopen(path.c_str(), "rb"));
  if (f == nullptr) {
    SetError(error, "mctr: cannot open " + path);
    return false;
  }
  char magic[4];
  uint32_t version = 0;
  uint64_t count = 0;
  if (std::fread(magic, 1, 4, f.get()) != 4 || std::memcmp(magic, kMagic, 4) != 0) {
    SetError(error, "mctr: " + path + ": missing MCTR magic (foreign file)");
    return false;
  }
  if (std::fread(&version, sizeof(version), 1, f.get()) != 1 ||
      (version != kLegacyVersion && version != kVersion)) {
    SetError(error, "mctr: " + path + ": unsupported version " + std::to_string(version));
    return false;
  }
  if (std::fread(&count, sizeof(count), 1, f.get()) != 1) {
    SetError(error, "mctr: " + path + ": truncated header");
    return false;
  }
  out->requests.clear();
  // Bound the reserve by the actual file size so a corrupt count cannot
  // trigger a huge allocation before the first failed read.
  const long header_end = std::ftell(f.get());
  if (header_end < 0 || std::fseek(f.get(), 0, SEEK_END) != 0) {
    SetError(error, "mctr: " + path + ": seek failed");
    return false;
  }
  const long file_end = std::ftell(f.get());
  if (file_end < header_end || std::fseek(f.get(), header_end, SEEK_SET) != 0) {
    SetError(error, "mctr: " + path + ": seek failed");
    return false;
  }
  const uint64_t body_bytes = static_cast<uint64_t>(file_end - header_end);
  const uint64_t available = version == kLegacyVersion
                                 ? body_bytes / sizeof(PackedRecord)
                                 : body_bytes;  // v2 framing checked per chunk below
  if (count > available) {
    SetError(error, "mctr: " + path + ": header claims " + std::to_string(count) +
                        " records but the file is too short (truncated)");
    return false;
  }
  out->requests.reserve(count);
  std::vector<PackedRecord> chunk(
      static_cast<size_t>(std::min<uint64_t>(kChunkRecords, std::max<uint64_t>(count, 1))));
  uint64_t done = 0;
  size_t chunk_index = 0;
  while (done < count) {
    size_t n = static_cast<size_t>(std::min<uint64_t>(kChunkRecords, count - done));
    if (version == kVersion) {
      uint32_t framed_count = 0;
      uint64_t framed_fnv = 0;
      if (std::fread(&framed_count, sizeof(framed_count), 1, f.get()) != 1 ||
          std::fread(&framed_fnv, sizeof(framed_fnv), 1, f.get()) != 1) {
        SetError(error, "mctr: " + path + ": truncated at chunk " + std::to_string(chunk_index) +
                            " frame header");
        return false;
      }
      if (framed_count == 0 || framed_count > kChunkRecords || framed_count > count - done) {
        SetError(error, "mctr: " + path + ": implausible chunk " + std::to_string(chunk_index) +
                            " record count");
        return false;
      }
      n = framed_count;
      if (std::fread(chunk.data(), sizeof(PackedRecord), n, f.get()) != n) {
        SetError(error, "mctr: " + path + ": truncated in chunk " + std::to_string(chunk_index));
        return false;
      }
      if (Fnv1a(RecordBytes(chunk, n)) != framed_fnv) {
        SetError(error, "mctr: " + path + ": chunk " + std::to_string(chunk_index) +
                            " checksum mismatch (corrupt data)");
        return false;
      }
    } else {
      if (std::fread(chunk.data(), sizeof(PackedRecord), n, f.get()) != n) {
        SetError(error, "mctr: " + path + ": truncated in chunk " + std::to_string(chunk_index));
        return false;
      }
    }
    if (!AppendRecords(chunk, n, out, error)) {
      return false;
    }
    done += n;
    ++chunk_index;
  }
  if (std::fgetc(f.get()) != EOF) {
    SetError(error, "mctr: " + path + ": trailing bytes after the last record (torn write?)");
    return false;
  }
  return true;
}

bool WriteTraceCsv(const Trace& trace, const std::string& path) {
  FilePtr f(std::fopen(path.c_str(), "w"));
  if (f == nullptr) {
    return false;
  }
  // Rows are formatted into a buffer and flushed in bulk; snprintf into
  // memory is much cheaper than fprintf's per-call locking and flushing.
  std::string buf;
  buf.reserve(1 << 20);
  buf.append("time_ms,op,object_id,size_bytes\n");
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

bool ReadTraceCsv(const std::string& path, Trace* out) {
  FilePtr f(std::fopen(path.c_str(), "r"));
  if (f == nullptr) {
    return false;
  }
  out->requests.clear();
  char line[256];
  // Header.
  if (std::fgets(line, sizeof(line), f.get()) == nullptr) {
    return false;
  }
  while (std::fgets(line, sizeof(line), f.get()) != nullptr) {
    const char* p = line;
    const char* end = line + std::strlen(line);
    while (end > p && (end[-1] == '\n' || end[-1] == '\r')) {
      --end;
    }
    if (p == end) {
      continue;  // tolerate a trailing blank line
    }
    int64_t t = 0;
    if (!ParseIntField(p, end, ',', &t)) {
      return false;
    }
    const char* comma = static_cast<const char*>(std::memchr(p, ',', end - p));
    if (comma == nullptr) {
      return false;
    }
    Op op;
    const size_t op_len = static_cast<size_t>(comma - p);
    if (op_len == 3 && std::memcmp(p, "GET", 3) == 0) {
      op = Op::kGet;
    } else if (op_len == 3 && std::memcmp(p, "PUT", 3) == 0) {
      op = Op::kPut;
    } else if (op_len == 6 && std::memcmp(p, "DELETE", 6) == 0) {
      op = Op::kDelete;
    } else {
      return false;
    }
    p = comma + 1;
    uint64_t id = 0;
    uint64_t size = 0;
    if (!ParseIntField(p, end, ',', &id) || !ParseIntField(p, end, '\0', &size) || p != end) {
      return false;
    }
    out->requests.push_back(Request{t, id, size, op});
  }
  return true;
}

}  // namespace macaron
