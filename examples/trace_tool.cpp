// Trace tool: generates the 19-workload evaluation suite to disk (CSV or
// MCTC) and prints Table 2-style statistics — the equivalent of the
// paper's released trace artifacts, reproducible from seeds. Every file is
// read back and compared request by request with the trace it was written
// from; any difference exits 1.
//
// Usage: trace_tool [output-dir] [csv|mctc]    (default: ./traces csv)

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <string>

#include "src/trace/columnar_io.h"
#include "src/trace/splitter.h"
#include "src/trace/synthetic.h"
#include "src/trace/trace_io.h"

using namespace macaron;

int main(int argc, char** argv) {
  const std::string dir = argc > 1 ? argv[1] : "traces";
  const std::string format = argc > 2 ? argv[2] : "csv";
  if (format != "csv" && format != "mctc") {
    std::fprintf(stderr, "unknown format %s (want csv or mctc)\n", format.c_str());
    return 2;
  }
  const bool csv = format == "csv";
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s: %s\n", dir.c_str(), ec.message().c_str());
    return 1;
  }
  std::printf("writing %s traces to %s/\n\n", format.c_str(), dir.c_str());
  std::printf("%-8s %10s %12s   %s\n", "trace", "requests", "bytes", "file");
  size_t records = 0;
  for (const WorkloadProfile& p : AllProfiles()) {
    const Trace trace = SplitObjects(GenerateTrace(p), p.max_object_bytes);
    const std::string path = dir + "/" + p.name + "." + format;
    std::string error;
    if (!(csv ? WriteTraceCsv(trace, path) : WriteTraceColumnar(trace, path, &error))) {
      std::fprintf(stderr, "failed to write %s %s\n", path.c_str(), error.c_str());
      return 1;
    }
    const TraceStats s = ComputeStats(trace);
    std::printf("%-8s %10zu %10.2fGB   %s\n", p.name.c_str(), trace.size(),
                static_cast<double>(s.get_bytes + s.put_bytes) / 1e9, path.c_str());

    Trace back;
    if (!(csv ? ReadTraceCsv(path, &back, &error) : ReadTraceColumnar(path, &back, &error))) {
      std::fprintf(stderr, "round trip: cannot read back %s: %s\n", path.c_str(), error.c_str());
      return 1;
    }
    const auto [wrote, read] = std::mismatch(trace.requests.begin(), trace.requests.end(),
                                             back.requests.begin(), back.requests.end());
    if (wrote != trace.requests.end() || read != back.requests.end()) {
      std::fprintf(stderr, "round trip: %s differs from the trace written at record %zu\n",
                   path.c_str(), static_cast<size_t>(wrote - trace.requests.begin()));
      return 1;
    }
    records += back.size();
  }
  std::printf("\nRound-trip check: OK (%zu records read back identical)\n", records);
  return 0;
}
