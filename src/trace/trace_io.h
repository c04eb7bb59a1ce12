// CSV trace files, the interchange format of the released IBM/Uber traces.
// The binary format the engines replay is MCTC (columnar_io.h).

#ifndef MACARON_SRC_TRACE_TRACE_IO_H_
#define MACARON_SRC_TRACE_TRACE_IO_H_

#include <string>

#include "src/trace/trace.h"

namespace macaron {

// Header "time_ms,op,object_id,size_bytes", then one row per request.
bool WriteTraceCsv(const Trace& trace, const std::string& path);

// Rejects a first line other than the header (a trailing CR is tolerated),
// a malformed row, and a row whose time is earlier than the previous row's
// (equal times are legal). Returns false on failure; when `error` is
// non-null it receives a message naming the offending line.
bool ReadTraceCsv(const std::string& path, Trace* out, std::string* error = nullptr);

}  // namespace macaron

#endif  // MACARON_SRC_TRACE_TRACE_IO_H_
