// Counting allocator: what held the heap when it peaked.
//
// Built as a shared library (libheap_peak.so, only without a sanitizer)
// and preloaded into any program of the repo:
//
//   HEAP_PEAK_OUT=peak.txt LD_PRELOAD=build/bench/libheap_peak.so prog ...
//   python3 scripts/heap_peak.py peak.txt
//
// It wraps glibc's malloc family, counts live heap bytes (the usable size
// of every block), and keeps every live block of at least 64 KiB with its
// size and caller frames, taken with backtrace() so no frame pointers are
// needed. A block freed after the live-heap peak, but allocated before it,
// is kept too. At exit it writes the process's peak RSS and minor faults
// (getrusage), the blocks live at the peak, then the process's memory map
// so the script can symbolize the frames. Without HEAP_PEAK_OUT it counts
// and writes nothing.
//
// Live heap and residency differ both ways: a hole that a freed block
// leaves in a malloc arena stays resident though no live block covers it,
// and a block reserved in full counts here in full though only its
// touched pages are resident. The report carries both.

#include <execinfo.h>
#include <fcntl.h>
#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>

extern "C" {
void* __libc_malloc(size_t);
void* __libc_calloc(size_t, size_t);
void* __libc_realloc(void*, size_t);
void* __libc_memalign(size_t, size_t);
void __libc_free(void*);
}

namespace {

constexpr size_t kLargeBytes = 64 << 10;
constexpr int kFrames = 16;
constexpr size_t kMaxBlocks = 1 << 14;  // large blocks kept at once, live and freed

struct Block {
  void* ptr;
  size_t bytes;
  uint64_t seq;  // allocation order
  int frames;
  void* frame[kFrames];
};

// All static and zero-initialized: the hooks run before any constructor.
std::atomic_flag lock = ATOMIC_FLAG_INIT;
__thread bool busy __attribute__((tls_model("initial-exec")));
int64_t live_bytes, peak_bytes;  // signed: a block from before preloading may be freed
uint64_t seq, peak_seq;
Block live[kMaxBlocks], freed[kMaxBlocks];  // freed: allocated before the peak, freed after it
size_t n_live, n_freed, n_lost;

void Lock() {
  while (lock.test_and_set(std::memory_order_acquire)) {
  }
}
void Unlock() { lock.clear(std::memory_order_release); }

void* Track(void* p) {
  if (p == nullptr) {
    return p;
  }
  const size_t bytes = malloc_usable_size(p);
  Block b{p, bytes, 0, 0, {}};
  if (bytes >= kLargeBytes && !busy) {
    busy = true;  // backtrace() may allocate on its first call
    b.frames = backtrace(b.frame, kFrames);
    busy = false;
  }
  Lock();
  b.seq = ++seq;
  live_bytes += static_cast<int64_t>(bytes);
  if (live_bytes > peak_bytes) {
    peak_bytes = live_bytes;
    peak_seq = b.seq;
    n_freed = 0;  // every block freed so far was dead at this peak
  }
  if (bytes >= kLargeBytes) {
    n_live < kMaxBlocks ? void(live[n_live++] = b) : void(++n_lost);
  }
  Unlock();
  return p;
}

void Untrack(void* p) {
  if (p == nullptr) {
    return;
  }
  const size_t bytes = malloc_usable_size(p);
  Lock();
  live_bytes -= static_cast<int64_t>(bytes);
  for (size_t i = 0; bytes >= kLargeBytes && i < n_live; ++i) {
    if (live[i].ptr == p) {
      if (live[i].seq <= peak_seq) {
        n_freed < kMaxBlocks ? void(freed[n_freed++] = live[i]) : void(++n_lost);
      }
      live[i] = live[--n_live];
      break;
    }
  }
  Unlock();
}

void Write(int fd, const Block& b) {
  char line[64 + kFrames * 20];
  int n = snprintf(line, sizeof line, "block %zu", b.bytes);
  for (int f = 0; f < b.frames; ++f) {
    n += snprintf(line + n, sizeof line - n, " %p", b.frame[f]);
  }
  line[n++] = '\n';
  (void)!write(fd, line, n);
}

__attribute__((destructor)) void Report() {
  const char* path = getenv("HEAP_PEAK_OUT");
  const int fd = path == nullptr ? -1 : open(path, O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    return;
  }
  busy = true;
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  Lock();
  char line[192];
  const int n = snprintf(line, sizeof line,
                         "# peak_live_bytes %lld threshold %zu lost %zu\n"
                         "# peak_rss_kib %ld minor_faults %ld\n",
                         static_cast<long long>(peak_bytes), kLargeBytes, n_lost,
                         usage.ru_maxrss, usage.ru_minflt);
  (void)!write(fd, line, n);
  for (size_t i = 0; i < n_live; ++i) {
    if (live[i].seq <= peak_seq) {
      Write(fd, live[i]);
    }
  }
  for (size_t i = 0; i < n_freed; ++i) {
    Write(fd, freed[i]);
  }
  Unlock();
  (void)!write(fd, "# maps\n", 7);
  const int maps = open("/proc/self/maps", O_RDONLY);
  char buf[4096];
  for (ssize_t got; maps >= 0 && (got = read(maps, buf, sizeof buf)) > 0;) {
    (void)!write(fd, buf, got);
  }
  close(maps);
  close(fd);
}

}  // namespace

extern "C" {
void* malloc(size_t n) { return Track(__libc_malloc(n)); }
void* calloc(size_t n, size_t size) { return Track(__libc_calloc(n, size)); }
void* realloc(void* p, size_t n) {
  Untrack(p);
  return Track(__libc_realloc(p, n));
}
void free(void* p) {
  Untrack(p);
  __libc_free(p);
}
void* memalign(size_t align, size_t n) { return Track(__libc_memalign(align, n)); }
void* aligned_alloc(size_t align, size_t n) { return memalign(align, n); }
int posix_memalign(void** out, size_t align, size_t n) {
  void* p = memalign(align, n);
  if (p == nullptr) {
    return ENOMEM;
  }
  *out = p;
  return 0;
}
}
