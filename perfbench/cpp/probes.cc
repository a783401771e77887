// Process probes shared by every workload: peak RSS, a per-thread heap
// allocation counter, and the span file writer.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <new>
#include <string>
#include <unordered_map>

#include "bench.h"

namespace perfbench {
namespace {

// Per-thread, so counting costs the threaded workloads no shared cache
// line; sim-storm reads it on the one thread that runs the simulation.
thread_local std::uint64_t t_allocs = 0;

void* counted_alloc(std::size_t size) {
  ++t_allocs;
  return std::malloc(size == 0 ? 1 : size);
}

void* counted_aligned_alloc(std::size_t size, std::size_t align) {
  ++t_allocs;
  void* p = nullptr;
  if (posix_memalign(&p, align < sizeof(void*) ? sizeof(void*) : align,
                     size == 0 ? 1 : size) != 0) {
    return nullptr;
  }
  return p;
}

/// The calibration kernel's median wall time on the reference host (the
/// 4-vCPU Xeon VM the benchmark was defined on), in ms.
constexpr double kReferenceKernelMs = 3.25;

std::uint64_t calibration_kernel() {
  std::unordered_map<std::uint64_t, std::uint64_t> m;
  m.reserve(1 << 15);
  std::uint64_t x = 88172645463325252ULL;
  std::uint64_t acc = 0;
  for (int i = 0; i < 100000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    const auto it = m.find(x & 0x7fff);
    if (it == m.end()) {
      m.emplace(x & 0x7fff, x);
    } else {
      acc += it->second;
      if ((x & 1) != 0) m.erase(it);
    }
  }
  return acc + m.size();
}

}  // namespace

double host_slowdown() {
  const std::int64_t t0 = now_ns();
  volatile std::uint64_t sink = calibration_kernel();
  (void)sink;
  return static_cast<double>(now_ns() - t0) / 1e6 / kReferenceKernelMs;
}

std::uint64_t thread_allocations() { return t_allocs; }

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

bool SpanLog::write_chrome(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("{\"traceEvents\": [\n", f);
  bool first = true;
  for (const Span& s : spans_) {
    std::fprintf(f,
                 "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": %u, "
                 "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %llu, "
                 "\"parent\": %llu}}",
                 first ? "" : ",\n", s.name, s.thread,
                 static_cast<double>(s.start_ns) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent));
    first = false;
  }
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0;
}

void write_spans(const Options& opt, const SpanLog& spans, Result& out) {
  const std::string path = opt.scratch_dir + "/spans-" + opt.workload +
                           "-seed" + std::to_string(opt.seed) + ".json";
  if (spans.write_chrome(path)) {
    out.notes.push_back("spans: " + std::to_string(spans.spans().size()) +
                        " written to " + path);
  } else {
    out.failures.push_back("could not write the span file " + path);
  }
}

}  // namespace perfbench

// --- Counting replacements of the global allocation functions ---

void* operator new(std::size_t size) {
  void* p = perfbench::counted_alloc(size);
  if (p == nullptr) throw std::bad_alloc{};
  return p;
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return perfbench::counted_alloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return perfbench::counted_alloc(size);
}
void* operator new(std::size_t size, std::align_val_t align) {
  void* p = perfbench::counted_aligned_alloc(size, static_cast<std::size_t>(align));
  if (p == nullptr) throw std::bad_alloc{};
  return p;
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}
void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  return perfbench::counted_aligned_alloc(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align,
                     const std::nothrow_t&) noexcept {
  return perfbench::counted_aligned_alloc(size, static_cast<std::size_t>(align));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t, std::size_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t, std::size_t) noexcept {
  std::free(p);
}
