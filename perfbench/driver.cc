// Benchmark driver: runs one workload's cells over and over for a fixed
// host-time budget and prints every pass's measurements as one JSON
// document on stdout (perfbench/run.py turns them into the reported
// metrics and checks the digests).
//
//   perfbench_driver --workload NAME --seed N --seconds S --trace 0|1
//                    [--spans PATH] [--max-passes N] [--perturb-field K]
//                    [--check-fields]
//
// With --trace 1 untraced and traced passes alternate, so the tracing
// overhead is measured inside one process; spans of the traced passes go to
// --spans as JSON lines.
//
// After every pass the driver times a fixed host-speed probe (HostProbe),
// which perfbench/run.py uses to express pass times at a reference host
// speed.
#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/harness.h"

#ifndef PERFBENCH_BUILD_FLAGS
#define PERFBENCH_BUILD_FLAGS "unknown"
#endif

namespace perfbench {
namespace {

struct Workload {
  const char* name;
  void (*run)(const CellOptions&, Tracer&, PassRecord&);
};
constexpr Workload kWorkloads[] = {
    {"kvs_zipf", KvsZipf},
    {"nfv_chain", NfvChain},
    {"coherence_ring", CoherenceRing},
};

struct Args {
  const Workload* workload = nullptr;
  CellOptions cell;
  double seconds = 10;
  bool trace = false;
  std::string spans_path;
  std::uint64_t max_passes = 0;  // 0: as many as the budget allows
};

// Passes a run makes at least, whatever the budget: enough for a median.
constexpr int kMinPasses = 3;
constexpr int kMinTracedPasses = 2;

bool ParseU64(const char* text, std::uint64_t* out) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (end == text || *end != '\0' || text[0] == '-') {
    return false;
  }
  *out = v;
  return true;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--check-fields") {
      args->cell.check_fields = true;
      continue;
    }
    if (i + 1 >= argc) {
      std::fprintf(stderr, "missing value for %s\n", flag.c_str());
      return false;
    }
    const char* value = argv[++i];
    std::uint64_t n = 0;
    if (flag == "--workload") {
      for (const Workload& w : kWorkloads) {
        if (std::strcmp(w.name, value) == 0) {
          args->workload = &w;
        }
      }
      if (args->workload == nullptr) {
        std::fprintf(stderr, "unknown workload: %s\n", value);
        return false;
      }
    } else if (flag == "--seed" && ParseU64(value, &n)) {
      args->cell.seed = n;
    } else if (flag == "--seconds" && ParseU64(value, &n) && n >= 1 && n <= 3600) {
      args->seconds = static_cast<double>(n);
    } else if (flag == "--trace" && ParseU64(value, &n) && n <= 1) {
      args->trace = n == 1;
    } else if (flag == "--perturb-field" && ParseU64(value, &n)) {
      args->cell.perturb = static_cast<std::size_t>(n);
    } else if (flag == "--max-passes" && ParseU64(value, &n)) {
      args->max_passes = n;
    } else if (flag == "--spans") {
      args->spans_path = value;
    } else {
      std::fprintf(stderr, "bad argument: %s %s\n", flag.c_str(), value);
      return false;
    }
  }
  if (args->workload == nullptr) {
    std::fprintf(stderr, "--workload is required\n");
    return false;
  }
  return true;
}

// A fixed, simulator-independent kernel shaped like the simulator's hot path:
// a pseudo-random line stream through a 16-way set-associative tag array of
// 6 MB with oldest-stamp replacement. The host's speed on it drifts with
// the same co-tenant load that moves the simulator's pass times.
class HostProbe {
 public:
  // Seconds taken by one fixed batch of lookups.
  double Time() {
    const std::int64_t t0 = NowNs();
    for (int k = 0; k < kLookups; ++k) {
      x_ ^= x_ << 13;
      x_ ^= x_ >> 7;
      x_ ^= x_ << 17;
      const std::uint64_t tag = ((x_ >> 20) & ((std::uint64_t{1} << 20) - 1)) + 1;
      const std::size_t set = ((tag * 0x9e3779b97f4a7c15ull) >> 40) & (kSets - 1);
      std::uint64_t* tags = &tags_[set * kWays];
      std::uint32_t* stamps = &stamps_[set * kWays];
      std::size_t way = 0;
      for (std::size_t w = 0; w < kWays; ++w) {
        if (tags[w] == tag) {
          way = w;
          break;
        }
        if (stamps[w] < stamps[way]) {
          way = w;
        }
      }
      tags[way] = tag;
      stamps[way] = ++clock_;
    }
    return static_cast<double>(NowNs() - t0) * 1e-9;
  }

 private:
  static constexpr std::size_t kSets = std::size_t{1} << 15;
  static constexpr std::size_t kWays = 16;
  static constexpr int kLookups = 500000;
  std::vector<std::uint64_t> tags_ = std::vector<std::uint64_t>(kSets * kWays, 0);
  std::vector<std::uint32_t> stamps_ = std::vector<std::uint32_t>(kSets * kWays, 0);
  std::uint64_t x_ = 88172645463325252ull;
  std::uint32_t clock_ = 0;
};

// Minimal JSON string escaping (names are ASCII; error texts may not be).
std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

void PrintPass(const PassRecord& p, double probe_s, bool last) {
  std::printf("  {\"traced\": %s, \"wall_s\": %.9f, \"setup_s\": %.9f, \"warmup_s\": %.9f, "
              "\"measured_s\": %.9f, \"probe_s\": %.9f, \"warmup_lines\": %llu, "
              "\"measured_lines\": %llu,\n   \"layer\": {",
              p.traced ? "true" : "false", p.wall_s, p.setup_s, p.warmup_s, p.measured_s, probe_s,
              static_cast<unsigned long long>(p.warmup_lines),
              static_cast<unsigned long long>(p.measured_lines));
  bool first = true;
  for (const auto& [name, value] : p.layer) {
    std::printf("%s%s: %.17g", first ? "" : ", ", Quote(name).c_str(), value);
    first = false;
  }
  std::printf("},\n   \"cells\": [");
  for (std::size_t i = 0; i < p.cells.size(); ++i) {
    const CellResult& c = p.cells[i];
    std::printf("%s{\"name\": %s, \"digest\": %s, \"error\": %s, \"fields\": %zu, "
                "\"insensitive_fields\": %zu}",
                i == 0 ? "" : ", ", Quote(c.name).c_str(), Quote(c.digest).c_str(),
                Quote(c.error).c_str(), c.fields, c.insensitive_fields);
  }
  std::printf("]}%s\n", last ? "" : ",");
}

void AppendSpans(std::FILE* out, int pass, std::int64_t pass_start, const Tracer& tracer) {
  for (const Span& s : tracer.spans()) {
    std::fprintf(out,
                 "{\"pass\": %d, \"cell\": %d, \"id\": %d, \"parent\": %d, \"name\": %s, "
                 "\"start_ns\": %lld, \"end_ns\": %lld, \"busy_ns\": %lld, \"calls\": %llu}\n",
                 pass, s.cell, s.id, s.parent, Quote(s.name).c_str(),
                 static_cast<long long>(s.start_ns - pass_start),
                 static_cast<long long>(s.end_ns - pass_start), static_cast<long long>(s.busy_ns),
                 static_cast<unsigned long long>(s.calls));
  }
}

int Main(int argc, char** argv) {
#if !defined(NDEBUG) || !defined(__OPTIMIZE__)
  std::fprintf(stderr,
               "refusing to measure: this build is unoptimised or has assertions enabled; "
               "rebuild with CMAKE_BUILD_TYPE=Release\n");
  return 3;
#endif
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    return 2;
  }
  std::FILE* spans = nullptr;
  if (args.trace && !args.spans_path.empty()) {
    spans = std::fopen(args.spans_path.c_str(), "w");
    if (spans == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", args.spans_path.c_str());
      return 2;
    }
  }

  HostProbe probe;
  probe.Time();  // first touch of its tables
  std::vector<PassRecord> passes;
  std::vector<double> probe_s;
  const std::int64_t run_start = NowNs();
  int traced_passes = 0;
  double peak_rss_mb = 0;
  for (int pass = 0;; ++pass) {
    const double elapsed = static_cast<double>(NowNs() - run_start) * 1e-9;
    const double last_wall = passes.empty() ? 0.0 : passes.back().wall_s;
    const bool enough = static_cast<int>(passes.size()) >= kMinPasses &&
                        (!args.trace || traced_passes >= kMinTracedPasses);
    if ((enough && elapsed + last_wall > args.seconds) ||
        (args.max_passes != 0 && passes.size() >= args.max_passes)) {
      break;
    }
    PassRecord record;
    record.traced = args.trace && pass % 2 == 1;
    Tracer tracer(record.traced);
    const std::int64_t t0 = NowNs();
    try {
      args.workload->run(args.cell, tracer, record);
    } catch (const std::exception& e) {
      CellResult failed;
      failed.name = "exception";
      failed.error = e.what();
      record.cells.push_back(std::move(failed));
    }
    record.wall_s = static_cast<double>(NowNs() - t0) * 1e-9;
    if (record.traced) {
      ++traced_passes;
      for (const auto& [name, seconds] : tracer.SelfSecondsByName()) {
        record.layer[name + "_s"] = seconds;
      }
      record.layer["bench.untraced_frac"] = 1.0 - tracer.TopLevelSeconds() / record.wall_s;
      if (spans != nullptr) {
        AppendSpans(spans, pass, t0, tracer);
      }
    }
    passes.push_back(std::move(record));
    probe_s.push_back(probe.Time());
    if (passes.size() == 1) {
      // The high-water mark of one pass. Later passes only add allocator
      // fragmentation, which would make the figure grow with the pass count.
      rusage usage{};
      getrusage(RUSAGE_SELF, &usage);
      peak_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;
    }
  }
  if (spans != nullptr) {
    std::fclose(spans);
  }

  std::printf("{\"stamp\": {\"compiler\": %s, \"build_flags\": %s, \"ndebug\": true, "
              "\"optimized\": true, \"nproc\": %u, \"workload\": %s, \"seed\": %llu},\n",
              Quote(__VERSION__).c_str(), Quote(PERFBENCH_BUILD_FLAGS).c_str(),
              std::thread::hardware_concurrency(), Quote(args.workload->name).c_str(),
              static_cast<unsigned long long>(args.cell.seed));
  std::printf(" \"peak_rss_mb\": %.6f,\n \"passes\": [\n", peak_rss_mb);
  for (std::size_t i = 0; i < passes.size(); ++i) {
    PrintPass(passes[i], probe_s[i], i + 1 == passes.size());
  }
  std::printf(" ]}\n");
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
