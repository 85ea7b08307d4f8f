// Measurement plumbing shared by the benchmark workloads: host-time phase
// timers, the in-memory span tracer, per-cell output digests and the
// per-pass record the driver serialises.
//
// Everything here observes the simulator from outside, at the library's
// public calls; nothing feeds back into a simulated quantity.
#ifndef CACHEDIRECTOR_PERFBENCH_HARNESS_H_
#define CACHEDIRECTOR_PERFBENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <cstring>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/cache/hierarchy.h"
#include "src/uncore/cbo.h"

namespace perfbench {

using cachedir::HierarchyStats;

inline std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// One traced interval. A plain span covers one call (busy == end - start,
// calls == 1). An aggregated span stands for many short calls made inside
// [start, end] — per-access hierarchy calls, timed one by one and summed so
// the trace stays small — and `busy` is their summed duration.
struct Span {
  std::string name;
  int id = 0;
  int parent = -1;  // -1: child of the pass itself
  int cell = -1;    // -1: pass-level work outside any cell
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t busy_ns = 0;
  std::uint64_t calls = 0;
};

// Records spans in memory while enabled; every entry point is a no-op
// returning the wrapped call's value when disabled, so untraced passes run
// the same code with no clock reads beyond the phase timers.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  void set_cell(int cell) { cell_ = cell; }

  // Runs fn() inside a span named `name`.
  template <typename Fn>
  decltype(auto) Scoped(const char* name, Fn&& fn) {
    if (!enabled_) {
      return fn();
    }
    const int id = Open(name, /*push=*/true);
    struct Closer {
      Tracer* tracer;
      int id;
      ~Closer() { tracer->Close(id); }
    } closer{this, id};
    return fn();
  }

  // Aggregated span: opened by the first Time() call, closed when the
  // object dies; Time() runs and times one call. It never becomes a parent,
  // so several aggregates may be live at once (interleaved DMA and core
  // calls). With tracing off, Time() is just the call.
  class Aggregate {
   public:
    Aggregate(Tracer& tracer, const char* name) : tracer_(tracer), name_(name) {}

    template <typename Fn>
    decltype(auto) Time(Fn&& fn) {
      if (!tracer_.enabled_) {
        return fn();
      }
      if (id_ < 0) {
        id_ = tracer_.Open(name_, /*push=*/false);
      }
      const std::int64_t t0 = NowNs();
      struct Adder {
        Aggregate* agg;
        std::int64_t t0;
        ~Adder() {
          Span& s = agg->tracer_.spans_[static_cast<std::size_t>(agg->id_)];
          s.busy_ns += NowNs() - t0;
          ++s.calls;
        }
      } adder{this, t0};
      return fn();
    }

    ~Aggregate() {
      if (id_ >= 0) {
        tracer_.spans_[static_cast<std::size_t>(id_)].end_ns = NowNs();
      }
    }

    Aggregate(const Aggregate&) = delete;
    Aggregate& operator=(const Aggregate&) = delete;

   private:
    Tracer& tracer_;
    const char* name_;
    int id_ = -1;
  };

  const std::vector<Span>& spans() const { return spans_; }

  // Busy time minus the busy time of direct children, summed per span name.
  std::map<std::string, double> SelfSecondsByName() const;
  // Summed busy time of spans whose parent is not itself a traced span —
  // the share of the pass the layer spans account for.
  double TopLevelSeconds() const;

 private:
  int Open(const char* name, bool push) {
    Span s;
    s.name = name;
    s.id = static_cast<int>(spans_.size());
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.cell = cell_;
    s.start_ns = NowNs();
    spans_.push_back(std::move(s));
    if (push) {
      stack_.push_back(spans_.back().id);
    }
    return spans_.back().id;
  }
  void Close(int id) {
    Span& s = spans_[static_cast<std::size_t>(id)];
    s.end_ns = NowNs();
    s.busy_ns = s.end_ns - s.start_ns;
    s.calls = 1;
    stack_.pop_back();
  }

  bool enabled_;
  int cell_ = -1;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

// Order-sensitive FNV-1a hash over a cell's named simulated outputs. The
// fields are kept so that the digest of a single perturbed field can be
// recomputed (the self-check that every digested field reaches the hash).
class Digest {
 public:
  void Add(const char* name, std::uint64_t value) { fields_.emplace_back(name, value); }
  void AddDouble(const char* name, double value) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof bits);
    Add(name, bits);
  }
  void AddStats(const HierarchyStats& s);
  void AddCbo(const cachedir::CboCounterBank& cbo);

  std::size_t size() const { return fields_.size(); }

  // Hash of all fields; with perturb < size(), field `perturb` has its low
  // bit flipped first.
  std::uint64_t Hash(std::size_t perturb = SIZE_MAX) const;

 private:
  std::vector<std::pair<std::string, std::uint64_t>> fields_;
};

// One digested unit of simulated output (a sweep point, a KVS
// configuration, one NFV run, the headline values).
struct CellResult {
  std::string name;
  std::string digest;  // 16 hex digits, or "" when the cell threw
  std::string error;
  std::size_t fields = 0;
  std::size_t insensitive_fields = 0;  // fields whose flip left the hash unchanged
};

// Everything one pass over a workload's cells measured.
struct PassRecord {
  bool traced = false;
  double wall_s = 0;
  double setup_s = 0;
  double warmup_s = 0;
  double measured_s = 0;
  // Simulated line accesses (core + DMA) during warm-up and measured phases.
  std::uint64_t warmup_lines = 0;
  std::uint64_t measured_lines = 0;
  // Layer counts and ratios (deterministic) and, when traced, layer seconds.
  std::map<std::string, double> layer;
  std::vector<CellResult> cells;
};

// Accumulates the host time of a workload's setup / warm-up / measured
// phases into the pass record.
class PhaseClock {
 public:
  explicit PhaseClock(PassRecord& record) : record_(record) {}

  template <typename Fn>
  decltype(auto) Setup(Fn&& fn) {
    return Timed(record_.setup_s, std::forward<Fn>(fn));
  }
  template <typename Fn>
  decltype(auto) Warmup(Fn&& fn) {
    return Timed(record_.warmup_s, std::forward<Fn>(fn));
  }
  template <typename Fn>
  decltype(auto) Measured(Fn&& fn) {
    return Timed(record_.measured_s, std::forward<Fn>(fn));
  }

 private:
  template <typename Fn>
  decltype(auto) Timed(double& into, Fn&& fn) {
    const std::int64_t t0 = NowNs();
    struct Adder {
      double& into;
      std::int64_t t0;
      ~Adder() { into += static_cast<double>(NowNs() - t0) * 1e-9; }
    } adder{into, t0};
    return fn();
  }

  PassRecord& record_;
};

// Simulated line accesses (core L1 lookups + DMA lines) in a stats block.
inline std::uint64_t LineAccesses(const HierarchyStats& s) {
  return s.l1_hits + s.l1_misses + s.dma_line_writes + s.dma_line_reads;
}

// Field-wise after - before.
HierarchyStats StatsDelta(const HierarchyStats& after, const HierarchyStats& before);

// What every workload takes besides its tracer and pass record.
struct CellOptions {
  std::uint64_t seed = 1;
  // Digest field to flip in every cell (SIZE_MAX: none) — proves that the
  // correctness check rejects a run whose simulated output differs.
  std::size_t perturb = SIZE_MAX;
  // Re-hash every cell once per field with that field flipped and count the
  // flips that leave the digest unchanged (must be none).
  bool check_fields = false;
};

// Finalises a cell: hashes `digest` as `options` ask and appends the result
// to the pass.
void FinishCell(PassRecord& record, const std::string& name, const Digest& digest,
                const CellOptions& options);

// Adds the counts every workload reports from its summed hierarchy stats:
// hit/miss numerators and denominators and coherence traffic. The driver
// turns the pairs into shares.
void CountHierarchy(PassRecord& record, const HierarchyStats& stats);

// The three workloads. Each runs its cells once, serially, appending cell
// digests, phase times and layer counts to `record`.
void KvsZipf(const CellOptions& options, Tracer& tracer, PassRecord& record);
void NfvChain(const CellOptions& options, Tracer& tracer, PassRecord& record);
void CoherenceRing(const CellOptions& options, Tracer& tracer, PassRecord& record);

}  // namespace perfbench

#endif  // CACHEDIRECTOR_PERFBENCH_HARNESS_H_
