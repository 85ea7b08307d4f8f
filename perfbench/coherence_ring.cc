// coherence_ring — the simulator-throughput shape, lengthened: the NIC
// DMA-writes MTU-sized packets into a DDIO ring larger than the DDIO ways,
// 8 cores read each packet's header a few packets later, and every ninth
// packet bumps a shared flow counter (upgrades / RFOs between cores; nine is
// coprime to the core count, so the updating core rotates).
//
// Chosen because nearly all of its host time is in the cache layer —
// back-invalidation, DDIO eviction, the coherence directory, upgrades — and
// it touches no slice, KVS, NIC or NFV code: the workload where hierarchy
// changes show and slice-allocation changes must not.
#include <array>
#include <memory>

#include "perfbench/harness.h"
#include "src/hash/presets.h"
#include "src/mem/hugepage.h"
#include "src/sim/machine.h"
#include "src/sim/rng.h"

namespace perfbench {
namespace {

using namespace cachedir;

constexpr std::size_t kCores = 8;
constexpr std::size_t kPacketBytes = 1536;     // 24 lines per packet
constexpr std::size_t kRingBytes = 24u << 20;  // >> DDIO capacity (2 of 20 ways)
constexpr std::size_t kRingPackets = kRingBytes / kPacketBytes;
constexpr std::size_t kCounterLines = 64;
constexpr std::size_t kPipelineDelay = 8;  // packets in flight before a core reads
// Two laps of the ring fill the DDIO ways and the core caches before
// statistics count.
constexpr std::size_t kWarmupPackets = 2 * kRingPackets;
constexpr std::size_t kCounterEvery = 9;
constexpr std::size_t kMeasuredPackets = 1000000;

struct RingState {
  MemoryHierarchy& h;
  PhysAddr ring;
  PhysAddr counters;
  Rng rng;
  std::array<SliceId, kCores> closest{};
  Cycles dma_cycles = 0;
  Cycles core_cycles = 0;
  std::uint64_t llc_lookups = 0;
  std::uint64_t local_lookups = 0;
};

// Packets [first, last) of the ring loop; DMA and core calls are traced
// under the given span names.
void RunPackets(RingState& st, std::size_t first, std::size_t last, Tracer& tracer,
                const char* dma_span, const char* core_span_name) {
  Tracer::Aggregate dma(tracer, dma_span);
  Tracer::Aggregate core_span(tracer, core_span_name);
  for (std::size_t it = first; it < last; ++it) {
    const PhysAddr packet = st.ring + (it % kRingPackets) * kPacketBytes;
    st.dma_cycles += dma.Time([&] { return st.h.DmaWriteRange(packet, kPacketBytes); });
    if (it < kPipelineDelay) {
      continue;
    }
    const CoreId core = static_cast<CoreId>(it % kCores);
    const PhysAddr header = st.ring + ((it - kPipelineDelay) % kRingPackets) * kPacketBytes;
    const AccessResult read = core_span.Time([&] { return st.h.Read(core, header); });
    st.core_cycles += read.cycles;
    if (read.level != ServedBy::kL1 && read.level != ServedBy::kL2) {
      ++st.llc_lookups;
      st.local_lookups += read.slice == st.closest[core] ? 1 : 0;
    }
    if (it % kCounterEvery == 0) {
      const PhysAddr counter = st.counters + st.rng.UniformIndex(kCounterLines) * kCacheLineSize;
      st.core_cycles += core_span.Time([&] { return st.h.Write(core, counter); }).cycles;
    }
  }
}

}  // namespace

void CoherenceRing(const CellOptions& options, Tracer& tracer, PassRecord& record) {
  tracer.set_cell(0);
  PhaseClock phases(record);
  std::unique_ptr<MemoryHierarchy> hierarchy;
  HugepageAllocator backing;
  Mapping ring;
  Mapping counters;
  phases.Setup([&] {
    tracer.Scoped("sim.hierarchy_build", [&] {
      hierarchy = std::make_unique<MemoryHierarchy>(HaswellXeonE52667V3(), HaswellSliceHash(),
                                                    options.seed);
    });
    tracer.Scoped("mem.alloc", [&] {
      ring = backing.Allocate(kRingBytes, PageSize::k1G);
      counters = backing.Allocate(kCounterLines * kCacheLineSize, PageSize::k1G);
    });
  });
  record.layer["mem.bytes_allocated"] += static_cast<double>(backing.bytes_allocated());

  MemoryHierarchy& h = *hierarchy;
  RingState st{h, ring.pa, counters.pa, Rng(options.seed), {}};
  // Closest slices from the NUCA penalties directly, keeping this workload
  // free of slice-module code.
  for (CoreId core = 0; core < kCores; ++core) {
    for (SliceId s = 1; s < h.spec().num_slices; ++s) {
      if (h.SlicePenalty(core, s) < h.SlicePenalty(core, st.closest[core])) {
        st.closest[core] = s;
      }
    }
  }
  const HierarchyStats at_start = h.stats();
  phases.Warmup(
      [&] { RunPackets(st, 0, kWarmupPackets, tracer, "cache.warmup", "cache.warmup"); });
  const HierarchyStats after_warmup = h.stats();
  st.llc_lookups = 0;
  st.local_lookups = 0;
  phases.Measured(
      [&] {
        RunPackets(st, kWarmupPackets, kWarmupPackets + kMeasuredPackets, tracer, "cache.dma",
                   "cache.core");
      });
  const HierarchyStats at_end = h.stats();

  const HierarchyStats run = StatsDelta(at_end, after_warmup);
  const std::uint64_t warm_lines = LineAccesses(StatsDelta(after_warmup, at_start));
  record.warmup_lines += warm_lines;
  record.measured_lines += LineAccesses(run);
  record.layer["cache.warmup_lines"] += static_cast<double>(warm_lines);
  record.layer["cache.core_lines"] += static_cast<double>(run.l1_hits + run.l1_misses);
  record.layer["cache.dma_lines"] +=
      static_cast<double>(run.dma_line_writes + run.dma_line_reads);
  record.layer["count.local_lookups"] += static_cast<double>(st.local_lookups);
  record.layer["count.llc_core_lookups"] += static_cast<double>(st.llc_lookups);
  CountHierarchy(record, run);

  Digest digest;
  digest.Add("dma_cycles", st.dma_cycles);
  digest.Add("core_cycles", st.core_cycles);
  digest.AddStats(at_end);
  digest.AddCbo(h.llc().cbo());
  FinishCell(record, "ring", digest, options);

  tracer.set_cell(-1);
  const double cycles_per_packet =
      static_cast<double>(st.dma_cycles + st.core_cycles) /
      static_cast<double>(kWarmupPackets + kMeasuredPackets);
  Digest headline;
  headline.AddDouble("cycles_per_packet", cycles_per_packet);
  FinishCell(record, "headline", headline, options);
  record.layer["headline.cycles_per_packet"] = cycles_per_packet;
}

}  // namespace perfbench
