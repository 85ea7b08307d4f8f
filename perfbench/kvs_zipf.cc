// kvs_zipf — the Fig. 8 shape: one core serving an emulated KVS of 2^22
// 64 B values (256 MB), slice-aware vs normal placement, Zipf(0.99) vs
// uniform keys, 95% GETs with SETs in between.
//
// Chosen because it is the only KVS workload and the only single-core,
// L1/L2-hit-heavy scalar path, with a 256 MB slice gather inside the KVS
// constructor — a different use of the cache layer from coherence_ring, and
// the benchmark's only slice gather.
#include <memory>
#include <string>

#include "perfbench/harness.h"
#include "src/hash/presets.h"
#include "src/kvs/kvs.h"
#include "src/kvs/server.h"
#include "src/mem/hugepage.h"
#include "src/sim/machine.h"
#include "src/slice/placement.h"

namespace perfbench {
namespace {

using namespace cachedir;

constexpr std::size_t kNumValues = std::size_t{1} << 22;
constexpr double kGetFraction = 0.95;
constexpr std::uint64_t kWarmupRequests = 200000;
constexpr std::uint64_t kRequests = 500000;
constexpr CoreId kServingCore = 0;

void DigestResult(Digest& digest, const KvsResult& r) {
  digest.Add("requests", r.requests);
  digest.AddDouble("total_cycles", r.total_cycles);
  digest.AddDouble("tps_millions", r.tps_millions);
}

KvsResult RunCell(bool slice_aware, double theta, const CellOptions& options,
                  std::uint64_t cell_seed, Tracer& tracer, PassRecord& record,
                  const std::string& name) {
  PhaseClock phases(record);
  std::unique_ptr<MemoryHierarchy> hierarchy;
  HugepageAllocator backing;
  std::unique_ptr<EmulatedKvs> kvs;
  SliceId target = 0;
  phases.Setup([&] {
    tracer.Scoped("sim.hierarchy_build", [&] {
      hierarchy =
          std::make_unique<MemoryHierarchy>(HaswellXeonE52667V3(), HaswellSliceHash(), cell_seed);
    });
    // The KVS constructor allocates the value store and, slice-aware, gathers
    // every value line into the serving core's closest slice.
    tracer.Scoped("kvs.setup", [&] {
      target = SlicePlacement(*hierarchy).ClosestSlice(kServingCore);
      EmulatedKvs::Config config;
      config.num_values = kNumValues;
      config.slice_aware = slice_aware;
      config.target_slice = target;
      kvs = std::make_unique<EmulatedKvs>(*hierarchy, backing, config);
    });
  });
  record.layer["mem.bytes_allocated"] += static_cast<double>(backing.bytes_allocated());
  if (slice_aware) {
    // The gather is the only allocation of a slice-aware KVS; one 64 B value
    // is one line.
    record.layer["slice.lines_gathered"] += static_cast<double>(kNumValues);
    record.layer["count.gather_backing_bytes"] += static_cast<double>(backing.bytes_allocated());
  }

  KvsServer server(*kvs, kServingCore);
  KvsWorkload workload;
  workload.get_fraction = kGetFraction;
  workload.zipf_theta = theta;
  workload.requests = kWarmupRequests;
  workload.seed = cell_seed;
  MemoryHierarchy& h = *hierarchy;
  const HierarchyStats at_start = h.stats();
  const KvsResult warm = phases.Warmup(
      [&] { return tracer.Scoped("kvs.warmup", [&] { return server.Run(workload); }); });
  const HierarchyStats after_warmup = h.stats();
  const auto cbo_before = h.llc().cbo().Snapshot();

  workload.requests = kRequests;
  workload.seed = cell_seed + 1;
  const KvsResult measured = phases.Measured(
      [&] { return tracer.Scoped("kvs.run", [&] { return server.Run(workload); }); });
  const HierarchyStats at_end = h.stats();

  const std::uint64_t warm_lines = LineAccesses(StatsDelta(after_warmup, at_start));
  record.warmup_lines += warm_lines;
  record.measured_lines += LineAccesses(StatsDelta(at_end, after_warmup));
  record.layer["cache.warmup_lines"] += static_cast<double>(warm_lines);
  record.layer["kvs.requests"] += static_cast<double>(kRequests);
  CountHierarchy(record, StatsDelta(at_end, after_warmup));
  // One consumer core, so its closest slice's CBo lookups are its local ones.
  const auto lookups = CboCounterBank::LookupDelta(cbo_before, h.llc().cbo().Snapshot());
  double total = 0;
  for (const std::uint64_t n : lookups) {
    total += static_cast<double>(n);
  }
  record.layer["count.local_lookups"] += static_cast<double>(lookups[target]);
  record.layer["count.llc_core_lookups"] += total;

  Digest digest;
  DigestResult(digest, warm);
  DigestResult(digest, measured);
  digest.AddStats(at_end);
  digest.AddCbo(h.llc().cbo());
  FinishCell(record, name, digest, options);
  return measured;
}

}  // namespace

void KvsZipf(const CellOptions& options, Tracer& tracer, PassRecord& record) {
  double tps[2][2] = {};  // [zipf?][slice-aware?]
  int cell = 0;
  for (const bool zipf : {true, false}) {
    for (const bool slice_aware : {false, true}) {
      tracer.set_cell(cell++);
      const std::string name =
          std::string(zipf ? "zipf" : "uniform") + (slice_aware ? "-slice" : "-normal");
      // Both placements of one key distribution serve the same request stream.
      const std::uint64_t cell_seed = options.seed * 1000003 + (zipf ? 0 : 2);
      tps[zipf][slice_aware] =
          RunCell(slice_aware, zipf ? 0.99 : 0.0, options, cell_seed, tracer, record, name)
              .tps_millions;
    }
  }
  tracer.set_cell(-1);
  const double zipf_gain = tps[1][1] / tps[1][0] - 1.0;
  const double uniform_gain = tps[0][1] / tps[0][0] - 1.0;
  Digest headline;
  headline.AddDouble("zipf_tps_gain", zipf_gain);
  headline.AddDouble("uniform_tps_gain", uniform_gain);
  FinishCell(record, "headline", headline, options);
  record.layer["headline.zipf_slice_tps_gain"] = zipf_gain;
  record.layer["headline.uniform_slice_tps_gain"] = uniform_gain;
}

}  // namespace perfbench
