// nfv_chain — the Fig. 14 shape: the stateful Router -> NAPT -> LB chain
// (3120 routes) on 8 RSS queues, campus size mix offered at a simulated
// 100 Gbps, CacheDirector off and on, several seeded runs per arm.
//
// Chosen because it is the only workload that runs the traffic generator,
// the NIC/mempool path, the NFV runtime and the stats summaries, with NIC
// DMA writes interleaved with core reads. The CacheDirector-on arm takes the
// headroom / slice-LUT path; the off arm bypasses it.
#include <memory>
#include <string>
#include <vector>

#include "perfbench/harness.h"
#include "src/hash/presets.h"
#include "src/mem/hugepage.h"
#include "src/mem/physical_memory.h"
#include "src/netio/cache_director.h"
#include "src/netio/mempool.h"
#include "src/netio/nic.h"
#include "src/nfv/chain.h"
#include "src/nfv/elements.h"
#include "src/nfv/runtime.h"
#include "src/sim/machine.h"
#include "src/slice/placement.h"
#include "src/stats/significance.h"
#include "src/stats/summary.h"
#include "src/trace/latency_recorder.h"
#include "src/trace/traffic_gen.h"

namespace perfbench {
namespace {

using namespace cachedir;

constexpr std::size_t kRunsPerArm = 4;  // the rank test needs >= 4 per side
constexpr std::size_t kWarmupPackets = 4000;
constexpr std::size_t kMeasuredPackets = 20000;
constexpr std::size_t kMempoolMbufs = 8192;

// Everything one run builds; members are declared in dependency order so
// that they are destroyed in reverse.
struct Dut {
  std::unique_ptr<MemoryHierarchy> hierarchy;
  std::unique_ptr<SlicePlacement> placement;
  PhysicalMemory memory;
  HugepageAllocator backing;
  std::unique_ptr<CacheDirector> director;
  std::unique_ptr<Mempool> pool;
  std::unique_ptr<SimNic> nic;
  ServiceChain chain;
  std::unique_ptr<NfvRuntime> runtime;
};

PercentileRow RunCell(bool cache_director, const CellOptions& options, std::uint64_t cell_seed,
                      Tracer& tracer, PassRecord& record, const std::string& name) {
  PhaseClock phases(record);
  Dut dut;
  std::vector<WirePacket> warm(kWarmupPackets);
  std::vector<WirePacket> measured(kMeasuredPackets);
  phases.Setup([&] {
    const std::shared_ptr<const SliceHash> hash = HaswellSliceHash();
    tracer.Scoped("sim.hierarchy_build", [&] {
      dut.hierarchy = std::make_unique<MemoryHierarchy>(HaswellXeonE52667V3(), hash, cell_seed);
      dut.placement = std::make_unique<SlicePlacement>(*dut.hierarchy);
    });
    tracer.Scoped("netio.setup", [&] {
      dut.director = std::make_unique<CacheDirector>(hash, *dut.placement, cache_director);
      dut.pool = std::make_unique<Mempool>(dut.backing, kMempoolMbufs, *dut.director);
      SimNic::Config nic;
      nic.num_queues = 8;
      nic.steering = NicSteering::kRss;
      dut.nic =
          std::make_unique<SimNic>(nic, *dut.hierarchy, dut.memory, *dut.pool, *dut.director);
    });
    tracer.Scoped("nfv.chain_build", [&] {
      IpRouter::Params router;
      router.num_routes = 3120;
      router.seed = cell_seed;
      dut.chain.Append(
          std::make_unique<IpRouter>(*dut.hierarchy, dut.memory, dut.backing, router));
      dut.chain.Append(
          std::make_unique<Napt>(*dut.hierarchy, dut.memory, dut.backing, Napt::Params{}));
      dut.chain.Append(std::make_unique<LoadBalancer>(*dut.hierarchy, dut.memory, dut.backing,
                                                      LoadBalancer::Params{}));
      dut.runtime = std::make_unique<NfvRuntime>(NfvRuntime::Config{}, *dut.hierarchy, *dut.nic,
                                                 dut.chain);
    });
    tracer.Scoped("trace.generate", [&] {
      TrafficConfig traffic;
      traffic.size_mode = TrafficConfig::SizeMode::kCampusMix;
      traffic.rate_mode = TrafficConfig::RateMode::kGbps;
      traffic.rate_gbps = 100.0;
      traffic.seed = cell_seed;
      TrafficGenerator gen(traffic);
      gen.GenerateBlock(warm);
      gen.GenerateBlock(measured);
    });
  });
  record.layer["mem.bytes_allocated"] += static_cast<double>(dut.backing.bytes_allocated());
  record.layer["trace.packets"] += static_cast<double>(kWarmupPackets + kMeasuredPackets);

  MemoryHierarchy& h = *dut.hierarchy;
  const HierarchyStats at_start = h.stats();
  phases.Warmup([&] { tracer.Scoped("nfv.warmup", [&] { dut.runtime->Run(warm, nullptr); }); });
  const HierarchyStats after_warmup = h.stats();
  LatencyRecorder recorder;
  recorder.Reserve(kMeasuredPackets);
  phases.Measured(
      [&] { tracer.Scoped("nfv.run", [&] { dut.runtime->Run(measured, &recorder); }); });
  const HierarchyStats at_end = h.stats();
  const PercentileRow row = tracer.Scoped(
      "stats.summarize", [&] { return SummarizePercentiles(recorder.latencies_us()); });

  const std::uint64_t warm_lines = LineAccesses(StatsDelta(after_warmup, at_start));
  const std::uint64_t run_lines = LineAccesses(StatsDelta(at_end, after_warmup));
  record.warmup_lines += warm_lines;
  record.measured_lines += run_lines;
  record.layer["cache.warmup_lines"] += static_cast<double>(warm_lines);
  record.layer["nfv.packets"] += static_cast<double>(kWarmupPackets + kMeasuredPackets);
  record.layer["count.nfv_lines"] += static_cast<double>(warm_lines + run_lines);
  record.layer["count.nfv_drops"] += static_cast<double>(dut.runtime->packets_dropped());
  CountHierarchy(record, StatsDelta(at_end, after_warmup));

  Digest digest;
  digest.AddDouble("p75_us", row.p75);
  digest.AddDouble("p90_us", row.p90);
  digest.AddDouble("p95_us", row.p95);
  digest.AddDouble("p99_us", row.p99);
  digest.AddDouble("mean_us", row.mean);
  digest.AddDouble("throughput_gbps", recorder.ThroughputGbps());
  digest.Add("delivered", recorder.delivered());
  digest.Add("recorded_drops", recorder.drops());
  digest.Add("processed", dut.runtime->packets_processed());
  digest.Add("dropped", dut.runtime->packets_dropped());
  digest.AddDouble("completion_ns", dut.runtime->CompletionTimeNs());
  digest.AddStats(at_end);
  digest.AddCbo(h.llc().cbo());
  FinishCell(record, name, digest, options);
  return row;
}

}  // namespace

void NfvChain(const CellOptions& options, Tracer& tracer, PassRecord& record) {
  std::vector<double> p99[2];  // [cache director?], per run
  int cell = 0;
  for (std::size_t run = 0; run < kRunsPerArm; ++run) {
    // The two arms of one run replay the same trace on the same routes.
    const std::uint64_t cell_seed = options.seed * 1000003 + 7919 * run;
    for (const bool cd : {false, true}) {
      tracer.set_cell(cell++);
      const std::string name = std::string(cd ? "cd-" : "dpdk-") + std::to_string(run);
      p99[cd].push_back(RunCell(cd, options, cell_seed, tracer, record, name).p99);
    }
  }
  tracer.set_cell(-1);
  const auto [gain, mw] = tracer.Scoped("stats.summarize", [&] {
    const double dpdk = Samples(p99[0]).Median();
    const double with_cd = Samples(p99[1]).Median();
    return std::make_pair((dpdk - with_cd) / dpdk, MannWhitneyU(p99[1], p99[0]));
  });
  Digest headline;
  headline.AddDouble("p99_gain", gain);
  headline.AddDouble("mw_prob_cd_less", mw.prob_a_less);
  headline.AddDouble("mw_p_value", mw.p_value);
  FinishCell(record, "headline", headline, options);
  record.layer["headline.p99_gain_with_cd"] = gain;
  record.layer["headline.p99_mann_whitney_p"] = mw.p_value;
}

}  // namespace perfbench
