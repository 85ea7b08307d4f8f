#include "perfbench/harness.h"

#include <cinttypes>
#include <cstdio>

namespace perfbench {

std::map<std::string, double> Tracer::SelfSecondsByName() const {
  std::vector<std::int64_t> child_busy(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_busy[static_cast<std::size_t>(s.parent)] += s.busy_ns;
    }
  }
  std::map<std::string, double> self;
  for (const Span& s : spans_) {
    self[s.name] +=
        static_cast<double>(s.busy_ns - child_busy[static_cast<std::size_t>(s.id)]) * 1e-9;
  }
  return self;
}

double Tracer::TopLevelSeconds() const {
  std::int64_t busy = 0;
  for (const Span& s : spans_) {
    if (s.parent < 0) {
      busy += s.busy_ns;
    }
  }
  return static_cast<double>(busy) * 1e-9;
}

void Digest::AddStats(const HierarchyStats& s) {
  Add("l1_hits", s.l1_hits);
  Add("l1_misses", s.l1_misses);
  Add("l2_hits", s.l2_hits);
  Add("l2_misses", s.l2_misses);
  Add("llc_hits", s.llc_hits);
  Add("llc_misses", s.llc_misses);
  Add("dirty_writebacks", s.dirty_writebacks);
  Add("dma_line_writes", s.dma_line_writes);
  Add("dma_line_reads", s.dma_line_reads);
  Add("prefetches_issued", s.prefetches_issued);
  Add("prefetch_hits", s.prefetch_hits);
  Add("remote_forwards", s.remote_forwards);
  Add("invalidations_sent", s.invalidations_sent);
  Add("upgrades", s.upgrades);
}

void Digest::AddCbo(const cachedir::CboCounterBank& cbo) {
  for (std::size_t s = 0; s < cbo.num_slices(); ++s) {
    const cachedir::CboEvents& e = cbo.events(static_cast<cachedir::SliceId>(s));
    Add("cbo.lookups", e.lookups);
    Add("cbo.misses", e.misses);
  }
}

std::uint64_t Digest::Hash(std::size_t perturb) const {
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto mix = [&h](std::uint64_t byte) {
    h ^= byte;
    h *= 0x100000001b3ull;
  };
  for (std::size_t i = 0; i < fields_.size(); ++i) {
    for (const char c : fields_[i].first) {
      mix(static_cast<unsigned char>(c));
    }
    const std::uint64_t value = fields_[i].second ^ (i == perturb ? 1u : 0u);
    for (int b = 0; b < 8; ++b) {
      mix((value >> (8 * b)) & 0xff);
    }
  }
  return h;
}

HierarchyStats StatsDelta(const HierarchyStats& after, const HierarchyStats& before) {
  HierarchyStats d = after;
  d.l1_hits -= before.l1_hits;
  d.l1_misses -= before.l1_misses;
  d.l2_hits -= before.l2_hits;
  d.l2_misses -= before.l2_misses;
  d.llc_hits -= before.llc_hits;
  d.llc_misses -= before.llc_misses;
  d.dirty_writebacks -= before.dirty_writebacks;
  d.dma_line_writes -= before.dma_line_writes;
  d.dma_line_reads -= before.dma_line_reads;
  d.prefetches_issued -= before.prefetches_issued;
  d.prefetch_hits -= before.prefetch_hits;
  d.remote_forwards -= before.remote_forwards;
  d.invalidations_sent -= before.invalidations_sent;
  d.upgrades -= before.upgrades;
  return d;
}

void FinishCell(PassRecord& record, const std::string& name, const Digest& digest,
                const CellOptions& options) {
  CellResult cell;
  cell.name = name;
  cell.fields = digest.size();
  const std::uint64_t clean = digest.Hash();
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016" PRIx64, digest.Hash(options.perturb));
  cell.digest = hex;
  if (options.check_fields) {
    for (std::size_t i = 0; i < digest.size(); ++i) {
      if (digest.Hash(i) == clean) {
        ++cell.insensitive_fields;
      }
    }
  }
  record.cells.push_back(std::move(cell));
}

void CountHierarchy(PassRecord& record, const HierarchyStats& stats) {
  record.layer["count.l1_hits"] += static_cast<double>(stats.l1_hits);
  record.layer["count.l1_lookups"] += static_cast<double>(stats.l1_hits + stats.l1_misses);
  record.layer["count.llc_misses"] += static_cast<double>(stats.llc_misses);
  record.layer["count.llc_lookups"] += static_cast<double>(stats.llc_hits + stats.llc_misses);
  record.layer["cache.invalidations"] += static_cast<double>(stats.invalidations_sent);
  record.layer["cache.remote_forwards"] += static_cast<double>(stats.remote_forwards);
}

}  // namespace perfbench
