/**
 * @file
 * Process-wide schedule-provenance registry: which primitive was applied
 * to which module path, in which order (docs/OBSERVABILITY.md,
 * "Attribution & step reports").
 *
 * Graph-level primitives (.fuse(), .replace(subgraph), …) stamp the
 * nodes they create directly (graph::Provenance on graph::Node); but
 * most primitives — .shard(), .sync(), .checkpoint(), .pipeline_split(),
 * .decompose() — act on *module metadata* and leave the traced nodes
 * untouched. This registry records those decisions so the step-report
 * builder (obs/step_report.h) can attribute the compute executed under a
 * scheduled module to the primitive that reshaped it: a row whose node
 * carries no stamped provenance is attributed to the most recent
 * compute-affecting primitive on the longest dotted-prefix match of its
 * module path, or to "baseline" when no primitive touched the subtree.
 *
 * The registry sits in obs (the bottom of the dependency stack) so both
 * core/schedule.cc (the writer) and obs/step_report.cc (the reader) can
 * reach it. Writes happen at scheduling time, never on the training hot
 * path; reads happen at report-build time — a mutex is fine.
 */
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace slapo {
namespace obs {

/** One recorded schedule decision. */
struct ProvenanceRecord
{
    std::string primitive;   ///< "shard", "sync", "fuse", …
    std::string module_path; ///< dotted schedule path ("" = root)
    int64_t apply_seq = -1;  ///< monotonic application order
};

/**
 * Record one primitive application; returns its apply_seq. Called by
 * every schedule primitive (auto-shard and pipeline lowering go through
 * the same primitives, so they are covered for free).
 */
int64_t recordPrimitive(const std::string& primitive,
                        const std::string& module_path);

/**
 * The compute-affecting primitive responsible for work executed under
 * `module_path`: the most recent record on the longest dotted-prefix
 * match. Records of "sync" and "trace" are skipped — sync time is
 * attributed explicitly at the collective call site, and tracing does
 * not change what runs. Returns nullptr when nothing matches (baseline).
 * The pointer stays valid until clearProvenance().
 */
const ProvenanceRecord* lookupProvenance(const std::string& module_path);

/** The primitive a row or allocation is attributed to: its node stamp
 * when non-empty, else lookupProvenance(module_path), else "baseline". */
std::string resolvePrimitive(const std::string& stamped,
                             const std::string& module_path);

/** All records in application order (for dumps and tests). */
std::vector<ProvenanceRecord> provenanceRecords();

/** Number of primitives recorded so far. */
int64_t provenanceCount();

/** Drop all records and reset apply_seq (tests / fresh schedules). */
void clearProvenance();

} // namespace obs
} // namespace slapo
