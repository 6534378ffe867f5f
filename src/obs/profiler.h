/**
 * @file
 * Per-op aggregate profiler: count / total / mean / p99 wall time per
 * (node op, module path) pair across every executed graph node
 * (docs/OBSERVABILITY.md), and the one instrumentation hook that feeds
 * it, the trace and the memory profiler (RowTimer).
 *
 * Where obs/trace.h answers "what did this step's timeline look like",
 * the OpProfiler answers "where does the time go in aggregate" — the
 * per-primitive attribution the paper's evaluation breaks speedups down
 * by (Figs. 7-11). The graph interpreter, the autograd engine and the
 * runtime phases time their work with RowTimer, which folds every row
 * into every installed profiler: installing one never hides another (a
 * user profiler, SLAPO_OP_PROFILE's and each step report's all see the
 * same rows). With every instrument off a row costs one relaxed atomic
 * load (obs/instruments.h).
 *
 * Aggregation keeps exact count and total; p99 comes from a fixed
 * 256-bucket log-scale histogram (4 sub-buckets per octave, <= 19%
 * relative error), so memory stays bounded no matter how many steps are
 * profiled.
 *
 * Usage:
 *   obs::OpProfiler profiler;
 *   { obs::OpProfilerGuard guard(&profiler); trainer.step(...); }
 *   std::cout << profiler.table();
 *
 * Or from the environment: SLAPO_OP_PROFILE=1 installs a process-wide
 * profiler and prints the table to stderr at exit (SLAPO_OP_PROFILE can
 * also name a JSON output file).
 */
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/instruments.h"

namespace slapo {
namespace obs {

/** Aggregated timing of one (op, module path, primitive) triple. */
struct OpStats
{
    std::string op;          ///< op kind / module type ("LinearOp", ...)
    std::string module_path; ///< dotted owner path ("" = root)
    std::string primitive;   ///< schedule primitive stamped on the node
                             ///< ("" = not stamped; see obs/provenance.h)
    int64_t count = 0;
    int64_t total_ns = 0;
    double mean_ns = 0;
    int64_t p99_ns = 0; ///< histogram-bucket upper bound
};

/** Thread-safe aggregate profiler; install with OpProfilerGuard. */
class OpProfiler
{
  public:
    OpProfiler();
    ~OpProfiler();
    OpProfiler(const OpProfiler&) = delete;
    OpProfiler& operator=(const OpProfiler&) = delete;

    /** Fold one execution of `op` (under `module_path`) into the stats. */
    void record(const std::string& op, const std::string& module_path,
                int64_t duration_ns);

    /**
     * Same, tagged with the schedule primitive responsible for the node
     * (graph::Node::provenance().primitive, or "sync" for the collective
     * boundaries the autograd engine applies). Rows recorded via the
     * untagged overload carry primitive "".
     */
    void record(const std::string& op, const std::string& module_path,
                const std::string& primitive, int64_t duration_ns);

    /** Aggregates, sorted by total time descending. */
    std::vector<OpStats> report() const;

    /** Human-readable fixed-width table of report(). */
    std::string table() const;

    /** report() as a JSON array. */
    std::string toJson() const;

    void clear();

    /** The most recently installed profiler, or nullptr when none is. */
    static OpProfiler* current();

    /**
     * Total duration_ns of the rows this thread has recorded through
     * recordRow(), each counted once however many profilers it reached —
     * a monotone thread-local counter. Snapshotting it around a region
     * gives "attributed time inside the region", from which
     * RowTimer::kRemainder computes `engine.overhead` and `executor.body`.
     */
    static int64_t threadRecordedNs();

  private:
    struct Impl;
    Impl* impl_;
};

/**
 * RAII process-wide subscription of an OpProfiler: pushes it onto the
 * list of installed profilers (every row reaches all of them) and
 * removes it again on destruction.
 */
class OpProfilerGuard
{
  public:
    explicit OpProfilerGuard(OpProfiler* profiler);
    ~OpProfilerGuard();
    OpProfilerGuard(const OpProfilerGuard&) = delete;
    OpProfilerGuard& operator=(const OpProfilerGuard&) = delete;

  private:
    OpProfiler* profiler_;
};

/** Fold one row into every installed profiler; counts toward
 * threadRecordedNs() once. */
void recordRow(const std::string& op, const std::string& module_path,
               const std::string& primitive, int64_t duration_ns);

/**
 * The one RAII row timer of the executors. Opens the row's trace span,
 * on close folds the elapsed time into every installed profiler under
 * the thread's module path, and for a graph node tags the memory
 * profiler so tensors its kernel allocates attribute to it. With every
 * instrument off, construction is one relaxed load and destruction one
 * branch.
 */
class RowTimer
{
  public:
    /** Runtime-phase rows (no span: the phase has its own). */
    enum Phase
    {
        kRow,       ///< the phase's wall time
        kRemainder, ///< its wall time minus the rows this thread recorded
                    ///< meanwhile, recorded only when positive
    };

    /** Graph node `node` as row `op` + `suffix` ("" forward, ".bwd"
     * backward). NodeT is graph::Node: a template keeps obs/ below graph/. */
    template <typename NodeT>
    RowTimer(const char* op, const NodeT& node, const char* suffix = "")
    {
        const uint32_t on = instruments();
        if ((on & kNodeInstruments) != 0) {
            begin(on, op, suffix, node.provenance().primitive, node.id(),
                  &node.name());
        }
    }

    /** A traced row with no graph node (the .sync() boundaries). */
    RowTimer(const char* op, const char* suffix, const std::string& primitive)
    {
        const uint32_t on = instruments();
        if ((on & (kTrace | kOpProfile)) != 0) {
            begin(on, op, suffix, primitive, -1, nullptr);
        }
    }

    /** A runtime-phase row recorded under the fixed `module_path`. */
    RowTimer(Phase phase, const char* op, const char* primitive,
             std::string module_path = std::string());

    ~RowTimer()
    {
        if (state_ != nullptr) {
            end();
        }
    }

    RowTimer(const RowTimer&) = delete;
    RowTimer& operator=(const RowTimer&) = delete;

    /** Nanoseconds a phase row has been timing, or -1 when it is not. */
    int64_t elapsedNs() const;

  private:
    struct State;

    void begin(uint32_t on, const char* op, const char* suffix,
               const std::string& primitive, int64_t node_id,
               const std::string* node_name);
    void end();

    State* state_ = nullptr; ///< owned; set only while instrumented
};

/**
 * Thread-local dotted module-path scope shared by the interpreter and
 * the autograd engine: a CallModule pushes its target name so the ops
 * it executes are attributed to the right submodule. Free when no
 * instrument that reads the path (trace, profiler, memory profiler) is
 * on: the constructor returns after one relaxed load.
 */
class ModuleScope
{
  public:
    explicit ModuleScope(const std::string& name);
    ~ModuleScope();
    ModuleScope(const ModuleScope&) = delete;
    ModuleScope& operator=(const ModuleScope&) = delete;

    /** Current dotted path of the calling thread ("" at the root). */
    static const std::string& currentPath();

    /** True when path bookkeeping is worth doing (profiler, trace, or
     * memory profiler on). */
    static bool active();

  private:
    size_t restore_len_; ///< path length to truncate back to
};

} // namespace obs
} // namespace slapo
