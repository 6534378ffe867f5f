#include "obs/step_report.h"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <map>
#include <mutex>

#include "obs/json_util.h"
#include "obs/mem_profiler.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/provenance.h"
#include "obs/trace.h"
#include "support/error.h"

namespace slapo {
namespace obs {

namespace {

/** Primitives whose rows count as communication, not compute. */
bool
isCommPrimitive(const std::string& primitive)
{
    return primitive == "sync" || primitive == "data_parallel";
}

int64_t
windowValue(const std::vector<std::pair<std::string, int64_t>>& window,
            const char* name)
{
    for (const auto& [key, value] : window) {
        if (key == name) {
            return value;
        }
    }
    return 0;
}

std::string
attributedOpJson(const AttributedOp& op)
{
    std::string out = "{\"op\":" + json::quoted(op.op) +
                      ",\"module\":" + json::quoted(op.module_path) +
                      ",\"primitive\":" + json::quoted(op.primitive) +
                      ",\"count\":" + json::number(op.count) +
                      ",\"total_ns\":" + json::number(op.total_ns) +
                      ",\"mean_ns\":" + json::number(op.mean_ns) +
                      ",\"p99_ns\":" + json::number(op.p99_ns) + "}";
    return out;
}

std::string
deltaJson(const ReportDelta& d)
{
    std::string out = "{\"key\":" + json::quoted(d.key) +
                      ",\"before_ns\":" + json::number(d.before_ns) +
                      ",\"after_ns\":" + json::number(d.after_ns) +
                      ",\"pct\":" + json::number(d.pct) +
                      ",\"regression\":" +
                      (d.regression ? "true" : "false") + "}";
    return out;
}

} // namespace

double
StepReport::attributedFraction() const
{
    if (wall_ns <= 0) {
        return 0;
    }
    int64_t attributed = 0;
    for (const PrimitiveTotal& p : primitives) {
        attributed += p.total_ns;
    }
    return static_cast<double>(attributed) / static_cast<double>(wall_ns);
}

std::string
StepReport::primitivesJson() const
{
    std::string out = "[";
    bool first = true;
    for (const PrimitiveTotal& p : primitives) {
        if (!first) out += ",";
        first = false;
        out += "{\"primitive\":" + json::quoted(p.primitive) +
               ",\"total_ns\":" + json::number(p.total_ns) +
               ",\"count\":" + json::number(p.count) + "}";
    }
    out += "]";
    return out;
}

std::string
StepReport::toJson() const
{
    // Version 2: adds the "memory" section (live/peak/retained bytes +
    // per-category breakdown at the step's peak).
    std::string out = "{\"kind\":\"step_report\",\"schema_version\":2";
    out += ",\"step\":" + json::number(step);
    out += ",\"world_size\":" + json::number(static_cast<int64_t>(world_size));
    out += ",\"wall_ns\":" + json::number(wall_ns);
    out += ",\"compute_ns\":" + json::number(compute_ns);
    out += ",\"comm_ns\":" + json::number(comm_ns);
    out += ",\"pipeline_bubble_ns\":" + json::number(pipeline_bubble_ns);
    out += ",\"other_ns\":" + json::number(other_ns);
    out += ",\"pg_wait_ns\":" + json::number(pg_wait_ns);
    out += ",\"attributed_fraction\":" + json::number(attributedFraction());
    out += ",\"alloc\":{\"pool_hits\":" + json::number(alloc_pool_hits) +
           ",\"pool_misses\":" + json::number(alloc_pool_misses) +
           ",\"reuse_bytes\":" + json::number(alloc_reuse_bytes) + "}";
    out += ",\"memory\":{\"peak_bytes\":" + json::number(mem_peak_bytes) +
           ",\"live_bytes\":" + json::number(mem_live_bytes) +
           ",\"retained_bytes\":" + json::number(mem_retained_bytes) +
           ",\"at_peak\":{";
    {
        bool first_cat = true;
        for (const auto& [name, bytes] : mem_category_bytes) {
            if (!first_cat) out += ",";
            first_cat = false;
            out += json::quoted(name) + ":" + json::number(bytes);
        }
    }
    out += "}}";
    out += ",\"primitives\":" + primitivesJson();
    out += ",\"modules\":[";
    bool first = true;
    for (const ModuleTotal& m : modules) {
        if (!first) out += ",";
        first = false;
        out += "{\"module\":" + json::quoted(m.module_path) +
               ",\"primitive\":" + json::quoted(m.primitive) +
               ",\"total_ns\":" + json::number(m.total_ns) + "}";
    }
    out += "],\"ops\":[";
    first = true;
    for (const AttributedOp& op : ops) {
        if (!first) out += ",";
        first = false;
        out += attributedOpJson(op);
    }
    out += "]";
    if (!per_rank_json.empty()) {
        out += ",\"per_rank\":" + per_rank_json;
    }
    out += "}";
    return out;
}

StepReport
buildStepReport(const OpProfiler& profiler,
                const std::vector<std::pair<std::string, int64_t>>& window,
                int64_t wall_ns, int world_size, int64_t step)
{
    StepReport report;
    report.step = step;
    report.world_size = world_size < 1 ? 1 : world_size;
    report.wall_ns = wall_ns;

    int64_t compute_total = 0; // raw (summed over ranks)
    int64_t comm_total = 0;
    std::map<std::string, PrimitiveTotal> by_primitive;
    std::map<std::string, ModuleTotal> by_module;

    for (const OpStats& row : profiler.report()) {
        AttributedOp op;
        op.op = row.op;
        op.module_path = row.module_path;
        op.count = row.count;
        op.total_ns = row.total_ns;
        op.mean_ns = row.mean_ns;
        op.p99_ns = row.p99_ns;
        op.primitive = resolvePrimitive(row.primitive, row.module_path);

        (isCommPrimitive(op.primitive) ? comm_total : compute_total) +=
            op.total_ns;

        PrimitiveTotal& pt = by_primitive[op.primitive];
        pt.primitive = op.primitive;
        pt.total_ns += op.total_ns;
        pt.count += op.count;

        ModuleTotal& mt = by_module[op.module_path];
        mt.module_path = op.module_path;
        mt.total_ns += op.total_ns;
        // The module rollup shows the primitive claiming the module's
        // non-baseline work (ties broken toward the scheduled one).
        if (mt.primitive.empty() || mt.primitive == "baseline") {
            mt.primitive = op.primitive;
        }

        report.ops.push_back(std::move(op));
    }

    const int64_t world = report.world_size;
    report.compute_ns = compute_total / world;
    report.comm_ns = comm_total / world;
    report.pg_wait_ns = windowValue(window, "pg.wait_ns") / world;
    report.pipeline_bubble_ns =
        windowValue(window, "pipeline.queue_wait_ns") / world;
    const int64_t accounted =
        report.compute_ns + report.comm_ns + report.pipeline_bubble_ns;
    report.other_ns = wall_ns > accounted ? wall_ns - accounted : 0;

    report.alloc_pool_hits = windowValue(window, "alloc.pool_hits");
    report.alloc_pool_misses = windowValue(window, "alloc.pool_misses");
    report.alloc_reuse_bytes = windowValue(window, "alloc.reuse_bytes");

    for (auto& [key, pt] : by_primitive) {
        pt.total_ns /= world; // per-rank mean, commensurable with wall
        report.primitives.push_back(std::move(pt));
    }
    for (auto& [key, mt] : by_module) {
        mt.total_ns /= world;
        report.modules.push_back(std::move(mt));
    }
    auto by_total_desc = [](const auto& a, const auto& b) {
        return a.total_ns > b.total_ns;
    };
    std::stable_sort(report.primitives.begin(), report.primitives.end(),
                     by_total_desc);
    std::stable_sort(report.modules.begin(), report.modules.end(),
                     by_total_desc);
    std::stable_sort(report.ops.begin(), report.ops.end(), by_total_desc);
    return report;
}

// --- builder -------------------------------------------------------------

struct StepReportBuilder::Impl
{
    int world_size;
    OpProfiler profiler;
    MetricsDelta window;
    MemWindow mem_window; ///< inert unless memProfilingEnabled()
    std::chrono::steady_clock::time_point start;
    OpProfilerGuard guard;
    bool finished = false;

    explicit Impl(int world)
        : world_size(world), start(std::chrono::steady_clock::now()),
          guard(&profiler)
    {
    }
};

StepReportBuilder::StepReportBuilder(int world_size)
    : impl_(new Impl(world_size))
{
}

StepReportBuilder::~StepReportBuilder()
{
    delete impl_;
}

StepReport
StepReportBuilder::finish(int64_t step)
{
    SLAPO_ASSERT(!impl_->finished, "StepReportBuilder::finish called twice");
    impl_->finished = true;
    const int64_t wall_ns = nsSince(impl_->start);
    StepReport report = buildStepReport(impl_->profiler,
                                        impl_->window.values(), wall_ns,
                                        impl_->world_size, step);
    if (impl_->mem_window.active()) {
        report.mem_peak_bytes = impl_->mem_window.peakBytes();
        report.mem_live_bytes = memLiveBytes();
        report.mem_retained_bytes = metrics().alloc_pooled_bytes.get();
        for (int c = 0; c < kNumMemCategories; ++c) {
            const MemCategory cat = static_cast<MemCategory>(c);
            report.mem_category_bytes.emplace_back(
                memCategoryName(cat),
                impl_->mem_window.categoryPeakBytes(cat));
        }
    }
    return report;
}

// --- enablement ----------------------------------------------------------

bool
stepReportsEnabled()
{
    return (instruments() & kStepReport) != 0;
}

void
setStepReportsEnabled(bool on)
{
    (void)instruments(); // settle the env state first so it cannot overwrite us
    detail::setInstruments(kStepReport, on);
}

void
maybeWriteStepReport(const StepReport& report)
{
    static std::mutex mutex;
    static std::ofstream* file = nullptr;
    std::lock_guard<std::mutex> lock(mutex);
    if (file == nullptr) {
        const std::string path = detail::stepReportPath();
        if (path.empty()) {
            return;
        }
        file = new std::ofstream(path, std::ios::trunc);
    }
    if (file->good()) {
        *file << report.toJson() << "\n";
        file->flush(); // a crashed run keeps every completed step
    }
}

// --- diff + regression gate ---------------------------------------------

namespace {

void
diffKeyed(const std::map<std::string, int64_t>& before,
          const std::map<std::string, int64_t>& after,
          const DiffOptions& options, std::vector<ReportDelta>& out,
          std::vector<ReportDelta>& regressions)
{
    std::map<std::string, std::pair<int64_t, int64_t>> merged;
    for (const auto& [key, ns] : before) {
        merged[key].first = ns;
    }
    for (const auto& [key, ns] : after) {
        merged[key].second = ns;
    }
    for (const auto& [key, pair] : merged) {
        ReportDelta d;
        d.key = key;
        d.before_ns = pair.first;
        d.after_ns = pair.second;
        d.pct = d.before_ns > 0
                    ? 100.0 *
                          static_cast<double>(d.after_ns - d.before_ns) /
                          static_cast<double>(d.before_ns)
                    : (d.after_ns > 0 ? 100.0 : 0.0);
        // Regression: a relative slowdown above the threshold on a row
        // big enough to be signal — or brand-new work above the floor.
        const int64_t base = std::max(d.before_ns, options.min_ns);
        d.regression =
            d.after_ns - d.before_ns >
            static_cast<int64_t>(static_cast<double>(base) *
                                 options.threshold_pct / 100.0) &&
            d.after_ns >= options.min_ns;
        out.push_back(d);
        if (d.regression) {
            regressions.push_back(d);
        }
    }
}

} // namespace

std::string
ReportDiff::toJson() const
{
    std::string out = "{\"kind\":\"report_diff\",\"schema_version\":1";
    out += ",\"wall_pct\":" + json::number(wall_pct);
    out += ",\"regressions\":[";
    bool first = true;
    for (const ReportDelta& d : regressions) {
        if (!first) out += ",";
        first = false;
        out += deltaJson(d);
    }
    out += "],\"primitives\":[";
    first = true;
    for (const ReportDelta& d : primitives) {
        if (!first) out += ",";
        first = false;
        out += deltaJson(d);
    }
    out += "],\"ops\":[";
    first = true;
    for (const ReportDelta& d : ops) {
        if (!first) out += ",";
        first = false;
        out += deltaJson(d);
    }
    out += "]}";
    return out;
}

ReportDiff
diffReports(const StepReport& before, const StepReport& after,
            DiffOptions options)
{
    ReportDiff diff;
    diff.wall_pct =
        before.wall_ns > 0
            ? 100.0 * static_cast<double>(after.wall_ns - before.wall_ns) /
                  static_cast<double>(before.wall_ns)
            : 0.0;

    std::map<std::string, int64_t> prim_before, prim_after;
    for (const PrimitiveTotal& p : before.primitives) {
        prim_before["primitive:" + p.primitive] += p.total_ns;
    }
    for (const PrimitiveTotal& p : after.primitives) {
        prim_after["primitive:" + p.primitive] += p.total_ns;
    }
    diffKeyed(prim_before, prim_after, options, diff.primitives,
              diff.regressions);

    std::map<std::string, int64_t> ops_before, ops_after;
    for (const AttributedOp& op : before.ops) {
        ops_before["op:" + op.op + "@" + op.module_path] += op.total_ns;
    }
    for (const AttributedOp& op : after.ops) {
        ops_after["op:" + op.op + "@" + op.module_path] += op.total_ns;
    }
    diffKeyed(ops_before, ops_after, options, diff.ops, diff.regressions);
    return diff;
}

} // namespace obs
} // namespace slapo
