#include "analysis/lint.h"

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <mutex>
#include <string_view>

#include "analysis/memplan_audit.h"
#include "analysis/pipeline_check.h"
#include "analysis/shape_infer.h"
#include "analysis/sharding.h"
#include "obs/run_log.h"
#include "obs/trace.h"

namespace slapo {
namespace analysis {

namespace {

std::atomic<int> g_enabled_override{-1}; // -1 = unset, else 0/1

struct EnvConfig
{
    bool enabled = true;
    std::string report_path;
};

const EnvConfig&
envConfig()
{
    static const EnvConfig resolved = [] {
        EnvConfig config;
        const char* env = std::getenv("SLAPO_LINT");
        if (env != nullptr) {
            const std::string_view v(env);
            if (v == "0" || v == "off" || v == "false") {
                config.enabled = false;
            } else if (!v.empty() && v != "1" && v != "on" &&
                       v != "true") {
                config.report_path = std::string(v);
            }
        }
        return config;
    }();
    return resolved;
}

} // namespace

bool
lintEnabled()
{
    const int forced = g_enabled_override.load(std::memory_order_relaxed);
    if (forced >= 0) {
        return forced != 0;
    }
    return envConfig().enabled;
}

void
setLintEnabled(bool enabled)
{
    g_enabled_override.store(enabled ? 1 : 0, std::memory_order_relaxed);
}

const std::string&
lintReportPath()
{
    return envConfig().report_path;
}

Diagnostics
lintModule(nn::Module& root, int world_size)
{
    Diagnostics diags;
    // Graph structure first: the later passes assume validated graphs
    // (topological order, single trailing output, shape counts).
    for (auto& [path, m] : root.namedModules()) {
        if (!m->meta().traced_graph) {
            continue;
        }
        try {
            m->meta().traced_graph->validate();
        } catch (const SlapoError& e) {
            diags.add("SLP001", Severity::Error,
                      std::string("graph validation failed: ") + e.what(),
                      path);
        }
    }
    inferShapes(root, diags);
    checkSharding(root, world_size, diags);
    checkPipeline(root, world_size, diags);
    auditMemPlans(root, diags);
    return diags;
}

Diagnostics
enforceLint(nn::Module& root, int world_size, const char* site)
{
    if (!lintEnabled()) {
        return Diagnostics{};
    }
    const auto start = std::chrono::steady_clock::now();
    Diagnostics diags = lintModule(root, world_size);
    const int64_t wall_ns = obs::nsSince(start);

    if (obs::RunLog* log = obs::runLog()) {
        obs::RunLogRecord record("lint");
        record.str("site", site)
            .num("world_size", static_cast<int64_t>(world_size))
            .num("errors", static_cast<int64_t>(diags.errorCount()))
            .num("warnings",
                 static_cast<int64_t>(diags.count(Severity::Warning)))
            .num("notes",
                 static_cast<int64_t>(diags.count(Severity::Note)))
            .num("wall_ns", wall_ns)
            .flag("passed", !diags.hasErrors());
        if (!diags.empty()) {
            record.raw("diagnostics", diags.diagnosticsJson());
        }
        log->write(record);
    }
    if (!lintReportPath().empty()) {
        // Serialize appends: gates can fire from concurrent trainers.
        static std::mutex report_mutex;
        std::lock_guard<std::mutex> lock(report_mutex);
        std::ofstream out(lintReportPath(), std::ios::app);
        if (out) {
            out << diags.toJson() << "\n";
        }
    }
    if (diags.hasErrors()) {
        throw StaticLintError(std::move(diags), site);
    }
    return diags;
}

} // namespace analysis
} // namespace slapo
