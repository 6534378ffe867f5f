#include "obs/instruments.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>

#include "obs/mem_profiler.h"
#include "obs/profiler.h"
#include "obs/step_report.h"
#include "obs/trace.h"

extern char** environ;

namespace slapo {
namespace obs {

namespace {

/** Every SLAPO_* variable read at runtime: the 16 knobs of the table in
 * docs/OBSERVABILITY.md, then bench/check_regression.sh's two. */
constexpr const char* kKnobs[] = {
    "SLAPO_TRACE",       "SLAPO_OP_PROFILE",     "SLAPO_STEP_REPORT",
    "SLAPO_MEM_PROFILE", "SLAPO_MEM_BUDGET",     "SLAPO_MEM_BUDGET_ACTION",
    "SLAPO_MEM_DUMP",    "SLAPO_RUN_LOG",        "SLAPO_WATCHDOG_MS",
    "SLAPO_FLIGHT_DUMP", "SLAPO_FAILPOINTS",     "SLAPO_NUM_THREADS",
    "SLAPO_ALLOC",       "SLAPO_MEMPLAN",        "SLAPO_BUCKET_BYTES",
    "SLAPO_LINT",        "SLAPO_REGRESSION_PCT", "SLAPO_REGRESSION_MIN_NS",
};

// Recursive: arming an instrument goes through its public setter, which
// settles the probe first and so re-enters it on this thread. constinit:
// the probe may run from another file's static initializers.
constinit std::recursive_mutex g_probe_mutex;
constinit bool g_probed = false;          // guarded by g_probe_mutex
constinit std::string g_step_report_path; // guarded by g_probe_mutex

/** The variable's value, or nullptr when it is unset or empty. */
const char*
knob(const char* name)
{
    const char* value = std::getenv(name);
    return value != nullptr && value[0] != '\0' ? value : nullptr;
}

void
armFromEnv()
{
    for (const std::string& name : unknownKnobs(environ)) {
        std::fprintf(stderr,
                     "slapo: warning: unknown environment variable %s (see "
                     "the knob table in docs/OBSERVABILITY.md)\n",
                     name.c_str());
    }
    if (const char* path = knob("SLAPO_TRACE")) {
        startTracing(path);
        std::atexit([] { stopTracing(); });
    }
    // "1" prints the table to stderr at exit; anything else names a JSON
    // file. The profiler stays installed for the process lifetime.
    if (const char* out = knob("SLAPO_OP_PROFILE")) {
        static OpProfiler* profiler = new OpProfiler();
        static const std::string path = out;
        new OpProfilerGuard(profiler);
        std::atexit([] {
            if (path == "1") {
                std::fputs(profiler->table().c_str(), stderr);
            } else if (std::FILE* f = std::fopen(path.c_str(), "wb")) {
                std::fprintf(f, "%s\n", profiler->toJson().c_str());
                std::fclose(f);
            }
        });
    }
    if (const char* path = knob("SLAPO_STEP_REPORT")) {
        g_step_report_path = path;
        setStepReportsEnabled(true);
    }
    // Memory: a budget or a dump path implies watching live bytes.
    const char* budget = knob("SLAPO_MEM_BUDGET");
    const int64_t bytes = budget != nullptr ? std::atoll(budget) : -1;
    const char* action = knob("SLAPO_MEM_BUDGET_ACTION");
    setMemBudget(bytes > 0 ? bytes : -1,
                 action != nullptr && std::strcmp(action, "throw") == 0
                     ? MemBudgetAction::Throw
                     : MemBudgetAction::Warn);
    const char* dump = knob("SLAPO_MEM_DUMP");
    if (dump != nullptr) {
        setMemDumpPath(dump);
    }
    const char* profile = knob("SLAPO_MEM_PROFILE");
    if ((profile != nullptr && std::strcmp(profile, "0") != 0 &&
         std::strcmp(profile, "off") != 0) ||
        bytes > 0 || dump != nullptr) {
        setMemProfilingEnabled(true);
    }
}

} // namespace

namespace detail {

std::atomic<uint32_t> g_instruments{kUnprobed};

uint32_t
probeInstruments()
{
    const uint32_t word = g_instruments.load(std::memory_order_relaxed);
    if ((word & kUnprobed) == 0) {
        return word;
    }
    std::lock_guard<std::recursive_mutex> lock(g_probe_mutex);
    if (!g_probed) {
        g_probed = true;
        armFromEnv();
        g_instruments.fetch_and(~kUnprobed, std::memory_order_relaxed);
    }
    return g_instruments.load(std::memory_order_relaxed) & ~kUnprobed;
}

void
setInstruments(uint32_t bits, bool on)
{
    if (on) {
        g_instruments.fetch_or(bits, std::memory_order_relaxed);
    } else {
        g_instruments.fetch_and(~bits, std::memory_order_relaxed);
    }
}

std::string
stepReportPath()
{
    std::lock_guard<std::recursive_mutex> lock(g_probe_mutex);
    return g_step_report_path;
}

} // namespace detail

std::vector<std::string>
unknownKnobs(const char* const* environment)
{
    std::vector<std::string> unknown;
    for (; *environment != nullptr; ++environment) {
        std::string name(*environment, std::strcspn(*environment, "="));
        if (name.rfind("SLAPO_", 0) == 0 &&
            std::find(std::begin(kKnobs), std::end(kKnobs), name) ==
                std::end(kKnobs)) {
            unknown.push_back(std::move(name));
        }
    }
    return unknown;
}

} // namespace obs
} // namespace slapo
