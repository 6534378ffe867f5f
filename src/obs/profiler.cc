#include "obs/profiler.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>
#include <mutex>
#include <optional>
#include <sstream>
#include <tuple>

#include "obs/mem_profiler.h"
#include "obs/trace.h"

namespace slapo {
namespace obs {

namespace {

/** 4 sub-buckets per power-of-two octave: <= 19% relative error on p99. */
constexpr int kSubBuckets = 4;
constexpr int kNumBuckets = 64 * kSubBuckets;

int
bucketOf(int64_t ns)
{
    if (ns < kSubBuckets) {
        return static_cast<int>(ns < 0 ? 0 : ns);
    }
    const uint64_t v = static_cast<uint64_t>(ns);
    const int octave = 63 - __builtin_clzll(v);
    const int sub = static_cast<int>((v >> (octave - 2)) & 3);
    return octave * kSubBuckets + sub;
}

/** Inclusive upper bound of a bucket (inverse of bucketOf). */
int64_t
bucketUpperBound(int bucket)
{
    if (bucket < kSubBuckets) {
        return bucket;
    }
    const int octave = bucket / kSubBuckets;
    const int sub = bucket % kSubBuckets;
    return ((static_cast<int64_t>(sub) + 5) << (octave - 2)) - 1;
}

// The installed profilers, oldest first; the kOpProfile bit mirrors
// "non-empty" and is only changed under the mutex.
constinit std::mutex g_installed_mutex;
constinit std::vector<OpProfiler*> g_installed;

thread_local int64_t t_recorded_ns = 0;

std::string
formatUs(double ns)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.1f", ns / 1000.0);
    return buf;
}

} // namespace

struct OpProfiler::Impl
{
    struct Agg
    {
        int64_t count = 0;
        int64_t total_ns = 0;
        int64_t buckets[kNumBuckets] = {};
    };

    mutable std::mutex mutex;
    // Ordered map keyed by (op, module_path, primitive): deterministic
    // report order for ties, and no hashing of composite keys.
    std::map<std::tuple<std::string, std::string, std::string>, Agg> aggs;
};

OpProfiler::OpProfiler() : impl_(new Impl()) {}

OpProfiler::~OpProfiler()
{
    delete impl_;
}

void
OpProfiler::record(const std::string& op, const std::string& module_path,
                   int64_t duration_ns)
{
    record(op, module_path, std::string(), duration_ns);
}

int64_t
OpProfiler::threadRecordedNs()
{
    return t_recorded_ns;
}

void
OpProfiler::record(const std::string& op, const std::string& module_path,
                   const std::string& primitive, int64_t duration_ns)
{
    std::lock_guard<std::mutex> lock(impl_->mutex);
    Impl::Agg& agg = impl_->aggs[{op, module_path, primitive}];
    ++agg.count;
    agg.total_ns += duration_ns;
    ++agg.buckets[bucketOf(duration_ns)];
}

std::vector<OpStats>
OpProfiler::report() const
{
    std::vector<OpStats> stats;
    {
        std::lock_guard<std::mutex> lock(impl_->mutex);
        stats.reserve(impl_->aggs.size());
        for (const auto& [key, agg] : impl_->aggs) {
            OpStats s;
            s.op = std::get<0>(key);
            s.module_path = std::get<1>(key);
            s.primitive = std::get<2>(key);
            s.count = agg.count;
            s.total_ns = agg.total_ns;
            s.mean_ns = static_cast<double>(agg.total_ns) /
                        static_cast<double>(agg.count);
            // p99: first bucket at which the cumulative count covers 99%.
            const int64_t threshold = (agg.count * 99 + 99) / 100;
            int64_t seen = 0;
            for (int b = 0; b < kNumBuckets; ++b) {
                seen += agg.buckets[b];
                if (seen >= threshold) {
                    s.p99_ns = bucketUpperBound(b);
                    break;
                }
            }
            stats.push_back(std::move(s));
        }
    }
    std::stable_sort(stats.begin(), stats.end(),
                     [](const OpStats& a, const OpStats& b) {
                         return a.total_ns > b.total_ns;
                     });
    return stats;
}

std::string
OpProfiler::table() const
{
    const std::vector<OpStats> stats = report();
    int64_t grand_total = 0;
    size_t op_width = 2, path_width = 6, prim_width = 9;
    for (const OpStats& s : stats) {
        grand_total += s.total_ns;
        op_width = std::max(op_width, s.op.size());
        path_width = std::max(path_width,
                              std::max<size_t>(s.module_path.size(), 6));
        prim_width = std::max(prim_width,
                              std::max<size_t>(s.primitive.size(), 9));
    }
    std::ostringstream os;
    char line[512];
    std::snprintf(line, sizeof line,
                  "%-*s  %-*s  %-*s  %8s  %12s  %10s  %10s  %6s\n",
                  static_cast<int>(op_width), "op",
                  static_cast<int>(path_width), "module",
                  static_cast<int>(prim_width), "primitive", "count",
                  "total(us)", "mean(us)", "p99(us)", "%");
    os << line;
    for (const OpStats& s : stats) {
        const double pct =
            grand_total > 0
                ? 100.0 * static_cast<double>(s.total_ns) /
                      static_cast<double>(grand_total)
                : 0.0;
        std::snprintf(line, sizeof line,
                      "%-*s  %-*s  %-*s  %8lld  %12s  %10s  %10s  %5.1f%%\n",
                      static_cast<int>(op_width), s.op.c_str(),
                      static_cast<int>(path_width),
                      s.module_path.empty() ? "(root)" : s.module_path.c_str(),
                      static_cast<int>(prim_width),
                      s.primitive.empty() ? "-" : s.primitive.c_str(),
                      static_cast<long long>(s.count),
                      formatUs(static_cast<double>(s.total_ns)).c_str(),
                      formatUs(s.mean_ns).c_str(),
                      formatUs(static_cast<double>(s.p99_ns)).c_str(), pct);
        os << line;
    }
    std::snprintf(line, sizeof line, "total: %s us across %zu (op, module) pairs\n",
                  formatUs(static_cast<double>(grand_total)).c_str(),
                  stats.size());
    os << line;
    return os.str();
}

std::string
OpProfiler::toJson() const
{
    std::string out = "[";
    bool first = true;
    for (const OpStats& s : report()) {
        if (!first) out += ",";
        first = false;
        out += "{\"op\":\"" + s.op + "\",\"module\":\"" + s.module_path +
               "\",\"primitive\":\"" + s.primitive +
               "\",\"count\":" + std::to_string(s.count) +
               ",\"total_ns\":" + std::to_string(s.total_ns) +
               ",\"mean_ns\":" + std::to_string(s.mean_ns) +
               ",\"p99_ns\":" + std::to_string(s.p99_ns) + "}";
    }
    out += "]";
    return out;
}

void
OpProfiler::clear()
{
    std::lock_guard<std::mutex> lock(impl_->mutex);
    impl_->aggs.clear();
}

OpProfiler*
OpProfiler::current()
{
    (void)instruments(); // the first read installs SLAPO_OP_PROFILE's
    std::lock_guard<std::mutex> lock(g_installed_mutex);
    return g_installed.empty() ? nullptr : g_installed.back();
}

OpProfilerGuard::OpProfilerGuard(OpProfiler* profiler) : profiler_(profiler)
{
    std::lock_guard<std::mutex> lock(g_installed_mutex);
    g_installed.push_back(profiler_);
    detail::setInstruments(kOpProfile, true);
}

OpProfilerGuard::~OpProfilerGuard()
{
    std::lock_guard<std::mutex> lock(g_installed_mutex);
    // Guards on different threads need not close in LIFO order.
    g_installed.erase(
        std::find(g_installed.begin(), g_installed.end(), profiler_));
    detail::setInstruments(kOpProfile, !g_installed.empty());
}

void
recordRow(const std::string& op, const std::string& module_path,
          const std::string& primitive, int64_t duration_ns)
{
    t_recorded_ns += duration_ns;
    std::lock_guard<std::mutex> lock(g_installed_mutex);
    for (OpProfiler* profiler : g_installed) {
        profiler->record(op, module_path, primitive, duration_ns);
    }
}

struct RowTimer::State
{
    std::optional<MemNodeScope> mem_scope;
    std::optional<TraceSpan> span;
    bool record = false;    ///< fold a row on close
    bool remainder = false; ///< record wall minus the rows recorded meanwhile
    std::string name;
    std::optional<std::string> path; ///< fixed module path (phase rows)
    std::string primitive;
    int64_t recorded_before = 0;
    std::chrono::steady_clock::time_point start;
};

void
RowTimer::begin(uint32_t on, const char* op, const char* suffix,
                const std::string& primitive, int64_t node_id,
                const std::string* node_name)
{
    state_ = new State();
    State& s = *state_;
    if (node_id >= 0) {
        s.mem_scope.emplace(node_id, &primitive);
    }
    if ((on & (kTrace | kOpProfile)) == 0) {
        return;
    }
    s.record = (on & kOpProfile) != 0;
    s.name = std::string(op) + suffix;
    s.primitive = primitive;
    s.span.emplace(s.name, "op"); // copied: the event outlives the timer
    if (node_name != nullptr) {
        s.span->arg("node", *node_name);
    }
    if (!ModuleScope::currentPath().empty()) {
        s.span->arg("module", ModuleScope::currentPath());
    }
    if (!primitive.empty()) {
        s.span->arg("primitive", primitive);
    }
    s.start = std::chrono::steady_clock::now();
}

RowTimer::RowTimer(Phase phase, const char* op, const char* primitive,
                   std::string module_path)
{
    if ((instruments() & kOpProfile) == 0) {
        return;
    }
    state_ = new State();
    state_->record = true;
    state_->remainder = phase == kRemainder;
    state_->name = op;
    state_->path = std::move(module_path);
    state_->primitive = primitive;
    state_->recorded_before = t_recorded_ns;
    state_->start = std::chrono::steady_clock::now();
}

int64_t
RowTimer::elapsedNs() const
{
    if (state_ == nullptr) {
        return -1;
    }
    return nsSince(state_->start);
}

void
RowTimer::end()
{
    const State& s = *state_;
    if (s.record) {
        int64_t ns = elapsedNs();
        if (s.remainder) {
            // Nested rows can overlap, so the remainder may come out
            // negative; only a positive gap is a real unattributed cost.
            ns -= t_recorded_ns - s.recorded_before;
        }
        if (!s.remainder || ns > 0) {
            recordRow(s.name, s.path ? *s.path : ModuleScope::currentPath(),
                      s.primitive, ns);
        }
    }
    delete state_;
    state_ = nullptr;
}

namespace {
thread_local std::string t_module_path;
} // namespace

ModuleScope::ModuleScope(const std::string& name) : restore_len_(SIZE_MAX)
{
    if (!active()) {
        return;
    }
    restore_len_ = t_module_path.size();
    if (!t_module_path.empty()) {
        t_module_path += '.';
    }
    t_module_path += name;
}

ModuleScope::~ModuleScope()
{
    if (restore_len_ != SIZE_MAX) {
        t_module_path.resize(restore_len_);
    }
}

const std::string&
ModuleScope::currentPath()
{
    return t_module_path;
}

bool
ModuleScope::active()
{
    return (instruments() & kNodeInstruments) != 0;
}

} // namespace obs
} // namespace slapo
