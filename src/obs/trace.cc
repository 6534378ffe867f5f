#include "obs/trace.h"

#include <cstdio>
#include <fstream>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "obs/json_util.h"
#include "support/error.h"

namespace slapo {
namespace obs {

namespace {

/** One finished event, stored per producing thread. */
struct TraceEvent
{
    char phase = 'X';            ///< 'X' complete span, 'C' counter sample
    const char* name = nullptr;  ///< literal name (preferred)
    std::string owned_name;      ///< dynamic name (used when name == nullptr)
    const char* category = nullptr;
    int64_t ts_ns = 0;  ///< start, relative to the trace epoch
    int64_t dur_ns = 0; ///< span duration ('X' only)
    int64_t value = 0;  ///< counter sample ('C' only)
    std::string args;   ///< pre-rendered JSON object body ("" = none)
};

/**
 * Per-thread event buffer. The owning thread appends; the dumper reads.
 * The mutex is virtually uncontended (taken by the dumper only at
 * start/stop/dump), so recording stays effectively thread-private while
 * remaining well-defined under concurrent dump.
 */
struct ThreadBuffer
{
    std::mutex mutex;
    std::vector<TraceEvent> events;
    int pid = 0;
    std::string name; ///< thread track label ("" = "thread <tid>")
    int tid = 0;      ///< registration-order track id
};

struct Registry
{
    std::mutex mutex;
    std::vector<std::shared_ptr<ThreadBuffer>> buffers;
    std::string path; ///< output file ("" = in-memory only)
    /** Trace start, as steady-clock ns — atomic so recording threads can
     * read it without the registry lock. */
    std::atomic<int64_t> epoch_ns{0};
};

Registry&
registry()
{
    static Registry* r = new Registry(); // leaked: outlives thread statics
    return *r;
}

/** The calling thread's buffer, registered on first use and kept alive
 * by the registry even after the thread exits. */
ThreadBuffer&
threadBuffer()
{
    thread_local std::shared_ptr<ThreadBuffer> t_buffer = [] {
        auto buffer = std::make_shared<ThreadBuffer>();
        Registry& r = registry();
        std::lock_guard<std::mutex> lock(r.mutex);
        buffer->tid = static_cast<int>(r.buffers.size());
        r.buffers.push_back(buffer);
        return buffer;
    }();
    return *t_buffer;
}

int64_t
sinceEpochNs(std::chrono::steady_clock::time_point tp)
{
    const int64_t now_ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            tp.time_since_epoch())
            .count();
    return now_ns - registry().epoch_ns.load(std::memory_order_relaxed);
}

void
emitMicros(std::string& out, int64_t ns)
{
    // Microseconds with nanosecond resolution, no float rounding noise.
    char buf[40];
    std::snprintf(buf, sizeof buf, "%lld.%03d",
                  static_cast<long long>(ns / 1000),
                  static_cast<int>(ns % 1000));
    out += buf;
}

void
emitEvent(std::string& out, const ThreadBuffer& buffer, const TraceEvent& e)
{
    out += "{\"name\":";
    out += json::quoted(e.name ? e.name : e.owned_name.c_str());
    out += ",\"ph\":\"";
    out += e.phase;
    out += '"';
    if (e.category != nullptr) {
        out += ",\"cat\":";
        out += json::quoted(e.category);
    }
    out += ",\"ts\":";
    emitMicros(out, e.ts_ns);
    if (e.phase == 'X') {
        out += ",\"dur\":";
        emitMicros(out, e.dur_ns);
    }
    out += ",\"pid\":" + std::to_string(buffer.pid);
    out += ",\"tid\":" + std::to_string(buffer.tid);
    if (e.phase == 'C') {
        out += ",\"args\":{\"value\":" + std::to_string(e.value) + "}";
    } else if (!e.args.empty()) {
        out += ",\"args\":{" + e.args + "}";
    }
    out += '}';
}

void
emitMetadata(std::string& out, int pid, int tid, const char* kind,
             const std::string& label, bool& first)
{
    if (!first) out += ",\n";
    first = false;
    out += "{\"name\":\"";
    out += kind;
    out += "\",\"ph\":\"M\",\"ts\":0,\"pid\":" + std::to_string(pid);
    if (tid >= 0) {
        out += ",\"tid\":" + std::to_string(tid);
    }
    out += ",\"args\":{\"name\":" + json::quoted(label) + "}}";
}

/** The configured output path and the number of events recorded. */
std::pair<std::string, int64_t>
pathAndEventCount()
{
    Registry& r = registry();
    std::lock_guard<std::mutex> lock(r.mutex);
    int64_t events = 0;
    for (auto& buffer : r.buffers) {
        std::lock_guard<std::mutex> blk(buffer->mutex);
        events += static_cast<int64_t>(buffer->events.size());
    }
    return {r.path, events};
}

} // namespace

void
startTracing(const std::string& path)
{
    (void)instruments(); // settle the environment probe first
    Registry& r = registry();
    {
        std::lock_guard<std::mutex> lock(r.mutex);
        r.path = path;
        r.epoch_ns.store(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now().time_since_epoch())
                .count(),
            std::memory_order_relaxed);
        for (auto& buffer : r.buffers) {
            std::lock_guard<std::mutex> blk(buffer->mutex);
            buffer->events.clear();
        }
    }
    detail::setInstruments(kTrace, true);
}

int64_t
stopTracing()
{
    if (!tracingEnabled()) {
        return 0;
    }
    detail::setInstruments(kTrace, false);
    const auto [path, events] = pathAndEventCount();
    if (!path.empty()) {
        writeTrace(path);
    }
    return events;
}

std::string
dumpTraceJson()
{
    Registry& r = registry();
    std::string out = "{\"traceEvents\":[\n";
    bool first = true;
    std::lock_guard<std::mutex> lock(r.mutex);
    // Track metadata rows: process names (one per distinct pid, labelled
    // by the first thread that claimed it) and per-thread names.
    bool named_pid0 = false;
    for (const auto& buffer : r.buffers) {
        std::lock_guard<std::mutex> blk(buffer->mutex);
        if (buffer->pid == 0) {
            if (!named_pid0) {
                emitMetadata(out, 0, -1, "process_name", "slapo", first);
                named_pid0 = true;
            }
        } else {
            emitMetadata(out, buffer->pid, -1, "process_name",
                         buffer->name.empty()
                             ? "pid " + std::to_string(buffer->pid)
                             : buffer->name,
                         first);
        }
        emitMetadata(out, buffer->pid, buffer->tid, "thread_name",
                     buffer->name.empty()
                         ? "thread " + std::to_string(buffer->tid)
                         : buffer->name,
                     first);
    }
    for (const auto& buffer : r.buffers) {
        std::lock_guard<std::mutex> blk(buffer->mutex);
        for (const TraceEvent& e : buffer->events) {
            if (!first) out += ",\n";
            first = false;
            emitEvent(out, *buffer, e);
        }
    }
    out += "\n],\"displayTimeUnit\":\"ms\"}";
    return out;
}

void
writeTrace(const std::string& path)
{
    std::string json = dumpTraceJson();
    std::ofstream file(path, std::ios::binary | std::ios::trunc);
    SLAPO_CHECK(file.good(), "trace: cannot open '" << path << "' for write");
    file << json << "\n";
    SLAPO_CHECK(file.good(), "trace: write to '" << path << "' failed");
}

int64_t
flushTrace()
{
    if (!tracingEnabled()) {
        return 0;
    }
    const auto [path, events] = pathAndEventCount();
    if (path.empty()) {
        return 0; // in-memory session: nothing durable to flush to
    }
    // Best effort by design: the flush runs on abort/watchdog paths that
    // must never turn a hang diagnosis into a new exception.
    try {
        writeTrace(path);
    } catch (...) {
        return 0;
    }
    return events;
}

void
clearTrace()
{
    Registry& r = registry();
    std::lock_guard<std::mutex> lock(r.mutex);
    for (auto& buffer : r.buffers) {
        std::lock_guard<std::mutex> blk(buffer->mutex);
        buffer->events.clear();
    }
}

void
setThreadTrack(int pid, const std::string& name)
{
    ThreadBuffer& buffer = threadBuffer();
    std::lock_guard<std::mutex> lock(buffer.mutex);
    buffer.pid = pid;
    buffer.name = name;
}

void
traceCounter(const char* name, int64_t value)
{
    if (!tracingEnabled()) {
        return;
    }
    TraceEvent e;
    e.phase = 'C';
    e.name = name;
    e.ts_ns = sinceEpochNs(std::chrono::steady_clock::now());
    e.value = value;
    ThreadBuffer& buffer = threadBuffer();
    std::lock_guard<std::mutex> lock(buffer.mutex);
    buffer.events.push_back(std::move(e));
}

void
TraceSpan::begin(const char* name, const char* category)
{
    live_ = true;
    name_ = name;
    category_ = category;
    start_ = std::chrono::steady_clock::now();
}

void
TraceSpan::arg(const char* key, const std::string& value)
{
    if (!live_) return;
    if (!args_.empty()) args_ += ',';
    args_ += json::quoted(key) + ":" + json::quoted(value);
}

void
TraceSpan::arg(const char* key, int64_t value)
{
    if (!live_) return;
    if (!args_.empty()) args_ += ',';
    args_ += json::quoted(key) + ":" + std::to_string(value);
}

void
TraceSpan::end()
{
    const auto now = std::chrono::steady_clock::now();
    TraceEvent e;
    e.phase = 'X';
    e.name = name_;
    e.owned_name = std::move(owned_name_);
    e.category = category_;
    e.ts_ns = sinceEpochNs(start_);
    e.dur_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                   now - start_)
                   .count();
    e.args = std::move(args_);
    ThreadBuffer& buffer = threadBuffer();
    std::lock_guard<std::mutex> lock(buffer.mutex);
    buffer.events.push_back(std::move(e));
}

} // namespace obs
} // namespace slapo
