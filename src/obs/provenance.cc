#include "obs/provenance.h"

#include <deque>
#include <map>
#include <mutex>

namespace slapo {
namespace obs {

namespace {

struct Registry
{
    std::mutex mutex;
    int64_t next_seq = 0;
    /** Records in application order; deque so pointers stay stable. */
    std::deque<ProvenanceRecord> records;
    /** module_path -> indices into `records`, in application order. */
    std::map<std::string, std::vector<size_t>> by_path;
};

Registry&
registry()
{
    static Registry* r = new Registry();
    return *r;
}

bool
claimsCompute(const std::string& primitive)
{
    // Sync time is attributed at the collective call site; tracing does
    // not change what executes.
    return primitive != "sync" && primitive != "trace";
}

} // namespace

int64_t
recordPrimitive(const std::string& primitive, const std::string& module_path)
{
    Registry& r = registry();
    std::lock_guard<std::mutex> lock(r.mutex);
    ProvenanceRecord rec;
    rec.primitive = primitive;
    rec.module_path = module_path;
    rec.apply_seq = r.next_seq++;
    r.records.push_back(std::move(rec));
    r.by_path[module_path].push_back(r.records.size() - 1);
    return r.records.back().apply_seq;
}

const ProvenanceRecord*
lookupProvenance(const std::string& module_path)
{
    Registry& r = registry();
    std::lock_guard<std::mutex> lock(r.mutex);
    // Walk prefixes longest-first: "a.b.c", "a.b", "a", "".
    std::string prefix = module_path;
    while (true) {
        auto it = r.by_path.find(prefix);
        if (it != r.by_path.end()) {
            for (auto idx = it->second.rbegin(); idx != it->second.rend();
                 ++idx) {
                const ProvenanceRecord& rec = r.records[*idx];
                if (claimsCompute(rec.primitive)) {
                    return &rec;
                }
            }
        }
        if (prefix.empty()) {
            return nullptr;
        }
        const size_t dot = prefix.rfind('.');
        prefix = dot == std::string::npos ? "" : prefix.substr(0, dot);
    }
}

std::string
resolvePrimitive(const std::string& stamped, const std::string& module_path)
{
    if (!stamped.empty()) {
        return stamped;
    }
    const ProvenanceRecord* rec = lookupProvenance(module_path);
    return rec != nullptr ? rec->primitive : "baseline";
}

std::vector<ProvenanceRecord>
provenanceRecords()
{
    Registry& r = registry();
    std::lock_guard<std::mutex> lock(r.mutex);
    return {r.records.begin(), r.records.end()};
}

int64_t
provenanceCount()
{
    Registry& r = registry();
    std::lock_guard<std::mutex> lock(r.mutex);
    return static_cast<int64_t>(r.records.size());
}

void
clearProvenance()
{
    Registry& r = registry();
    std::lock_guard<std::mutex> lock(r.mutex);
    r.records.clear();
    r.by_path.clear();
    r.next_seq = 0;
}

} // namespace obs
} // namespace slapo
