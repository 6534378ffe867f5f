#include "runtime/checkpoint.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>

#include "obs/metrics.h"
#include "obs/run_log.h"
#include "obs/trace.h"
#include "support/crc32.h"

namespace slapo {
namespace runtime {

namespace {

namespace fs = std::filesystem;

/** RAII stdio handle so error paths can't leak the descriptor. */
struct File
{
    std::FILE* f = nullptr;
    ~File()
    {
        if (f) std::fclose(f);
    }
};

void
writeBytes(std::FILE* f, const void* data, size_t len, const std::string& path)
{
    if (std::fwrite(data, 1, len, f) != len) {
        throw CheckpointError(path, "short write");
    }
}

template <typename T>
void
writeScalar(std::FILE* f, T value, const std::string& path)
{
    writeBytes(f, &value, sizeof(T), path);
}

void
readBytes(std::FILE* f, void* data, size_t len, const std::string& path)
{
    if (std::fread(data, 1, len, f) != len) {
        throw CheckpointError(path, "truncated file");
    }
}

template <typename T>
T
readScalar(std::FILE* f, const std::string& path)
{
    T value;
    readBytes(f, &value, sizeof(T), path);
    return value;
}

} // namespace

std::string
checkpointFileName(int64_t step)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "ckpt-%06lld.slpc",
                  static_cast<long long>(step));
    return buf;
}

std::vector<std::pair<int64_t, std::string>>
listCheckpoints(const std::string& dir)
{
    std::vector<std::pair<int64_t, std::string>> found;
    std::error_code ec;
    for (const auto& entry : fs::directory_iterator(dir, ec)) {
        const std::string name = entry.path().filename().string();
        long long step = -1;
        if (std::sscanf(name.c_str(), "ckpt-%lld.slpc", &step) == 1 &&
            step >= 0) {
            found.emplace_back(step, entry.path().string());
        }
    }
    std::sort(found.begin(), found.end());
    return found;
}

void
saveCheckpoint(const std::string& path, const CheckpointState& state)
{
    obs::TraceSpan span("checkpoint.save", "checkpoint");
    const auto t0 = std::chrono::steady_clock::now();
    int64_t payload_bytes = 0;
    const std::string tmp = path + ".tmp";
    {
        File file;
        file.f = std::fopen(tmp.c_str(), "wb");
        if (!file.f) {
            throw CheckpointError(tmp, "cannot open for writing");
        }
        writeScalar<uint32_t>(file.f, kCheckpointMagic, tmp);
        writeScalar<uint32_t>(file.f, kCheckpointVersion, tmp);
        writeScalar<int64_t>(file.f, state.step, tmp);
        writeScalar<int64_t>(file.f, state.optimizer_steps, tmp);
        writeScalar<int64_t>(file.f, state.world_size, tmp);
        writeScalar<uint64_t>(file.f, state.tensors.size(), tmp);
        for (const CheckpointEntry& entry : state.tensors) {
            if (!entry.tensor.materialized()) {
                throw CheckpointError(
                    tmp, "tensor '" + entry.name + "' is meta (no storage)");
            }
            writeScalar<uint32_t>(
                file.f, static_cast<uint32_t>(entry.name.size()), tmp);
            writeBytes(file.f, entry.name.data(), entry.name.size(), tmp);
            const Shape& shape = entry.tensor.shape();
            writeScalar<uint32_t>(file.f, static_cast<uint32_t>(shape.size()),
                                  tmp);
            for (int64_t dim : shape) {
                writeScalar<int64_t>(file.f, dim, tmp);
            }
            const size_t bytes =
                static_cast<size_t>(entry.tensor.numel()) * sizeof(float);
            writeScalar<uint32_t>(
                file.f, support::crc32(entry.tensor.data(), bytes), tmp);
            writeBytes(file.f, entry.tensor.data(), bytes, tmp);
            payload_bytes += static_cast<int64_t>(bytes);
        }
        if (std::fflush(file.f) != 0) {
            throw CheckpointError(tmp, "flush failed");
        }
    }
    std::error_code ec;
    fs::rename(tmp, path, ec);
    if (ec) {
        throw CheckpointError(path, "atomic rename failed: " + ec.message());
    }
    const int64_t write_ns = obs::nsSince(t0);
    obs::metrics().checkpoint_write_bytes.add(payload_bytes);
    obs::metrics().checkpoint_write_ns.add(write_ns);
    if (span.live()) {
        span.arg("bytes", payload_bytes);
        span.arg("tensors", static_cast<int64_t>(state.tensors.size()));
    }
    if (obs::RunLog* log = obs::runLog()) {
        obs::RunLogRecord record("checkpoint.save");
        record.num("step", state.step)
            .str("path", path)
            .num("bytes", payload_bytes)
            .num("world_size", state.world_size)
            .num("write_ms", static_cast<double>(write_ns) / 1e6);
        log->write(record);
    }
}

CheckpointState
loadCheckpoint(const std::string& path)
{
    obs::TraceSpan span("checkpoint.load", "checkpoint");
    const auto t0 = std::chrono::steady_clock::now();
    int64_t payload_bytes = 0;
    File file;
    file.f = std::fopen(path.c_str(), "rb");
    if (!file.f) {
        throw CheckpointError(path, "cannot open for reading");
    }
    if (readScalar<uint32_t>(file.f, path) != kCheckpointMagic) {
        throw CheckpointError(path, "bad magic (not a slapo checkpoint)");
    }
    const uint32_t version = readScalar<uint32_t>(file.f, path);
    if (version < 1 || version > kCheckpointVersion) {
        throw CheckpointError(
            path, "unsupported version " + std::to_string(version) +
                      " (this build reads versions 1.." +
                      std::to_string(kCheckpointVersion) + ")");
    }
    CheckpointState state;
    state.step = readScalar<int64_t>(file.f, path);
    state.optimizer_steps = readScalar<int64_t>(file.f, path);
    // v1 predates the world_size field; report 0 = unknown.
    state.world_size =
        version >= 2 ? readScalar<int64_t>(file.f, path) : 0;
    const uint64_t count = readScalar<uint64_t>(file.f, path);
    state.tensors.reserve(count);
    for (uint64_t i = 0; i < count; ++i) {
        CheckpointEntry entry;
        const uint32_t name_len = readScalar<uint32_t>(file.f, path);
        entry.name.resize(name_len);
        readBytes(file.f, entry.name.data(), name_len, path);
        const uint32_t ndim = readScalar<uint32_t>(file.f, path);
        Shape shape(ndim);
        for (uint32_t d = 0; d < ndim; ++d) {
            shape[d] = readScalar<int64_t>(file.f, path);
            if (shape[d] < 0) {
                throw CheckpointError(path, "negative extent in tensor '" +
                                                entry.name + "'");
            }
        }
        const uint32_t expected_crc = readScalar<uint32_t>(file.f, path);
        entry.tensor = Tensor::zeros(shape);
        const size_t bytes =
            static_cast<size_t>(entry.tensor.numel()) * sizeof(float);
        readBytes(file.f, entry.tensor.data(), bytes, path);
        payload_bytes += static_cast<int64_t>(bytes);
        const uint32_t actual_crc = support::crc32(entry.tensor.data(), bytes);
        if (actual_crc != expected_crc) {
            throw CheckpointError(
                path, "CRC mismatch in tensor '" + entry.name +
                          "' (corrupt checkpoint; stored " +
                          std::to_string(expected_crc) + ", computed " +
                          std::to_string(actual_crc) + ")");
        }
        state.tensors.push_back(std::move(entry));
    }
    const int64_t read_ns = obs::nsSince(t0);
    obs::metrics().checkpoint_read_bytes.add(payload_bytes);
    obs::metrics().checkpoint_read_ns.add(read_ns);
    if (span.live()) {
        span.arg("bytes", payload_bytes);
        span.arg("tensors", static_cast<int64_t>(state.tensors.size()));
    }
    if (obs::RunLog* log = obs::runLog()) {
        obs::RunLogRecord record("checkpoint.restore");
        record.num("step", state.step)
            .str("path", path)
            .num("bytes", payload_bytes)
            .num("world_size", state.world_size)
            .num("read_ms", static_cast<double>(read_ns) / 1e6);
        log->write(record);
    }
    return state;
}

CheckpointState
captureTrainerState(int64_t step,
                    const std::vector<std::pair<std::string, Tensor*>>& params,
                    AdamW& optimizer, int64_t world_size)
{
    SLAPO_CHECK(params.size() == optimizer.numParams(),
                "captureTrainerState: " << params.size() << " params but "
                                        << optimizer.numParams()
                                        << " optimizer slots");
    CheckpointState state;
    state.step = step;
    state.optimizer_steps = optimizer.stepCount();
    state.world_size = world_size;
    state.tensors.reserve(params.size() * 3);
    for (size_t i = 0; i < params.size(); ++i) {
        const std::string& name = params[i].first;
        state.tensors.push_back({name, *params[i].second});
        state.tensors.push_back({name + ".m", optimizer.moment1(i)});
        state.tensors.push_back({name + ".v", optimizer.moment2(i)});
    }
    return state;
}

void
restoreTrainerState(const CheckpointState& state,
                    const std::vector<std::pair<std::string, Tensor*>>& params,
                    AdamW& optimizer)
{
    const std::string where = "<in-memory checkpoint>";
    if (state.tensors.size() != params.size() * 3 ||
        params.size() != optimizer.numParams()) {
        throw CheckpointError(
            where, "layout mismatch: checkpoint has " +
                       std::to_string(state.tensors.size()) +
                       " tensors, trainer expects " +
                       std::to_string(params.size() * 3));
    }
    for (size_t i = 0; i < params.size(); ++i) {
        const CheckpointEntry& p = state.tensors[3 * i];
        const CheckpointEntry& m = state.tensors[3 * i + 1];
        const CheckpointEntry& v = state.tensors[3 * i + 2];
        if (p.name != params[i].first ||
            p.tensor.shape() != params[i].second->shape()) {
            throw CheckpointError(
                where, "parameter mismatch at slot " + std::to_string(i) +
                           ": checkpoint '" + p.name + "' " +
                           shapeToString(p.tensor.shape()) + " vs trainer '" +
                           params[i].first + "' " +
                           shapeToString(params[i].second->shape()));
        }
        params[i].second->copyFrom(p.tensor);
        optimizer.moment1(i).copyFrom(m.tensor);
        optimizer.moment2(i).copyFrom(v.tensor);
    }
    optimizer.restoreStepCount(state.optimizer_steps);
}

} // namespace runtime
} // namespace slapo
