/**
 * @file
 * Training-step benchmark driver (stepbench/README.md).
 *
 * Runs whole training steps of a Slapo-scheduled BERT in a closed loop
 * from one process: build the model, schedule it with a kernelOptimized
 * recipe, verify the schedule end to end, construct the trainer and take
 * the cold step (the set-up), then time warm steps until the run's
 * seconds are up. Every layer is timed from outside, around calls into
 * public functions, or read from instruments the program already has:
 * the always-on obs::metrics() counters and the per-step obs::StepReport.
 *
 *   step_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *              [--smoke]
 *
 * Prints one `{"context": ...}` line and then, as the last line, the
 * result object {"correct", "attempted", "failed", "metrics"}. With
 * --trace 0 the metrics are the end-to-end ones; with --trace 1 the run
 * also takes a traced phase and reports the per-layer breakdown.
 */
#include <sched.h>

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "baselines/slapo_schedules.h"
#include "core/verify.h"
#include "models/dataset.h"
#include "models/registry.h"
#include "models/transformer.h"
#include "obs/metrics.h"
#include "obs/step_report.h"
#include "runtime/autograd.h"
#include "runtime/trainer.h"
#include "support/parallel.h"

#ifndef __OPTIMIZE__
#error "step_bench must be built with optimization (see stepbench/CMakeLists.txt)"
#endif

using namespace slapo;

namespace {

using Clock = std::chrono::steady_clock;
using Batches = std::vector<std::vector<Tensor>>;

double
msSince(Clock::time_point start)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - start)
        .count();
}

/** CPUs this process may run on (what `nproc` prints). */
int
usableCpus()
{
    cpu_set_t set;
    if (sched_getaffinity(0, sizeof(set), &set) == 0) {
        return std::max(1, CPU_COUNT(&set));
    }
    return 1;
}

/**
 * Host-speed probe. A shared host's speed drifts by tens of percent over
 * minutes with its neighbours' load, so each run also times a fixed piece
 * of work that this file owns and no change to the program can touch: a
 * float matrix product (FMA and load throughput) and inserts and erases
 * in an open-addressing hash table (branchy, like dispatch). It allocates
 * nothing and runs on the calling thread, so the program's heap and
 * threads cannot slow it either.
 */
class HostProbe
{
  public:
    HostProbe() : a_(kN * kN, 1.0f), b_(kN * kN, 0.5f), c_(kN * kN), keys_(kSlots) {}

    /** Runs the probe once; returns its wall time. */
    double
    run()
    {
        const auto start = Clock::now();
        std::fill(c_.begin(), c_.end(), 0.0f);
        for (int rep = 0; rep < 16; ++rep) {
            for (int i = 0; i < kN; ++i) {
                for (int k = 0; k < kN; ++k) {
                    const float aik = a_[i * kN + k];
                    for (int j = 0; j < kN; ++j) {
                        c_[i * kN + j] += aik * b_[k * kN + j];
                    }
                }
            }
        }
        std::fill(keys_.begin(), keys_.end(), 0);
        uint64_t x = 7;
        int64_t live = 0;
        for (int i = 0; i < 25000; ++i) {
            x = x * 6364136223846793005ull + 1442695040888963407ull;
            const uint64_t key = (x >> 33) | 1;
            size_t slot = key % kSlots;
            while (keys_[slot] != 0 && keys_[slot] != key) {
                slot = (slot + 1) % kSlots;
            }
            if ((x >> 30) % 3 != 0) {
                if (keys_[slot] == 0 && live < kSlots * 3 / 4) {
                    keys_[slot] = key;
                    ++live;
                }
            } else if (keys_[slot] == key) {
                keys_[slot] = kTombstone;
            }
        }
        sink_ = c_[7] + static_cast<float>(live);
        const double ms = msSince(start);
        samples_.push_back(ms);
        return ms;
    }

    const std::vector<double>& samples() const { return samples_; }

  private:
    static constexpr int kN = 64;
    static constexpr int64_t kSlots = 1024;
    static constexpr uint64_t kTombstone = ~uint64_t{0};
    std::vector<float> a_, b_, c_;
    std::vector<uint64_t> keys_;
    std::vector<double> samples_;
    volatile float sink_ = 0;
};

/** How often the warm loop runs the probe (~2 ms of work). */
constexpr double kProbeEveryMs = 100;
/**
 * The probe's median wall time on a 4-vCPU Intel Xeon KVM guest while
 * its host was quiet. End-to-end times are reported at this host speed.
 */
constexpr double kProbeReferenceMs = 2.25;

/** One benchmark workload: a BERT shape, a recipe and a trainer. */
struct Workload
{
    std::string name;
    models::TransformerConfig config;
    int64_t batch = 1;             ///< samples per rank per step
    double checkpoint_ratio = 0;   ///< kernelOptimized(ratio)
    int kernel_threads = 1;
    int ranks = 1;                 ///< > 1 runs DataParallelTrainer
    /**
     * loss_final is the mean loss of warm steps (loss_step − loss_window,
     * loss_step]: one small batch's loss is too noisy to compare seeds.
     */
    int64_t loss_step = 0;
    int64_t loss_window = 1;
    int setups = 1;                ///< set-ups per run; setup_s is the median
};

/**
 * The BERT shapes of the three workloads. They start from the tiny test
 * config so dropout is off and verifyEndToEnd compares exactly.
 */
models::TransformerConfig
bertConfig(int64_t hidden, int64_t layers, int64_t heads, int64_t vocab,
           int64_t seq)
{
    return models::tinyConfig("bert").scaled(hidden, layers, heads, vocab,
                                             seq);
}

Workload
workloadByName(const std::string& name)
{
    Workload w;
    w.name = name;
    if (name == "tiny-dispatch") {
        // ~200 near-empty kernels per step: dispatch-bound.
        w.config = models::tinyConfig("bert");
        w.batch = 2;
        w.loss_step = 200;
        w.loss_window = 100;
        w.setups = 101;
    } else if (name == "bert-kernels") {
        // GEMM-heavy, half the layers checkpointed: kernel-bound.
        w.config = bertConfig(128, 4, 4, 2048, 128);
        w.batch = 4;
        w.checkpoint_ratio = 0.5;
        w.kernel_threads = std::min(4, usableCpus());
        w.loss_step = 20;
        w.loss_window = 10;
        w.setups = 9;
    } else if (name == "dp2-exchange") {
        // 5.86 M parameters, little compute: exchange- and optimizer-bound.
        w.config = bertConfig(256, 2, 4, 8192, 32);
        w.batch = 2;
        w.ranks = 2;
        w.loss_step = 40;
        w.loss_window = 20;
        w.setups = 9;
    } else {
        SLAPO_THROW("unknown workload '" << name << "'");
    }
    return w;
}

/** Either trainer behind one interface. */
class Session
{
  public:
    Session(const Workload& w, const nn::ModulePtr& loss_model)
    {
        if (w.ranks == 1) {
            single_ = std::make_unique<runtime::Trainer>(loss_model);
        } else {
            dp_ = std::make_unique<runtime::DataParallelTrainer>(*loss_model,
                                                                 w.ranks);
        }
    }

    runtime::TrainStepStats
    step(const Batches& batches)
    {
        return single_ ? single_->step(batches) : dp_->step(batches);
    }

    const obs::StepReport&
    lastStepReport() const
    {
        return single_ ? single_->lastStepReport() : dp_->lastStepReport();
    }

  private:
    std::unique_ptr<runtime::Trainer> single_;
    std::unique_ptr<runtime::DataParallelTrainer> dp_;
};

/** Global step `index`: one micro-batch (single rank) or one shard per rank. */
Batches
batchesFor(const Workload& w, const models::SyntheticDataset& data,
           int64_t index)
{
    Batches out;
    for (int r = 0; r < w.ranks; ++r) {
        out.push_back(data.batch(w.batch, index * w.ranks + r).withTargets());
    }
    return out;
}

/** Timings of one set-up: build → schedule → verify → trainer → cold step. */
struct SetupTimes
{
    double build_ms = 0;
    double schedule_ms = 0;
    double verify_ms = 0;
    double trainer_init_ms = 0;
    double cold_step_ms = 0;
    double total_s = 0;
    double cold_loss = 0;
};

/** Verification inputs come from batch indices no training step uses. */
constexpr int64_t kVerifyBatchIndex = int64_t{1} << 40;

std::unique_ptr<Session>
setUp(const Workload& w, uint64_t seed, const models::SyntheticDataset& data,
      SetupTimes* times)
{
    const auto start = Clock::now();
    auto t = Clock::now();
    auto model = std::make_shared<models::BertModel>(w.config);
    model->initializeParams(seed);
    times->build_ms = msSince(t);

    t = Clock::now();
    nn::ModulePtr reference = model->clone();
    const double clone_ms = msSince(t);

    t = Clock::now();
    core::SchedulePtr schedule = baselines::applyRecipe(
        model, baselines::ScheduleRecipe::kernelOptimized(w.checkpoint_ratio),
        w.config.seq_len);
    times->schedule_ms = msSince(t);

    t = Clock::now();
    core::VerifyOptions verify;
    verify.seed = seed;
    verify.input_gen = [&](int trial) {
        return data.batch(w.batch, kVerifyBatchIndex + trial).inputs;
    };
    core::verifyEndToEnd(*reference, *schedule, verify);
    reference.reset();
    times->verify_ms = clone_ms + msSince(t);

    t = Clock::now();
    auto session = std::make_unique<Session>(
        w, runtime::withCrossEntropyLoss(schedule->module()));
    times->trainer_init_ms = msSince(t);

    t = Clock::now();
    times->cold_loss = session->step(batchesFor(w, data, 0)).loss;
    times->cold_step_ms = msSince(t);
    times->total_s = msSince(start) / 1e3;
    return session;
}

double
median(std::vector<double> v)
{
    if (v.empty()) return 0;
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Nearest-rank percentile: n − ceil(q·n) samples lie beyond it. */
double
percentile(std::vector<double> v, double q)
{
    if (v.empty()) return 0;
    std::sort(v.begin(), v.end());
    const size_t rank =
        static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
    return v[std::clamp<size_t>(rank, 1, v.size()) - 1];
}

/** One timed warm step. */
struct StepSample
{
    double step_ms = 0;
    double batch_ms = 0;
    double loss = 0;
    bool ok = false;
    int64_t peak_live_bytes = 0; ///< windowed to this step
    int64_t stored_activation_bytes = 0;
    int64_t recomputed_nodes = 0;
    // Always-on counter deltas over the step (process-wide).
    int64_t alloc_hits = 0;
    int64_t alloc_misses = 0;
    int64_t pg_count = 0;
    int64_t pg_wait_ns = 0;
    int64_t pg_copy_ns = 0;
    /** Traced phase only: per-layer values attributed from the report. */
    std::map<std::string, double> layers;
};

/** A warm phase: steps 1.. after a set-up's cold step. */
struct Phase
{
    std::vector<StepSample> steps;
    double wall_s = 0;             ///< the steps' loop, probes excluded
    int64_t failed = 0;
};

/** Bucket of a row the trainers and the engine record around the kernels. */
const char*
runtimeBucket(const std::string& op)
{
    if (op == "engine.overhead") return "autograd.engine_overhead_ms";
    if (op == "optimizer.step") return "tensor.optim_ms";
    if (op == "grad.reduce") return "runtime.grad_reduce_ms";
    if (op == "grad.exchange") return "runtime.grad_exchange_ms";
    if (op.rfind("executor.", 0) == 0) return "runtime.executor_ms";
    return nullptr;
}

/** `nn.*` bucket of a kernel row; `dir` is ".fwd_ms" or ".bwd_ms". */
std::string
moduleBucket(const std::string& path, const std::string& base_op,
             const std::string& dir)
{
    const std::string layer_prefix = "model.encoder.layer.";
    if (path.rfind("model.embeddings", 0) == 0) return "nn.embeddings" + dir;
    if (path.rfind("model.pooler", 0) == 0) return "nn.head" + dir;
    if (path.empty() && base_op == "cross_entropy") return "nn.loss" + dir;
    if (path.rfind(layer_prefix, 0) == 0) {
        const std::string rest = path.substr(layer_prefix.size());
        const size_t dot = rest.find('.');
        const std::string index = rest.substr(0, dot);
        if (index == "attention" || index == "ffn") {
            // Forward rows re-run by a checkpointed layer's backward lose
            // the layer index in their module path.
            return "nn.recompute_unindexed_ms";
        }
        const bool indexed =
            !index.empty() &&
            std::all_of(index.begin(), index.end(),
                        [](unsigned char c) { return std::isdigit(c); });
        const std::string tail =
            dot == std::string::npos ? "" : rest.substr(dot + 1);
        const std::string block = tail.substr(0, tail.find('.'));
        if (indexed && (block == "attention" || block == "ffn")) {
            return "nn.layer" + index + "." + block + dir;
        }
    }
    return "nn.unscoped_ms";
}

/**
 * Per-layer values of one traced step, per rank, from its step report.
 * Every profiler row lands in exactly one runtime or `nn.*` bucket;
 * `autograd.*` and `tensor.*` slice the same kernel rows another way.
 * The report sets other = wall − rows, clamped at 0, so the buckets plus
 * `report.other_ms` miss the report's wall (`report.overcount`) only when
 * the rows add up to more than the wall.
 */
std::map<std::string, double>
attributeReport(const obs::StepReport& report)
{
    std::map<std::string, double> out;
    const double per_rank_ms = 1e-6 / report.world_size;
    double rows_ms = 0;
    double nodes = 0;
    for (const obs::AttributedOp& row : report.ops) {
        const double ms = static_cast<double>(row.total_ns) * per_rank_ms;
        rows_ms += ms;
        if (const char* bucket = runtimeBucket(row.op)) {
            out[bucket] += ms;
            continue;
        }
        // A kernel row: one graph node kind executed under one module.
        const bool bwd = row.op.size() > 4 &&
                         row.op.compare(row.op.size() - 4, 4, ".bwd") == 0;
        std::string base = row.op.substr(0, row.op.size() - (bwd ? 4 : 0));
        std::transform(base.begin(), base.end(), base.begin(),
                       [](unsigned char c) { return std::tolower(c); });
        nodes += static_cast<double>(row.count);
        out[bwd ? "autograd.bwd_ms" : "autograd.fwd_ms"] += ms;
        out[base == "linear" || base == "matmul" ? "tensor.gemm_ms"
                                                 : "tensor.other_kernels_ms"] +=
            ms;
        out[moduleBucket(row.module_path, base, bwd ? ".bwd_ms" : ".fwd_ms")] +=
            ms;
    }
    const double wall_ms = static_cast<double>(report.wall_ns) * 1e-6;
    const double other_ms = static_cast<double>(report.other_ns) * 1e-6;
    out["autograd.nodes_per_step"] = nodes / report.world_size;
    out["autograd.engine_overhead_share"] =
        out["autograd.engine_overhead_ms"] / wall_ms;
    out["report.other_ms"] = other_ms;
    out["report.attributed_fraction"] = report.attributedFraction();
    out["report.wall_ms"] = wall_ms;
    out["report.overcount"] = (rows_ms + other_ms - wall_ms) / wall_ms;
    return out;
}

/**
 * Warm steps until `seconds` have passed and at least `min_steps` ran
 * (capped at `max_seconds`). With `traced`, step reports are on and each
 * step's report is attributed. Between steps, every kProbeEveryMs, the
 * host-speed probe runs.
 */
Phase
runWarm(const Workload& w, const models::SyntheticDataset& data,
        Session& session, double seconds, int64_t min_steps,
        double max_seconds, bool traced, HostProbe& probe)
{
    Phase phase;
    obs::Metrics& m = obs::metrics();
    obs::setStepReportsEnabled(traced);
    double probe_total_ms = 0;
    auto last_probe = Clock::now();
    const auto start = Clock::now();
    for (int64_t index = 1;; ++index) {
        StepSample s;
        auto t = Clock::now();
        const Batches batches = batchesFor(w, data, index);
        s.batch_ms = msSince(t);

        const int64_t hits = m.alloc_pool_hits.get();
        const int64_t misses = m.alloc_pool_misses.get();
        const int64_t pg_count = m.pg_count.get();
        const int64_t pg_wait = m.pg_wait_ns.get();
        const int64_t pg_copy = m.pg_copy_ns.get();
        // Window the live-bytes high-water mark to this step: drop the
        // gauge's all-time peak, then restore its level. Nothing else
        // allocates between steps, so the level is exact.
        const int64_t live = m.tensor_live_bytes.get();
        m.tensor_live_bytes.reset();
        m.tensor_live_bytes.add(live);

        t = Clock::now();
        try {
            const runtime::TrainStepStats stats = session.step(batches);
            s.step_ms = msSince(t);
            s.loss = stats.loss;
            s.ok = std::isfinite(stats.loss);
            s.stored_activation_bytes = stats.stored_activation_bytes;
            s.recomputed_nodes = stats.recomputed_nodes;
        } catch (const std::exception& e) {
            s.step_ms = msSince(t);
            std::fprintf(stderr, "step %lld failed: %s\n",
                         static_cast<long long>(index), e.what());
        }
        s.peak_live_bytes = m.tensor_live_bytes.peak();
        s.alloc_hits = m.alloc_pool_hits.get() - hits;
        s.alloc_misses = m.alloc_pool_misses.get() - misses;
        s.pg_count = m.pg_count.get() - pg_count;
        s.pg_wait_ns = m.pg_wait_ns.get() - pg_wait;
        s.pg_copy_ns = m.pg_copy_ns.get() - pg_copy;
        if (traced && s.ok) {
            s.layers = attributeReport(session.lastStepReport());
            // The part of the step() call the report's window leaves out:
            // the report's own assembly (and, on DataParallelTrainer, its
            // cross-rank gather), by this driver's clock.
            s.layers["report.outside_ms"] =
                s.step_ms - s.layers["report.wall_ms"];
        }
        phase.failed += s.ok ? 0 : 1;
        phase.steps.push_back(std::move(s));

        if (msSince(last_probe) >= kProbeEveryMs) {
            probe_total_ms += probe.run();
            last_probe = Clock::now();
        }
        const double elapsed = (msSince(start) - probe_total_ms) / 1e3;
        if ((elapsed >= seconds && index >= min_steps) ||
            elapsed >= max_seconds) {
            break;
        }
    }
    phase.wall_s = (msSince(start) - probe_total_ms) / 1e3;
    obs::setStepReportsEnabled(false);
    return phase;
}

/** Median over a phase's steps of one field. */
template <typename F>
double
medianOf(const Phase& phase, F field)
{
    std::vector<double> v;
    v.reserve(phase.steps.size());
    for (const StepSample& s : phase.steps) {
        v.push_back(static_cast<double>(field(s)));
    }
    return median(std::move(v));
}

/** A traced step's attributed value; 0 where the step has no such row. */
double
layerValue(const StepSample& s, const std::string& name)
{
    const auto it = s.layers.find(name);
    return it == s.layers.end() ? 0.0 : it->second;
}

/** `{"name": {"value": v, "unit": u}, ...}` writer. */
class MetricWriter
{
  public:
    void
    add(const std::string& name, double value, const std::string& unit)
    {
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%.17g",
                      std::isfinite(value) ? value : 0.0);
        out_ += (out_.empty() ? "" : ", ") + ("\"" + name + "\": {\"value\": ") +
                buf + ", \"unit\": \"" + unit + "\"}";
    }

    std::string json() const { return "{" + out_ + "}"; }

  private:
    std::string out_;
};

struct Args
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    bool smoke = false;
};

Args
parseArgs(int argc, char** argv)
{
    Args args;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        auto value = [&]() -> std::string {
            SLAPO_CHECK(i + 1 < argc, "missing value after " << flag);
            return argv[++i];
        };
        if (flag == "--workload") {
            args.workload = value();
        } else if (flag == "--seed") {
            args.seed = std::stoull(value());
        } else if (flag == "--seconds") {
            args.seconds = std::stod(value());
        } else if (flag == "--trace") {
            args.trace = std::stoi(value()) != 0;
        } else if (flag == "--smoke") {
            args.smoke = true;
        } else {
            SLAPO_THROW("unknown argument '" << flag << "'");
        }
    }
    SLAPO_CHECK(!args.workload.empty(), "--workload is required");
    SLAPO_CHECK(args.seconds >= 0, "--seconds must be >= 0");
    return args;
}

/** Longest a warm phase may run, so a run always ends in time. */
constexpr double kMaxWarmSeconds = 110;
/** Warm steps for a p90 with ten samples beyond it. */
constexpr int64_t kMinTimedSteps = 100;
/** Traced-step closure: (Σ buckets + other − wall) / wall, at most. */
constexpr double kMaxOvercount = 0.01;
constexpr double kMinAttributedFraction = 0.95;

int
run(const Args& args)
{
    Workload w = workloadByName(args.workload);
    if (args.smoke) {
        w.loss_step = std::max<int64_t>(2, w.loss_step / 10);
        w.loss_window = std::max<int64_t>(1, w.loss_window / 10);
        w.setups = 1;
    }
    obs::setStepReportsEnabled(false);
    setNumThreads(w.kernel_threads);
    const models::SyntheticDataset data("MLM", w.config.vocab,
                                        w.config.seq_len, args.seed);

    std::vector<std::string> problems;
    int64_t attempted = 0;
    int64_t failed = 0;

    // Set-ups: identical at a fixed seed, so their cold losses must agree
    // bit for bit. The last one's trainer runs the warm steps. The probe
    // runs after each one.
    HostProbe probe;
    std::vector<SetupTimes> setups;
    std::unique_ptr<Session> session;
    for (int i = 0; i < w.setups; ++i) {
        session.reset();
        SetupTimes times;
        session = setUp(w, args.seed, data, &times);
        probe.run();
        ++attempted;
        if (!std::isfinite(times.cold_loss)) {
            ++failed;
            problems.push_back("non-finite cold-step loss");
        }
        if (!setups.empty() && times.cold_loss != setups[0].cold_loss) {
            problems.push_back("cold-step loss differs between set-ups");
        }
        setups.push_back(times);
    }
    const double cold_loss = setups[0].cold_loss;

    const double seconds = args.smoke ? 0 : args.seconds;
    const int64_t min_steps = args.smoke || args.trace
                                  ? w.loss_step
                                  : std::max(w.loss_step, kMinTimedSteps);
    // Untraced warm steps; with --trace, half the time, then a second
    // identical set-up runs the other half traced.
    Phase plain = runWarm(w, data, *session, args.trace ? seconds / 2 : seconds,
                          min_steps, kMaxWarmSeconds / (args.trace ? 2 : 1),
                          /*traced=*/false, probe);
    Phase traced;
    if (args.trace) {
        session.reset();
        SetupTimes times;
        session = setUp(w, args.seed, data, &times);
        probe.run();
        ++attempted;
        setups.push_back(times);
        if (times.cold_loss != cold_loss) {
            problems.push_back("cold-step loss differs between set-ups");
        }
        traced = runWarm(w, data, *session, seconds / 2, min_steps,
                         kMaxWarmSeconds / 2, /*traced=*/true, probe);
    }
    session.reset();

    // Correctness gate: finite losses (counted per step), training makes
    // progress, tracing leaves the arithmetic alone.
    for (const Phase* p : {&plain, &traced}) {
        attempted += static_cast<int64_t>(p->steps.size());
        failed += p->failed;
    }
    if (failed > 0) {
        problems.push_back(std::to_string(failed) + " failed step(s)");
    }
    double loss_final = NAN;
    if (static_cast<int64_t>(plain.steps.size()) >= w.loss_step) {
        loss_final = 0;
        for (int64_t i = w.loss_step - w.loss_window; i < w.loss_step; ++i) {
            loss_final += plain.steps[i].loss;
        }
        loss_final /= static_cast<double>(w.loss_window);
    }
    if (!(loss_final < cold_loss)) {
        problems.push_back("loss did not fall below the cold-step loss");
    }
    if (args.trace) {
        const size_t common = std::min(plain.steps.size(), traced.steps.size());
        for (size_t i = 0; i < common; ++i) {
            if (plain.steps[i].loss != traced.steps[i].loss) {
                problems.push_back("traced loss differs from untraced at step " +
                                   std::to_string(i + 1));
                break;
            }
        }
    }
    // The windowed peak of a single-rank step is a pure function of the
    // shapes, so it repeats exactly; ranks interleave allocations.
    int64_t peak = 0;
    for (const StepSample& s : plain.steps) {
        if (w.ranks == 1 && s.peak_live_bytes != plain.steps[0].peak_live_bytes) {
            problems.push_back("windowed peak_live_bytes varies between steps");
            break;
        }
        peak = std::max(peak, s.peak_live_bytes);
    }

    std::vector<double> step_ms;
    for (const StepSample& s : plain.steps) step_ms.push_back(s.step_ms);
    const double step_p50 = median(step_ms);
    const double step_p90 = percentile(step_ms, 0.9);
    std::vector<double> setup_s;
    for (const SetupTimes& t : setups) setup_s.push_back(t.total_s);
    const double setup_p50 = median(setup_s);
    const double global_batch = static_cast<double>(w.batch * w.ranks);
    const double samples_per_s =
        global_batch * static_cast<double>(plain.steps.size()) / plain.wall_s;
    // End-to-end times are reported at the reference host speed: divided
    // by how much slower than kProbeReferenceMs the probe ran in this run.
    const double probe_p50 = median(probe.samples());
    const double slowdown = probe_p50 / kProbeReferenceMs;

    MetricWriter metrics;
    if (!args.trace) {
        metrics.add("samples_per_s", samples_per_s * slowdown, "samples/s");
        metrics.add("step_ms_p50", step_p50 / slowdown, "ms");
        metrics.add("step_ms_p90", step_p90 / slowdown, "ms");
        metrics.add("peak_live_bytes", static_cast<double>(peak), "bytes");
        metrics.add("setup_s", setup_p50 / slowdown, "s");
        metrics.add("loss_final", loss_final, "nats");
    } else {
        const double ranks = w.ranks;
        const auto setupMedian = [&](double SetupTimes::*field) {
            std::vector<double> v;
            for (const SetupTimes& t : setups) v.push_back(t.*field);
            return median(std::move(v));
        };
        metrics.add("models.build_ms", setupMedian(&SetupTimes::build_ms), "ms");
        metrics.add("models.batch_ms",
                    medianOf(plain, [](const StepSample& s) { return s.batch_ms; }),
                    "ms");
        metrics.add("core.schedule_ms", setupMedian(&SetupTimes::schedule_ms),
                    "ms");
        metrics.add("core.verify_ms", setupMedian(&SetupTimes::verify_ms), "ms");
        metrics.add("runtime.trainer_init_ms",
                    setupMedian(&SetupTimes::trainer_init_ms), "ms");
        metrics.add("runtime.cold_step_ms",
                    setupMedian(&SetupTimes::cold_step_ms), "ms");
        const double traced_p50 =
            medianOf(traced, [](const StepSample& s) { return s.step_ms; });
        metrics.add("runtime.step_ms", traced_p50, "ms");

        // Counters from the untraced phase (the traced DataParallelTrainer
        // step runs extra collectives to gather its cross-rank spread).
        int64_t hits = 0;
        int64_t misses = 0;
        for (const StepSample& s : plain.steps) {
            hits += s.alloc_hits;
            misses += s.alloc_misses;
        }
        metrics.add("tensor.alloc_hit_ratio",
                    hits + misses > 0
                        ? static_cast<double>(hits) / static_cast<double>(hits + misses)
                        : 0,
                    "ratio");
        metrics.add("tensor.alloc_misses_per_step",
                    medianOf(plain, [](const StepSample& s) {
                        return s.alloc_misses;
                    }) / ranks,
                    "count");
        metrics.add("runtime.pg_wait_ms",
                    medianOf(plain, [](const StepSample& s) {
                        return s.pg_wait_ns;
                    }) * 1e-6 / ranks,
                    "ms");
        metrics.add("runtime.pg_copy_ms",
                    medianOf(plain, [](const StepSample& s) {
                        return s.pg_copy_ns;
                    }) * 1e-6 / ranks,
                    "ms");
        metrics.add("runtime.pg_calls_per_step",
                    medianOf(plain, [](const StepSample& s) { return s.pg_count; }) /
                        ranks,
                    "count");
        metrics.add("runtime.stored_activation_bytes",
                    medianOf(plain, [](const StepSample& s) {
                        return s.stored_activation_bytes;
                    }),
                    "bytes");
        metrics.add("runtime.recomputed_nodes",
                    medianOf(plain, [](const StepSample& s) {
                        return s.recomputed_nodes;
                    }) / ranks,
                    "count");

        // Report-attributed rows: medians over the traced steps.
        std::vector<std::string> names = {
            "autograd.fwd_ms", "autograd.bwd_ms", "autograd.engine_overhead_ms",
            "autograd.engine_overhead_share", "autograd.nodes_per_step",
            "tensor.gemm_ms", "tensor.other_kernels_ms", "tensor.optim_ms",
            "runtime.grad_reduce_ms", "runtime.grad_exchange_ms",
            "runtime.executor_ms", "nn.embeddings.fwd_ms", "nn.embeddings.bwd_ms"};
        for (int i = 0; i < 4; ++i) {
            for (const char* block : {"attention", "ffn"}) {
                for (const char* dir : {"fwd_ms", "bwd_ms"}) {
                    names.push_back("nn.layer" + std::to_string(i) + "." + block +
                                    "." + dir);
                }
            }
        }
        for (const char* n : {"nn.head.fwd_ms", "nn.head.bwd_ms", "nn.loss.fwd_ms",
                              "nn.loss.bwd_ms", "nn.recompute_unindexed_ms",
                              "nn.unscoped_ms", "report.attributed_fraction",
                              "report.other_ms", "report.outside_ms"}) {
            names.push_back(n);
        }
        for (const std::string& name : names) {
            const double v = medianOf(
                traced, [&](const StepSample& s) { return layerValue(s, name); });
            const bool ratio = name == "autograd.engine_overhead_share" ||
                               name == "report.attributed_fraction";
            metrics.add(name, v,
                        ratio ? "ratio"
                              : name == "autograd.nodes_per_step" ? "count" : "ms");
            if (name == "report.attributed_fraction" &&
                v < kMinAttributedFraction) {
                problems.push_back("attributed fraction below 0.95");
            }
        }
        metrics.add("trace.overhead_share", traced_p50 / step_p50 - 1, "ratio");

        for (const StepSample& s : traced.steps) {
            if (s.ok && !(layerValue(s, "report.overcount") <= kMaxOvercount)) {
                problems.push_back("per-layer rows add up to more than the "
                                   "report's wall");
                break;
            }
        }
    }

    for (const std::string& p : problems) {
        std::fprintf(stderr, "step_bench: %s: %s\n", w.name.c_str(), p.c_str());
    }
    // The untraced phase's times as measured, before the host-speed scaling.
    MetricWriter raw;
    raw.add("samples_per_s", samples_per_s, "samples/s");
    raw.add("step_ms_p50", step_p50, "ms");
    raw.add("step_ms_p90", step_p90, "ms");
    raw.add("setup_s", setup_p50, "s");
    std::printf("{\"context\": {\"workload\": \"%s\", \"seed\": %llu, "
                "\"trace\": %d, \"smoke\": %d, \"kernel_threads\": %d, "
                "\"ranks\": %d, \"nproc\": %d, \"global_batch\": %lld, "
                "\"warm_steps\": %zu, \"traced_steps\": %zu, "
                "\"loss_step\": %lld, \"loss_window\": %lld, \"setups\": %zu, "
                "\"probes\": %zu, \"probe_ms_p50\": %.17g, "
                "\"probe_reference_ms\": %.17g, \"raw\": %s, "
                "\"compiler\": \"%s\", \"flags\": \"%s\"}}\n",
                w.name.c_str(), static_cast<unsigned long long>(args.seed),
                args.trace ? 1 : 0, args.smoke ? 1 : 0, w.kernel_threads,
                w.ranks, usableCpus(), static_cast<long long>(global_batch),
                plain.steps.size(), traced.steps.size(),
                static_cast<long long>(w.loss_step),
                static_cast<long long>(w.loss_window), setups.size(),
                probe.samples().size(), probe_p50, kProbeReferenceMs,
                raw.json().c_str(), STEPBENCH_COMPILER, STEPBENCH_FLAGS);
    std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
                "\"metrics\": %s}\n",
                problems.empty() ? "true" : "false",
                static_cast<long long>(attempted),
                static_cast<long long>(failed), metrics.json().c_str());
    return 0;
}

} // namespace

int
main(int argc, char** argv)
{
    try {
        return run(parseArgs(argc, argv));
    } catch (const std::exception& e) {
        std::fprintf(stderr, "step_bench: %s\n", e.what());
        return 2;
    }
}
