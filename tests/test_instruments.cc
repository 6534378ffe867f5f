/**
 * @file
 * One instrumentation hook (docs/OBSERVABILITY.md, "Cost model"): every
 * installed profiler receives every row, so a user profiler and the
 * per-step report profilers see the same work; rows count once towards
 * the remainder rows however many profilers they reach; and the
 * SLAPO_* knob list flags misspelled variables.
 */
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "models/registry.h"
#include "nn/layers.h"
#include "obs/instruments.h"
#include "obs/profiler.h"
#include "obs/provenance.h"
#include "obs/step_report.h"
#include "runtime/autograd.h"
#include "runtime/trainer.h"

namespace slapo {
namespace {

using RowKey = std::tuple<std::string, std::string, std::string>;

struct RowSum
{
    int64_t count = 0;
    int64_t total_ns = 0;
};

/** Fold a report's attributed rows into `sums`, keyed by (op, module,
 * primitive). */
void
addRows(const obs::StepReport& report, std::map<RowKey, RowSum>& sums)
{
    for (const obs::AttributedOp& op : report.ops) {
        RowSum& sum = sums[{op.op, op.module_path, op.primitive}];
        sum.count += op.count;
        sum.total_ns += op.total_ns;
    }
}

/** Each step report is checked on its own, then its rows are summed. */
void
checkReport(const obs::StepReport& report, std::map<RowKey, RowSum>& sums)
{
    EXPECT_GE(report.attributedFraction(), 0.95) << report.toJson();
    int64_t overhead_ns = 0;
    for (const obs::AttributedOp& op : report.ops) {
        if (op.op == "engine.overhead") {
            overhead_ns += op.total_ns;
        }
    }
    EXPECT_GT(overhead_ns, 0) << report.toJson();
    addRows(report, sums);
}

/** The user profiler's rows, attributed exactly as a step report would. */
std::map<RowKey, RowSum>
userRows(const obs::OpProfiler& profiler, int world_size)
{
    std::map<RowKey, RowSum> sums;
    addRows(obs::buildStepReport(profiler, {}, 0, world_size, -1), sums);
    return sums;
}

std::vector<std::vector<Tensor>>
microBatches(int n, uint64_t seed)
{
    std::vector<std::vector<Tensor>> micros;
    for (int m = 0; m < n; ++m) {
        micros.push_back({Tensor::randint({1, 8}, 64, seed + 2 * m),
                          Tensor::randint({1, 8}, 64, seed + 2 * m + 1)});
    }
    return micros;
}

void
expectSameRows(const std::map<RowKey, RowSum>& user,
               const std::map<RowKey, RowSum>& reports, bool same_totals)
{
    ASSERT_FALSE(user.empty());
    EXPECT_EQ(user.size(), reports.size());
    for (const auto& [key, sum] : user) {
        const std::string row = std::get<0>(key) + "@" + std::get<1>(key) +
                                " [" + std::get<2>(key) + "]";
        auto it = reports.find(key);
        ASSERT_NE(it, reports.end()) << row << " missing from step reports";
        EXPECT_EQ(sum.count, it->second.count) << row;
        if (same_totals) {
            EXPECT_EQ(sum.total_ns, it->second.total_ns) << row;
        }
    }
}

TEST(Instruments, UserProfilerAndStepReportsSeeTheSameTrainerRows)
{
    obs::clearProvenance();
    auto model =
        runtime::withCrossEntropyLoss(models::buildTinyModel("bert"));
    model->initializeParams(501);
    runtime::Trainer trainer(model);
    const auto micros = microBatches(2, 510);

    obs::OpProfiler user;
    std::map<RowKey, RowSum> reported;
    {
        obs::OpProfilerGuard guard(&user);
        obs::setStepReportsEnabled(true);
        for (int step = 0; step < 2; ++step) {
            trainer.step(micros);
            checkReport(trainer.lastStepReport(), reported);
        }
        obs::setStepReportsEnabled(false);
    }
    expectSameRows(userRows(user, 1), reported, /*same_totals=*/true);
}

TEST(Instruments, UserProfilerAndStepReportsSeeTheSameDataParallelRows)
{
    obs::clearProvenance();
    auto model =
        runtime::withCrossEntropyLoss(models::buildTinyModel("bert"));
    model->initializeParams(521);
    runtime::DataParallelTrainer dp(*model, 2);
    const auto shards = microBatches(2, 530);

    obs::OpProfiler user;
    std::map<RowKey, RowSum> reported;
    {
        obs::OpProfilerGuard guard(&user);
        obs::setStepReportsEnabled(true);
        for (int step = 0; step < 2; ++step) {
            dp.step(shards);
            checkReport(dp.lastStepReport(), reported);
        }
        obs::setStepReportsEnabled(false);
    }
    // Rank threads fold into both profilers concurrently; every row
    // still reaches both with the same duration.
    expectSameRows(userRows(user, 2), reported, /*same_totals=*/true);
}

TEST(Instruments, NestedProfilersSeeEveryRowWhichCountsOnce)
{
    auto model = runtime::withMseLoss(std::make_shared<nn::Linear>(3, 1));
    model->initializeParams(7);
    obs::OpProfiler outer, inner;
    const int64_t before = obs::OpProfiler::threadRecordedNs();
    {
        obs::OpProfilerGuard outer_guard(&outer);
        obs::OpProfilerGuard inner_guard(&inner);
        EXPECT_EQ(obs::OpProfiler::current(), &inner);
        runtime::AutogradEngine engine;
        engine.run(*model,
                   {Tensor::full({2, 3}, 0.5f), Tensor::full({2, 1}, 1.0f)});
    }
    EXPECT_EQ(obs::OpProfiler::current(), nullptr);

    const std::vector<obs::OpStats> a = outer.report();
    const std::vector<obs::OpStats> b = inner.report();
    ASSERT_FALSE(a.empty());
    ASSERT_EQ(a.size(), b.size());
    int64_t total = 0;
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].op, b[i].op);
        EXPECT_EQ(a[i].count, b[i].count);
        EXPECT_EQ(a[i].total_ns, b[i].total_ns);
        total += a[i].total_ns;
    }
    EXPECT_EQ(obs::OpProfiler::threadRecordedNs() - before, total);
}

TEST(Instruments, EverythingOffMeansNoTimingAndNoPath)
{
    ASSERT_EQ(obs::instruments() & obs::kNodeInstruments, 0u);
    obs::RowTimer phase(obs::RowTimer::kRow, "optimizer.step", "baseline");
    EXPECT_EQ(phase.elapsedNs(), -1);
    obs::ModuleScope scope("encoder");
    EXPECT_EQ(obs::ModuleScope::currentPath(), "");

    obs::OpProfiler profiler;
    obs::OpProfilerGuard guard(&profiler);
    obs::RowTimer timed(obs::RowTimer::kRow, "optimizer.step", "baseline");
    EXPECT_GE(timed.elapsedNs(), 0);
}

TEST(Instruments, UnknownKnobsAreFlagged)
{
    const char* environment[] = {
        "PATH=/usr/bin",          "SLAPO_STEP_REPORTS=r.jsonl",
        "SLAPO_TRACE=trace.json", "SLAPO_NUM_THREAD=4",
        "NOT_SLAPO_TRACE=1",      "SLAPO_LINT",
        nullptr,
    };
    const std::vector<std::string> want = {"SLAPO_STEP_REPORTS",
                                           "SLAPO_NUM_THREAD"};
    EXPECT_EQ(obs::unknownKnobs(environment), want);

    // The 16 runtime knobs (docs/OBSERVABILITY.md) and the regression
    // gate's two are all known.
    const char* knobs[] = {
        "SLAPO_TRACE=t.json",     "SLAPO_OP_PROFILE=1",
        "SLAPO_STEP_REPORT=r",    "SLAPO_MEM_PROFILE=1",
        "SLAPO_MEM_BUDGET=1024",  "SLAPO_MEM_BUDGET_ACTION=throw",
        "SLAPO_MEM_DUMP=m.json",  "SLAPO_RUN_LOG=run.jsonl",
        "SLAPO_WATCHDOG_MS=500",  "SLAPO_FLIGHT_DUMP=f.jsonl",
        "SLAPO_FAILPOINTS=",      "SLAPO_NUM_THREADS=2",
        "SLAPO_ALLOC=malloc",     "SLAPO_MEMPLAN=0",
        "SLAPO_BUCKET_BYTES=256", "SLAPO_LINT=off",
        "SLAPO_REGRESSION_PCT=150", "SLAPO_REGRESSION_MIN_NS=100000",
        nullptr,
    };
    EXPECT_TRUE(obs::unknownKnobs(knobs).empty());
}

} // namespace
} // namespace slapo
