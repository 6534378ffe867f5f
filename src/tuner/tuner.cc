#include "tuner/tuner.h"

#include <algorithm>
#include <chrono>
#include <map>
#include <optional>

#include "analysis/diagnostic.h"
#include "obs/json_util.h"
#include "obs/mem_profiler.h"
#include "obs/metrics.h"
#include "obs/run_log.h"
#include "obs/step_report.h"
#include "obs/trace.h"
#include "tensor/tensor.h"

namespace slapo {
namespace tuner {

namespace {

/** A Config rendered as a flat JSON object (for run-log records). */
std::string
configJson(const Config& config)
{
    std::string out = "{";
    bool first = true;
    for (const auto& [name, value] : config) {
        if (!first) out += ",";
        first = false;
        out += obs::json::quoted(name) + ":" + obs::json::number(value);
    }
    return out + "}";
}

/** Memoizing evaluation wrapper shared by both algorithms. */
class Evaluator
{
  public:
    explicit Evaluator(const EvalFn& eval) : eval_(eval) {}

    double
    operator()(const Config& config, TuneResult& result)
    {
        auto it = cache_.find(config);
        if (it != cache_.end()) {
            return it->second;
        }
        // Scoped metric window + wall clock per trial: trials see their
        // own contribution, not the accumulated run.
        const obs::MetricsDelta window;
        // With step reports enabled, profile the trial so the trial
        // record carries the same per-primitive breakdown a training
        // step would — "which primitive did this config spend its time
        // in" is exactly what the tuner's value number can't tell you.
        std::optional<obs::StepReportBuilder> report_builder;
        if (obs::stepReportsEnabled()) {
            report_builder.emplace(1);
        }
        // Measured memory per trial: an attribution window over the
        // eval, plus the sim's predicted peak when the eval ran the
        // performance model (obs::reportSimPeakBytes side channel).
        obs::MemWindow mem_window; // inert unless memProfilingEnabled()
        (void)obs::takeSimPeakBytes(); // drop any stale prediction
        const auto t0 = std::chrono::steady_clock::now();
        // Trial admission: a config whose schedule fails the static lint
        // is pruned for free — the gate fires before any tensor math, so
        // the trial costs microseconds and scores like any other
        // infeasible config (non-positive value).
        double value = 0.0;
        bool pruned_static = false;
        std::string lint_codes;
        try {
            value = eval_(config);
        } catch (const analysis::StaticLintError& e) {
            pruned_static = true;
            lint_codes = e.diagnostics().errorCodes();
        }
        const double sim_peak = obs::takeSimPeakBytes();
        std::optional<obs::StepReport> report;
        if (report_builder) {
            report = report_builder->finish(
                static_cast<int64_t>(result.evaluated));
        }
        const bool mem_measured = mem_window.active();
        const int64_t mem_peak = mem_measured
                                     ? mem_window.peakBytes()
                                     : window.get("tensor.peak_bytes");
        // Budget pruning on *measured* peak: a config that exceeds the
        // memory budget is infeasible regardless of its throughput —
        // same contract as an EvalFn returning a non-positive value.
        const int64_t budget = obs::memBudgetBytes();
        const bool over_budget =
            mem_measured && budget >= 0 && mem_peak > budget;
        if (over_budget && value > 0) {
            value = 0;
        }
        cache_.emplace(config, value);
        ++result.evaluated;
        result.history.emplace_back(config, value);
        const bool is_best = value > result.best_value;
        if (is_best) {
            result.best_value = value;
            result.best = config;
        }
        if (obs::RunLog* log = obs::runLog()) {
            const double eval_ms = obs::msSince(t0);
            obs::RunLogRecord record("tuner.trial");
            record.num("trial", static_cast<int64_t>(result.evaluated))
                .raw("config", configJson(config))
                .num("value", value)
                .flag("is_best", is_best)
                .num("eval_ms", eval_ms)
                .num("pg_wait_ns", window.get("pg.wait_ns"))
                .num("mem_peak_bytes", mem_peak);
            if (mem_measured) {
                record.raw("mem_categories", mem_window.categoriesJson());
            }
            if (sim_peak >= 0) {
                // Close the loop with the paper's performance model:
                // predicted peak next to the measured one, and the
                // relative error of the prediction.
                record.num("mem_sim_peak_bytes", sim_peak);
                if (sim_peak > 0) {
                    record.num("mem_rel_error",
                               (static_cast<double>(mem_peak) - sim_peak) /
                                   sim_peak);
                }
            }
            if (over_budget) {
                record.flag("pruned_over_budget", true);
            }
            if (pruned_static) {
                record.flag("pruned_static", true)
                    .str("lint_codes", lint_codes);
            }
            if (report) {
                record.raw("breakdown", report->primitivesJson());
            }
            log->write(record);
        }
        return value;
    }

  private:
    const EvalFn& eval_;
    std::map<Config, double> cache_;
};

} // namespace

TuneResult
exhaustiveSearch(const SearchSpace& space, const EvalFn& eval)
{
    TuneResult result;
    Evaluator evaluate(eval);
    for (const Config& config : space.enumerate()) {
        evaluate(config, result);
    }
    return result;
}

TuneResult
coordinateDescent(const SearchSpace& space, const EvalFn& eval,
                  const CoordinateDescentOptions& options)
{
    const std::vector<Config> valid = space.enumerate();
    TuneResult result;
    if (valid.empty()) {
        return result;
    }
    Evaluator evaluate(eval);
    Rng rng(options.seed);

    for (int restart = 0; restart < options.restarts; ++restart) {
        Config current = valid[rng.next() % valid.size()];
        double current_value = evaluate(current, result);

        for (int sweep = 0; sweep < options.max_sweeps; ++sweep) {
            bool improved = false;
            // Random coordinate order each sweep.
            std::vector<size_t> order(space.vars().size());
            for (size_t i = 0; i < order.size(); ++i) order[i] = i;
            for (size_t i = order.size(); i > 1; --i) {
                std::swap(order[i - 1], order[rng.next() % i]);
            }
            for (size_t coord : order) {
                const SymbolicVar& var = space.vars()[coord];
                Config best_move = current;
                double best_value = current_value;
                for (double candidate : var.candidates) {
                    if (candidate == current.at(var.name)) {
                        continue;
                    }
                    Config trial = current;
                    trial[var.name] = candidate;
                    if (!space.valid(trial)) {
                        continue;
                    }
                    const double value = evaluate(trial, result);
                    if (value > best_value) {
                        best_value = value;
                        best_move = std::move(trial);
                    }
                }
                if (best_value > current_value) {
                    current = std::move(best_move);
                    current_value = best_value;
                    improved = true;
                }
            }
            if (!improved) {
                break;
            }
        }
    }
    return result;
}

} // namespace tuner
} // namespace slapo
