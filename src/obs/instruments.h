/**
 * @file
 * The one enable word behind tracing, op profiling, memory profiling and
 * step reports (docs/OBSERVABILITY.md, "Cost model"): one bit each, read
 * with one relaxed load, so with every instrument off a graph node pays
 * one load however many instruments could observe it. The first read
 * runs the one environment probe over the seven observability variables
 * (SLAPO_TRACE, SLAPO_OP_PROFILE, SLAPO_STEP_REPORT, SLAPO_MEM_PROFILE,
 * SLAPO_MEM_BUDGET, SLAPO_MEM_BUDGET_ACTION, SLAPO_MEM_DUMP) and warns
 * once about any set SLAPO_* variable nothing reads (unknownKnobs()).
 */
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace slapo {
namespace obs {

enum Instrument : uint32_t
{
    kTrace = 1u << 0,      ///< a Chrome trace is being recorded
    kOpProfile = 1u << 1,  ///< at least one OpProfiler is installed
    kMemProfile = 1u << 2, ///< the live-tensor registry is recording
    kStepReport = 1u << 3, ///< trainers build a report per step
    kUnprobed = 1u << 31,  ///< the environment probe has not run yet
};

/** The instruments a graph node or module scope serves. */
constexpr uint32_t kNodeInstruments = kTrace | kOpProfile | kMemProfile;

namespace detail {
extern std::atomic<uint32_t> g_instruments;
/** Run the environment probe (once; re-entrant); returns the word. */
uint32_t probeInstruments();
/** Set or clear `bits` without probing. Public setters probe first, so
 * the environment never overrides a programmatic choice. */
void setInstruments(uint32_t bits, bool on);
/** SLAPO_STEP_REPORT's value as the probe read it ("" = unset). */
std::string stepReportPath();
} // namespace detail

/** The enable word: one relaxed load once the probe has run. */
inline uint32_t
instruments()
{
    const uint32_t word = detail::g_instruments.load(std::memory_order_relaxed);
    return (word & kUnprobed) != 0 ? detail::probeInstruments() : word;
}

/** Names of the SLAPO_* entries of `environment` ("NAME=value" strings,
 * null-terminated like `environ`) that nothing in the runtime reads (the
 * knob table in docs/OBSERVABILITY.md), in input order. */
std::vector<std::string> unknownKnobs(const char* const* environment);

} // namespace obs
} // namespace slapo
