#include "runtime/process_group.h"

#include <chrono>

#include "nn/context.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "support/failpoint.h"
#include "tensor/ops.h"

namespace slapo {
namespace runtime {

namespace {

/** allReduce / broadcast / barrier: deposits must match exactly. */
std::string
validateSameShape(const Tensor& ref, const Tensor& mine)
{
    if (mine.shape() != ref.shape()) {
        return (detail::MessageBuilder()
                << "tensor shape " << shapeToString(mine.shape())
                << " does not match the group's shape "
                << shapeToString(ref.shape()))
            .str();
    }
    return {};
}

/** allGather(axis): extents must agree everywhere except `axis`. */
std::string
validateGatherShape(const Tensor& ref, const Tensor& mine, int64_t axis)
{
    const Shape& a = ref.shape();
    const Shape& b = mine.shape();
    const int64_t resolved =
        axis < 0 ? axis + static_cast<int64_t>(a.size()) : axis;
    if (a.size() != b.size()) {
        return (detail::MessageBuilder()
                << "tensor rank " << b.size() << " does not match the group's "
                << a.size())
            .str();
    }
    for (size_t d = 0; d < a.size(); ++d) {
        if (static_cast<int64_t>(d) != resolved && a[d] != b[d]) {
            return (detail::MessageBuilder()
                    << "non-concat extent mismatch at dim " << d << ": "
                    << shapeToString(b) << " vs " << shapeToString(a)
                    << " (concat axis " << axis << ")")
                .str();
        }
    }
    return {};
}

/** Marks the flight-recorder exit on every path out of a rendezvous:
 * normal return → completed, exception unwind → aborted. */
struct FlightGuard
{
    obs::FlightRecorder& recorder;
    int rank;
    int64_t token;
    bool ok = false;

    ~FlightGuard() { recorder.end(rank, token, !ok); }
};

} // namespace

ProcessGroup::ProcessGroup(int world_size, ProcessGroupOptions options)
    : world_size_(world_size), timeout_ms_(options.timeout_ms),
      slots_(world_size), results_(world_size),
      lost_(static_cast<size_t>(world_size < 1 ? 1 : world_size), 0),
      rank_counters_(new RankCounters[static_cast<size_t>(
          world_size < 1 ? 1 : world_size)])
{
    SLAPO_CHECK(world_size >= 1, "ProcessGroup: world size must be >= 1");
    makeFlightRecorder();
}

void
ProcessGroup::makeFlightRecorder()
{
    // Generation 1 keeps the historical plain "pg" label; rebuilt worlds
    // are tagged so a dump names the generation it died in.
    flight_ = std::make_unique<obs::FlightRecorder>(world_size_);
    if (membership_generation_ > 1) {
        flight_->setLabel("pg.gen" +
                          std::to_string(membership_generation_));
    }
}

RankPgStats
ProcessGroup::rankStats(int rank) const
{
    RankPgStats out;
    if (rank < 0 || rank >= world_size_) {
        return out;
    }
    const RankCounters& c = rank_counters_[static_cast<size_t>(rank)];
    out.count = c.count.load(std::memory_order_relaxed);
    out.wait_ns = c.wait_ns.load(std::memory_order_relaxed);
    out.copy_ns = c.copy_ns.load(std::memory_order_relaxed);
    return out;
}

void
ProcessGroup::setTimeout(int64_t timeout_ms)
{
    std::lock_guard<std::mutex> lock(mutex_);
    timeout_ms_ = timeout_ms;
}

void
ProcessGroup::abortLocked(const std::string& site, int rank,
                          const std::string& reason)
{
    if (aborted_) {
        return; // first failure wins; later ones are echoes
    }
    aborted_ = true;
    abort_site_ = site;
    abort_rank_ = rank;
    abort_generation_ = generation_;
    abort_member_generation_ = membership_generation_;
    abort_reason_ = reason;
    // Capture the flight-recorder dump *now*, before any blocked rank
    // unwinds: the dump must show who was still inside the collective
    // and who never arrived (docs/OBSERVABILITY.md). The recorder's
    // label carries the membership generation, so the dump is tagged
    // with the generation that is dying.
    flight_->autoDumpOnError();
    // And the trace collected so far, for the same reason: a run that
    // dies here would otherwise lose its SLAPO_TRACE output, which is
    // exactly the timeline you want next to the hang dump.
    obs::flushTrace();
    cv_.notify_all();
}

void
ProcessGroup::abort(const std::string& site, int rank,
                    const std::string& reason)
{
    std::lock_guard<std::mutex> lock(mutex_);
    abortLocked(site, rank, reason);
}

bool
ProcessGroup::aborted() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return aborted_;
}

int
ProcessGroup::abortRank() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return aborted_ ? abort_rank_ : -1;
}

void
ProcessGroup::declareLost(int rank, const std::string& reason)
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (rank < 0 || rank >= world_size_ || lost_[static_cast<size_t>(rank)]) {
        return;
    }
    lost_[static_cast<size_t>(rank)] = 1;
    abortLocked("elastic.lost", rank, reason);
    // abortLocked only notifies on the *first* abort; a later loss
    // declaration must still wake confirmLost waiters.
    cv_.notify_all();
}

std::vector<int>
ProcessGroup::lostRanks() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<int> lost;
    for (int r = 0; r < world_size_; ++r) {
        if (lost_[static_cast<size_t>(r)]) {
            lost.push_back(r);
        }
    }
    return lost;
}

bool
ProcessGroup::confirmLost(int rank, int64_t deadline_ms) const
{
    std::unique_lock<std::mutex> lock(mutex_);
    if (rank < 0 || rank >= world_size_) {
        return false;
    }
    auto declared = [&] { return lost_[static_cast<size_t>(rank)] != 0; };
    if (deadline_ms <= 0) {
        return declared();
    }
    cv_.wait_for(lock, std::chrono::milliseconds(deadline_ms), declared);
    return declared();
}

int64_t
ProcessGroup::membershipGeneration() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return membership_generation_;
}

void
ProcessGroup::rebuild(const std::vector<int>& survivors)
{
    std::lock_guard<std::mutex> lock(mutex_);
    SLAPO_CHECK(!survivors.empty(),
                "ProcessGroup::rebuild: no survivors to rebuild over");
    SLAPO_CHECK(static_cast<int>(survivors.size()) <= world_size_,
                "ProcessGroup::rebuild: more survivors ("
                    << survivors.size() << ") than current ranks ("
                    << world_size_ << ")");
    int prev = -1;
    for (int r : survivors) {
        SLAPO_CHECK(r > prev && r < world_size_,
                    "ProcessGroup::rebuild: survivor ranks must be "
                    "ascending, unique, and in [0, "
                        << world_size_ << "); got rank " << r);
        SLAPO_CHECK(!lost_[static_cast<size_t>(r)],
                    "ProcessGroup::rebuild: rank "
                        << r << " was declared lost but listed as survivor");
        prev = r;
    }
    const int new_world = static_cast<int>(survivors.size());
    // Carry the survivors' counters into their new rank slots, minus the
    // wait they burned hanging in the aborted step (same policy as
    // reset()). Dead ranks' counters go with them.
    std::unique_ptr<RankCounters[]> counters(
        new RankCounters[static_cast<size_t>(new_world)]);
    for (int nr = 0; nr < new_world; ++nr) {
        const RankCounters& old =
            rank_counters_[static_cast<size_t>(survivors[nr])];
        RankCounters& fresh = counters[static_cast<size_t>(nr)];
        fresh.count.store(old.count.load(std::memory_order_relaxed),
                          std::memory_order_relaxed);
        fresh.wait_ns.store(
            old.wait_ns.load(std::memory_order_relaxed) -
                old.aborted_wait_ns.load(std::memory_order_relaxed),
            std::memory_order_relaxed);
        fresh.copy_ns.store(old.copy_ns.load(std::memory_order_relaxed),
                            std::memory_order_relaxed);
    }
    rank_counters_ = std::move(counters);
    world_size_ = new_world;
    slots_.assign(static_cast<size_t>(new_world), Tensor());
    results_.assign(static_cast<size_t>(new_world), Tensor());
    lost_.assign(static_cast<size_t>(new_world), 0);
    arrived_ = 0;
    first_rank_ = -1;
    aborted_ = false;
    abort_site_.clear();
    abort_rank_ = -1;
    abort_reason_.clear();
    ++generation_;
    ++membership_generation_;
    makeFlightRecorder();
    cv_.notify_all();
}

void
ProcessGroup::reset()
{
    std::lock_guard<std::mutex> lock(mutex_);
    aborted_ = false;
    abort_site_.clear();
    abort_rank_ = -1;
    abort_reason_.clear();
    arrived_ = 0;
    first_rank_ = -1;
    // Advance the generation so a stale waiter (there should be none —
    // reset() requires all rank threads joined) can never confuse a
    // pre-abort collective with a post-reset one.
    ++generation_;
    for (Tensor& slot : slots_) {
        slot = Tensor();
    }
    // Drop the wait time ranks burned blocked in the aborted collective:
    // it measures the failure, not rank skew, and would otherwise
    // dominate every post-recovery skew report.
    for (int r = 0; r < world_size_; ++r) {
        RankCounters& rc = rank_counters_[static_cast<size_t>(r)];
        const int64_t polluted =
            rc.aborted_wait_ns.exchange(0, std::memory_order_relaxed);
        if (polluted != 0) {
            rc.wait_ns.fetch_sub(polluted, std::memory_order_relaxed);
        }
    }
    flight_->rearmAutoDump();
}

void
ProcessGroup::throwAborted(int64_t waited_ms) const
{
    throw CollectiveError(abort_site_, abort_rank_, abort_generation_,
                          abort_reason_, waited_ms,
                          abort_member_generation_);
}

Tensor
ProcessGroup::rendezvous(const char* site, int rank, const Tensor& tensor,
                         const ValidateFn& validate, const ComputeFn& compute)
{
    SLAPO_CHECK(rank >= 0 && rank < world_size_,
                "ProcessGroup: bad rank " << rank);
    support::failpoint::hit(site, rank);
    // Observability: one span per collective entry, with the rendezvous
    // wait (blocked on peers) separated from data movement (reduction
    // compute + result copy) both as child spans and as the always-on
    // pg.wait_ns / pg.copy_ns counters (docs/OBSERVABILITY.md).
    using Clock = std::chrono::steady_clock;
    obs::TraceSpan span(site, "pg");
    span.arg("rank", static_cast<int64_t>(rank));
    obs::metrics().pg_count.add(1);
    RankCounters& rc = rank_counters_[static_cast<size_t>(rank)];
    rc.count.fetch_add(1, std::memory_order_relaxed);
    const Shape& dims = tensor.shape();
    FlightGuard flight{*flight_, rank,
                       flight_->begin(rank, site, dims.data(),
                                      static_cast<int>(dims.size()))};
    // Elastic membership: a thread spawned into an older world (its
    // DistContext pins the membership generation it joined) must not
    // deposit into a rebuilt group — its rank id means something else
    // now. Reject the stale deposit with an error naming both epochs.
    // Checked before the single-rank fast path: a group rebuilt down to
    // one survivor still rejects stragglers from the old world.
    if (const nn::DistContext* ctx = nn::DistContext::current()) {
        std::lock_guard<std::mutex> stale_lock(mutex_);
        if (ctx->group == this && ctx->membership_generation != 0 &&
            ctx->membership_generation != membership_generation_) {
            throw CollectiveError(
                site, rank, generation_,
                "deposit from stale membership generation " +
                    std::to_string(ctx->membership_generation) +
                    " rejected (group was rebuilt; current generation " +
                    std::to_string(membership_generation_) + ")",
                -1, ctx->membership_generation);
        }
    }
    if (world_size_ == 1) {
        const auto t0 = Clock::now();
        Tensor out = compute({tensor})[0];
        const int64_t copy_ns = obs::nsSince(t0);
        obs::metrics().pg_copy_ns.add(copy_ns);
        rc.copy_ns.fetch_add(copy_ns, std::memory_order_relaxed);
        flight.ok = true;
        return out;
    }
    const auto entry_time = Clock::now();
    std::unique_lock<std::mutex> lock(mutex_);
    if (aborted_) {
        throwAborted();
    }
    if (!tensor.materialized()) {
        abortLocked(site, rank, "rank deposited a meta (storage-less) tensor");
        throwAborted();
    }
    if (arrived_ > 0 && validate) {
        std::string mismatch = validate(slots_[first_rank_], tensor);
        if (!mismatch.empty()) {
            // Name the offending rank and unblock the peers: they cannot
            // complete this collective anymore.
            abortLocked(site, rank,
                        "rank " + std::to_string(rank) + ": " + mismatch +
                            " (reference deposit from rank " +
                            std::to_string(first_rank_) + ")");
            throwAborted();
        }
    }
    slots_[rank] = tensor;
    if (arrived_ == 0) {
        first_rank_ = rank;
    }
    const int64_t my_generation = generation_;
    if (++arrived_ == world_size_) {
        obs::TraceSpan compute_span("pg.compute", "pg");
        const auto t0 = Clock::now();
        try {
            results_ = compute(slots_);
        } catch (const std::exception& e) {
            arrived_ = 0;
            abortLocked(site, rank, e.what());
            throwAborted();
        }
        const int64_t compute_ns = obs::nsSince(t0);
        obs::metrics().pg_copy_ns.add(compute_ns);
        rc.copy_ns.fetch_add(compute_ns, std::memory_order_relaxed);
        arrived_ = 0;
        first_rank_ = -1;
        ++generation_;
        cv_.notify_all();
    } else {
        obs::TraceSpan wait_span("pg.wait", "pg");
        auto ready = [&] { return generation_ != my_generation || aborted_; };
        auto elapsed_ms = [&] {
            return std::chrono::duration_cast<std::chrono::milliseconds>(
                       Clock::now() - entry_time)
                .count();
        };
        if (timeout_ms_ > 0) {
            if (!cv_.wait_for(lock, std::chrono::milliseconds(timeout_ms_),
                              ready)) {
                const int64_t waited = elapsed_ms();
                const int64_t waited_ns = obs::nsSince(entry_time);
                obs::metrics().pg_wait_ns.add(waited_ns);
                rc.wait_ns.fetch_add(waited_ns, std::memory_order_relaxed);
                // Staged for reset()/rebuild(): this wait measures the
                // hang, not rank skew.
                rc.aborted_wait_ns.fetch_add(waited_ns,
                                             std::memory_order_relaxed);
                abortLocked(site, rank,
                            "rank " + std::to_string(rank) +
                                " timed out after waiting " +
                                std::to_string(waited) +
                                "ms for peers (timeout " +
                                std::to_string(timeout_ms_) + "ms)");
                throwAborted(waited);
            }
        } else {
            cv_.wait(lock, ready);
        }
        const int64_t waited_ns = obs::nsSince(entry_time);
        obs::metrics().pg_wait_ns.add(waited_ns);
        rc.wait_ns.fetch_add(waited_ns, std::memory_order_relaxed);
        // A completed collective beats a later abort: if the generation
        // advanced, this rank's result is valid even if the group was
        // aborted afterwards.
        if (generation_ == my_generation) {
            rc.aborted_wait_ns.fetch_add(waited_ns,
                                         std::memory_order_relaxed);
            throwAborted(elapsed_ms());
        }
    }
    // Read under the lock: the next collective cannot overwrite results_
    // until every rank of this one has re-entered rendezvous, which
    // requires having returned from here first. Clone so ranks never
    // share storage — an in-place update on one rank's result must not
    // leak into (or race with) another rank's copy, exactly as separate
    // processes behave.
    obs::TraceSpan copy_span("pg.copy", "pg");
    const auto t1 = Clock::now();
    Tensor result = results_[rank].clone();
    const int64_t clone_ns = obs::nsSince(t1);
    obs::metrics().pg_copy_ns.add(clone_ns);
    rc.copy_ns.fetch_add(clone_ns, std::memory_order_relaxed);
    flight.ok = true;
    return result;
}

Tensor
ProcessGroup::allReduce(int rank, const Tensor& tensor)
{
    return rendezvous("pg.allreduce", rank, tensor, validateSameShape,
                      [this](const std::vector<Tensor>& slots) {
                          Tensor sum = slots[0].clone();
                          for (int r = 1; r < world_size_; ++r) {
                              sum.addInPlace(slots[r]);
                          }
                          return std::vector<Tensor>(world_size_, sum);
                      });
}

Tensor
ProcessGroup::allReduceBucket(int rank, const Tensor& tensor)
{
    return rendezvous("pg.allreduce.bucket", rank, tensor, validateSameShape,
                      [this](const std::vector<Tensor>& slots) {
                          Tensor sum = slots[0].clone();
                          for (int r = 1; r < world_size_; ++r) {
                              sum.addInPlace(slots[r]);
                          }
                          return std::vector<Tensor>(world_size_, sum);
                      });
}

Tensor
ProcessGroup::allGather(int rank, const Tensor& tensor, int64_t axis)
{
    return rendezvous("pg.allgather", rank, tensor,
                      [axis](const Tensor& ref, const Tensor& mine) {
                          return validateGatherShape(ref, mine, axis);
                      },
                      [this, axis](const std::vector<Tensor>& slots) {
                          Tensor gathered = ops::concat(slots, axis);
                          return std::vector<Tensor>(world_size_, gathered);
                      });
}

Tensor
ProcessGroup::reduceScatter(int rank, const Tensor& tensor, int64_t axis)
{
    return rendezvous("pg.reducescatter", rank, tensor, validateSameShape,
                      [this, axis](const std::vector<Tensor>& slots) {
                          Tensor sum = slots[0].clone();
                          for (int r = 1; r < world_size_; ++r) {
                              sum.addInPlace(slots[r]);
                          }
                          return ops::chunk(sum, world_size_, axis);
                      });
}

Tensor
ProcessGroup::broadcast(int rank, const Tensor& tensor, int root)
{
    return rendezvous("pg.broadcast", rank, tensor, validateSameShape,
                      [this, root](const std::vector<Tensor>& slots) {
                          return std::vector<Tensor>(world_size_, slots[root]);
                      });
}

void
ProcessGroup::barrier()
{
    rendezvous("pg.barrier", 0 /*unused*/, Tensor::zeros({1}), nullptr,
               [this](const std::vector<Tensor>&) {
                   return std::vector<Tensor>(world_size_, Tensor::zeros({1}));
               });
}

} // namespace runtime
} // namespace slapo
