#ifndef PERFBENCH_DECORATORS_H_
#define PERFBENCH_DECORATORS_H_

// Timing decorators the traced run puts between the program's layers: a
// DistanceOracle around the GraphOracle the system routes on, and a
// SimTarget around the adapter EventSim drives. Each forwards every virtual
// of its interface unchanged (counters, Prewarm and the routing backend
// included) and records one span per timed call.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "graph/oracle.h"
#include "sim/event_sim.h"
#include "trace.h"

namespace perfbench {

/// Span names of the oracle decorator, grouped by call shape.
inline constexpr const char kOraclePoint[] = "oracle.point";
inline constexpr const char kOracleRoute[] = "oracle.route";
inline constexpr const char kOracleMatrix[] = "oracle.matrix";

class TracingOracle final : public xar::DistanceOracle {
 public:
  TracingOracle(xar::DistanceOracle& inner, SpanRecorder* recorder)
      : inner_(inner), recorder_(recorder) {}

  double DriveDistance(xar::NodeId from, xar::NodeId to) override {
    ScopedSpan span(recorder_, kOraclePoint);
    return inner_.DriveDistance(from, to);
  }
  double DriveTime(xar::NodeId from, xar::NodeId to) override {
    ScopedSpan span(recorder_, kOraclePoint);
    return inner_.DriveTime(from, to);
  }
  double WalkDistance(xar::NodeId from, xar::NodeId to) override {
    ScopedSpan span(recorder_, kOraclePoint);
    return inner_.WalkDistance(from, to);
  }
  xar::Path DriveRoute(xar::NodeId from, xar::NodeId to) override {
    ScopedSpan span(recorder_, kOracleRoute);
    return inner_.DriveRoute(from, to);
  }
  std::vector<double> DriveDistancesToMany(
      xar::NodeId from, const std::vector<xar::NodeId>& targets) override {
    ScopedSpan span(recorder_, kOracleMatrix);
    return inner_.DriveDistancesToMany(from, targets);
  }
  std::vector<double> DriveDistanceMatrix(
      const std::vector<xar::NodeId>& sources,
      const std::vector<xar::NodeId>& targets) override {
    ScopedSpan span(recorder_, kOracleMatrix);
    return inner_.DriveDistanceMatrix(sources, targets);
  }

  std::size_t computation_count() const override {
    return inner_.computation_count();
  }
  std::size_t cache_hit_count() const override {
    return inner_.cache_hit_count();
  }
  std::size_t settled_count() const override { return inner_.settled_count(); }
  const char* backend_name() const override { return inner_.backend_name(); }
  const char* cache_policy_name() const override {
    return inner_.cache_policy_name();
  }
  xar::OracleCacheCounters cache_counters() const override {
    return inner_.cache_counters();
  }
  void Prewarm() override { inner_.Prewarm(); }
  const xar::RoutingBackend* routing_backend() const override {
    return inner_.routing_backend();
  }
  xar::RoutingBackend* mutable_routing_backend() override {
    return inner_.mutable_routing_backend();
  }

  /// Starts (non-null) or stops (null) recording. Call only while no thread
  /// is inside the oracle.
  void set_recorder(SpanRecorder* recorder) { recorder_ = recorder; }

 private:
  xar::DistanceOracle& inner_;
  SpanRecorder* recorder_;
};

/// Span names of the SimTarget decorator.
inline constexpr const char kSimSearch[] = "sim.search";
inline constexpr const char kSimSab[] = "sim.sab";
inline constexpr const char kSimCreate[] = "sim.create";
inline constexpr const char kSimCancel[] = "sim.cancel";
inline constexpr const char kSimNoShow[] = "sim.noshow";
inline constexpr const char kSimAdvance[] = "sim.advance";
inline constexpr const char kSimRefresh[] = "sim.refresh";
inline constexpr const char kSimGetRide[] = "sim.get_ride";

/// Also accumulates the wall time spent inside the target, so the sim's
/// own share (EventSim's event loop, traffic model, motion) is the rest, and
/// keeps the latency of every Search and SearchAndBook call; both are kept
/// with or without a recorder (they cost two clock reads per call).
class TracingSimTarget final : public xar::SimTarget {
 public:
  TracingSimTarget(std::unique_ptr<xar::SimTarget> inner,
                   SpanRecorder* recorder)
      : inner_(std::move(inner)), recorder_(recorder) {}

  std::vector<xar::RideMatch> Search(
      const xar::RideRequest& request) const override {
    Timed t(this, kSimSearch, request.id.value() + 1, &search_us_);
    return inner_->Search(request);
  }
  xar::Result<xar::BookingRecord> SearchAndBook(
      const xar::RideRequest& request) override {
    Timed t(this, kSimSab, request.id.value() + 1, &sab_us_);
    xar::Result<xar::BookingRecord> booked = inner_->SearchAndBook(request);
    ++(booked.ok() ? sab_landed_ : sab_unmatched_);
    return booked;
  }
  xar::Result<xar::RideId> CreateRide(const xar::RideOffer& offer) override {
    Timed t(this, kSimCreate);
    return inner_->CreateRide(offer);
  }
  xar::Status CancelBooking(xar::RideId ride,
                            xar::RequestId request) override {
    Timed t(this, kSimCancel, request.value() + 1);
    return inner_->CancelBooking(ride, request);
  }
  xar::Status ReportNoShow(xar::RideId ride, xar::RequestId request) override {
    Timed t(this, kSimNoShow, request.value() + 1);
    return inner_->ReportNoShow(ride, request);
  }
  void AdvanceTime(double now_s) override {
    Timed t(this, kSimAdvance);
    inner_->AdvanceTime(now_s);
  }
  xar::RefreshStats RefreshDiscretization(
      const xar::GraphDelta& delta) override {
    Timed t(this, kSimRefresh, 0, nullptr, &refresh_ns_);
    xar::RefreshStats stats = inner_->RefreshDiscretization(delta);
    refreshes_.push_back(stats);
    return stats;
  }
  xar::Result<xar::Ride> GetRide(xar::RideId id) const override {
    Timed t(this, kSimGetRide);
    return inner_->GetRide(id);
  }
  std::uint64_t epoch() const override { return inner_->epoch(); }

  /// Wall time spent inside target calls, nanoseconds.
  std::int64_t inside_ns() const { return inside_ns_; }
  /// The part of inside_ns() spent in RefreshDiscretization.
  std::int64_t refresh_ns() const { return refresh_ns_; }
  /// Latency of every Search / SearchAndBook call, microseconds.
  const std::vector<double>& search_us() const { return search_us_; }
  const std::vector<double>& sab_us() const { return sab_us_; }
  std::uint64_t sab_landed() const { return sab_landed_; }
  std::uint64_t sab_unmatched() const { return sab_unmatched_; }
  /// RefreshStats of every refresh, in call order.
  const std::vector<xar::RefreshStats>& refreshes() const {
    return refreshes_;
  }

 private:
  /// Span plus inside-time accounting for one call. EventSim drives its
  /// target from one thread, so the plain accumulator needs no atomics.
  class Timed {
   public:
    Timed(const TracingSimTarget* owner, const char* name,
          std::uint64_t request = 0, std::vector<double>* samples = nullptr,
          std::int64_t* total_ns = nullptr)
        : owner_(owner), samples_(samples), total_ns_(total_ns),
          span_(owner->recorder_, name, request), start_ns_(NowNs()) {}
    ~Timed() {
      const std::int64_t elapsed = NowNs() - start_ns_;
      owner_->inside_ns_ += elapsed;
      if (total_ns_ != nullptr) *total_ns_ += elapsed;
      if (samples_ != nullptr) {
        samples_->push_back(static_cast<double>(elapsed) * 1e-3);
      }
    }

   private:
    const TracingSimTarget* owner_;
    std::vector<double>* samples_;
    std::int64_t* total_ns_;
    ScopedSpan span_;
    std::int64_t start_ns_;
  };

  std::unique_ptr<xar::SimTarget> inner_;
  SpanRecorder* recorder_;
  mutable std::int64_t inside_ns_ = 0;
  std::int64_t refresh_ns_ = 0;
  mutable std::vector<double> search_us_;
  std::vector<double> sab_us_;
  std::uint64_t sab_landed_ = 0;
  std::uint64_t sab_unmatched_ = 0;
  std::vector<xar::RefreshStats> refreshes_;
};

}  // namespace perfbench

#endif  // PERFBENCH_DECORATORS_H_
